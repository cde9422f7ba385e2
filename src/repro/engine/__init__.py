"""Discrete-event simulation kernel.

A small, dependency-free process-oriented DES in the style of SimPy:
processes are Python generators that ``yield`` events; the
:class:`~repro.engine.core.Environment` advances a virtual clock and resumes
processes when the events they wait on are triggered.

The kernel is deliberately deterministic: events scheduled for the same
instant fire in schedule order (a monotone sequence number breaks ties), and
all randomness is confined to :class:`~repro.engine.rng.RandomStreams`, which
derives independent named substreams from a single integer seed.

Public surface::

    from repro.engine import Environment, Event, Timeout, Process
    from repro.engine import RandomStreams

    env = Environment()

    def worker(env):
        yield env.timeout(5)           # relative delay
        yield env.timeout_until(8)     # absolute instant, exactly

    env.process(worker(env))
    env.run(until=100)
"""

from repro.engine.core import Environment, Event, Process, Timeout, AllOf
from repro.engine.rng import RandomStreams

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "Timeout",
]
