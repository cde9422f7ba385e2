"""Deterministic fault injection for the simulated machine.

The subsystem has two halves:

* :mod:`repro.faults.plan` — the declarative injection-plan DSL
  (:class:`FaultPlan`): data- and control-node crashes/recoveries at
  fixed times, forced BAT aborts at a given step, a stochastic abort
  rate, partition I/O slowdown windows and cascade-abort semantics.
  Plans round-trip through JSON (``repro run --faults plan.json``).
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which executes
  a plan inside one simulation: it draws every stochastic decision from
  named :class:`~repro.engine.rng.RandomStreams` substreams, so a fault
  schedule replays bit-identically for a given master seed, and it
  schedules the timed faults as ordinary engine processes.

With no plan (or an empty plan) the machine consumes no extra
randomness and schedules no extra events, so fault-free runs remain
bit-identical to runs of the code before this subsystem existed.
"""

from repro.faults.plan import (ControlCrash, FaultPlan, NodeCrash,
                               PartitionSlowdown, StepAbort)
from repro.faults.injector import FaultInjector

__all__ = [
    "ControlCrash",
    "FaultInjector",
    "FaultPlan",
    "NodeCrash",
    "PartitionSlowdown",
    "StepAbort",
]
