"""The erroneous-declaration model of Experiment 4.

Each step's *declared* I/O demand is ``C = C0 * (1 + x)`` where ``C0`` is
the exact demand and ``x ~ Normal(0, sigma)``; ``C`` is clipped to 0 when
``x <= -1``.  Actual execution always uses ``C0`` — only what the
scheduler believes is distorted, which is precisely what stresses the
WTPG weights.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.transaction import Step
from repro.engine.rng import RandomStreams


def declare_with_error(steps: Sequence[Step], streams: RandomStreams,
                       sigma: float) -> List[Step]:
    """Steps with declared costs distorted by the paper's error model."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0:
        return list(steps)
    out: List[Step] = []
    for step in steps:
        x = streams.normal("declared-error", 0.0, sigma)
        declared = step.cost * (1.0 + x) if x > -1.0 else 0.0
        out.append(Step(step.partition, step.mode, step.cost,
                        declared_cost=declared))
    return out
