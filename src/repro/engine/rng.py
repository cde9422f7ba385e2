"""Deterministic named random streams.

A simulation draws randomness for several independent purposes (arrival
times, partition choices, declared-cost errors, retry jitter).  Giving each
purpose its own stream — derived deterministically from one master seed and
the stream's name — means a change in how one stream is consumed cannot
perturb the draws of another, so experiments stay comparable across code
changes and scheduler choices.

The generators themselves never leave this module: callers draw through
the named methods of :class:`RandomStreams`, so no code outside it can
hold, store or hand on a ``random.Random``.  ``repro-lint``'s RL001
enforces this: no ``_stream``/``_streams`` access outside this module,
and a ``RandomStreams`` is built only where its ``RNG_OWNERS`` allow.
"""

from __future__ import annotations

import hashlib
from random import Random
from typing import Dict, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from ``master_seed`` and ``name``.

    Uses SHA-256 so that stream seeds are effectively independent even for
    adjacent master seeds or similar names.
    """
    payload = f"{master_seed}:{name}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class RandomStreams:
    """A family of independent, reproducible random generators."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, Random] = {}

    def _stream(self, name: str) -> Random:
        """The generator for ``name``, created on first use."""
        if name not in self._streams:
            self._streams[name] = Random(derive_seed(self.master_seed, name))
        return self._streams[name]

    # -- named draws ---------------------------------------------------------

    def random(self, name: str) -> float:
        """One uniform variate on [0, 1)."""
        return self._stream(name).random()

    def exponential(self, name: str, mean: float) -> float:
        """One exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self._stream(name).expovariate(1.0 / mean)

    def normal(self, name: str, mu: float, sigma: float) -> float:
        """One normal variate (sigma = 0 returns mu exactly)."""
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        if sigma == 0:
            return mu
        return self._stream(name).gauss(mu, sigma)

    def choice(self, name: str, items: Sequence[T]) -> T:
        """One uniformly random element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._stream(name).choice(items)

    def sample(self, name: str, items: Sequence[T], k: int) -> List[T]:
        """``k`` distinct uniformly random elements of ``items``."""
        if k > len(items):
            raise ValueError(f"cannot sample {k} items from {len(items)}")
        return self._stream(name).sample(items, k)

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform variate on [low, high]."""
        return self._stream(name).uniform(low, high)

    def randint(self, name: str, low: int, high: int) -> int:
        """One uniform integer on [low, high] inclusive."""
        return self._stream(name).randint(low, high)
