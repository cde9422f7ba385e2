"""Literal port of the paper's appendix algorithm (Lcomp / Rcomp).

The appendix computes, for a chain-form WTPG ``G(1, N)`` with *all*
conflicting edges unresolved, the length of the shortest achievable
critical path in O(N^2), via two triplet tables computed right-to-left:

* ``L[k] = (curr, crit, rev)`` — the optimum of the sub-chain
  ``G(k-1, N)`` *given that edge (n[k-1], n[k]) is set downwards*
  (``n[k-1] -> n[k]``): ``crit`` is the optimal critical-path length,
  ``rev`` the first label whose edge flips upwards in the optimal order,
  and ``curr`` the length of the path ``n0 -> n[k-1] -> ... -> n[rev]``.
* ``R[k]`` — the same for edge (n[k-1], n[k]) set upwards, with ``curr``
  the critical-path length from ``n0`` to ``n[k-1]``.

Weight conventions (paper Figure 3): ``r[k] = w(T0 -> n[k])``,
``a[k] = w(n[k-1] -> n[k])`` (downward weight of the edge between labels
k-1 and k), ``b[k] = w(n[k] -> n[k-1])`` (upward weight), for
``k = 2 .. N`` (1-based labels).

The scanned pseudocode is partially corrupted; this module is our
best-faith reconstruction, and the test suite proves it equivalent to
both the exhaustive optimum and the production Pareto-frontier DP
(:mod:`repro.core.chain_opt`) on thousands of random chains.  The
production schedulers use ``chain_opt`` because it additionally supports
pre-resolved (fixed) and absent edges, which arise mid-schedule; this
port exists for fidelity and cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.chain_opt import ChainPair
from repro.errors import WTPGError


@dataclass(frozen=True)
class Triplet:
    """The (curr, crit, rev) structural parameters of Definition 3."""

    curr: float
    crit: float
    rev: int


def _validate(r: Sequence[float], a: Sequence[float],
              b: Sequence[float]) -> int:
    n = len(r)
    if len(a) != n or len(b) != n:
        raise WTPGError(
            "a and b must have one (ignored) leading slot per node: "
            f"len(r)={n}, len(a)={len(a)}, len(b)={len(b)}")
    if any(w < 0 for w in list(r) + list(a) + list(b)):
        raise WTPGError("appendix weights must be non-negative")
    return n


def appendix_shortest_critical_path(r1: Sequence[float], a1: Sequence[float],
                                    b1: Sequence[float]) -> float:
    """Shortest critical path of the free chain ``G(1, N)``.

    Arguments are 1-based in spirit: ``r1[k]`` for ``k = 1..N`` and
    ``a1[k]``/``b1[k]`` for ``k = 2..N``; pass them as 0-indexed
    sequences of length N+1 with dummy entries at index 0 (and index 1
    for ``a``/``b``).  Use :func:`from_chain` to convert from the
    ``chain_opt`` representation.
    """
    n = _validate(r1, a1, b1) - 1
    if n <= 0:
        return 0.0
    if n == 1:
        return float(r1[1])

    r = [float(x) for x in r1]
    a = [float(x) for x in a1]
    b = [float(x) for x in b1]

    big_l: Dict[int, Triplet] = {}
    big_r: Dict[int, Triplet] = {}

    # Base case k = N: no edge (N, N+1) exists, so L1/L2 coincide.
    big_l[n] = Triplet(curr=r[n - 1] + a[n],
                       crit=max(r[n - 1] + a[n], r[n]), rev=n)
    big_r[n] = Triplet(curr=max(r[n] + b[n], r[n - 1]),
                       crit=max(r[n] + b[n], r[n - 1]), rev=n)

    def r_crit(index: int) -> float:
        # R[N+1].crit stands for the empty suffix S2(N, N).
        return big_r[index].crit if index <= n else 0.0

    def l_crit(index: int) -> float:
        return big_l[index].crit if index <= n else 0.0

    for k in range(n - 1, 1, -1):
        big_l[k] = _lcomp(k, r, a, b, big_l, big_r, r_crit)
        big_r[k] = _rcomp(k, r, a, b, big_l, big_r, l_crit)

    return min(big_l[2].crit, big_r[2].crit)


def _lcomp(k: int, r: List[float], a: List[float], b: List[float],
           big_l: Dict[int, Triplet], big_r: Dict[int, Triplet],
           r_crit: Callable[[int], float]) -> Triplet:
    """L[k]: edge (k-1, k) set downwards; see module docstring."""
    nxt = big_l[k + 1]

    # -- L1[k]: edge (k, k+1) also downwards --------------------------------
    temp = nxt.curr - r[k] + r[k - 1] + a[k]
    if temp <= nxt.crit:
        l1 = Triplet(curr=temp, crit=nxt.crit, rev=nxt.rev)
    else:
        # EXPR1: flip the run upwards at some h in k+1 .. L[k+1].rev.
        # V(h) is the critical path inside G(k-1, h) resolved by the
        # down-run; C(h) the plain path length n0 -> n[k-1] -> ... -> n[h].
        best_crit, best_h, best_curr = float("inf"), nxt.rev, temp
        v = r[k - 1]
        c = r[k - 1]
        for h in range(k, nxt.rev + 1):
            c = c + a[h]
            v = max(r[h], v + a[h])
            if h >= k + 1:
                candidate = max(v, r_crit(h + 1))
                if candidate < best_crit:
                    best_crit, best_h, best_curr = candidate, h, c
        l1 = Triplet(curr=best_curr, crit=best_crit, rev=best_h)

    # -- L2[k]: edge (k, k+1) upwards ----------------------------------------
    l2_curr = r[k - 1] + a[k]
    l2 = Triplet(curr=l2_curr, crit=max(l2_curr, r_crit(k + 1)), rev=k)

    return l1 if l1.crit <= l2.crit else l2


def _rcomp(k: int, r: List[float], a: List[float], b: List[float],
           big_l: Dict[int, Triplet], big_r: Dict[int, Triplet],
           l_crit: Callable[[int], float]) -> Triplet:
    """R[k]: edge (k-1, k) set upwards; see module docstring."""
    nxt = big_r[k + 1]

    # -- R1[k]: edge (k, k+1) also upwards (the up-run extends) ---------------
    # NOTE: the scanned pseudocode reads "R1[k] = [temp, ...]" here, but
    # Definition 3 requires curr to be the *critical path* from n0 to
    # n[k-1], which includes the direct entry r[k-1]; without the max the
    # table underestimates on ~0.5 % of random chains (verified against
    # exhaustive search).  We take this to be a transcription defect of
    # the scan.
    temp = nxt.curr + b[k]
    if max(r[k - 1], temp) <= nxt.crit:
        r1 = Triplet(curr=max(temp, r[k - 1]), crit=nxt.crit, rev=nxt.rev)
    elif r[k - 1] >= temp:
        r1 = Triplet(curr=r[k - 1], crit=r[k - 1], rev=nxt.rev)
    else:
        # EXPR2: break the up-run downwards at some h in k+1 .. R[k+1].rev.
        best_crit, best_h, best_curr = float("inf"), nxt.rev, temp
        c = r[k - 1]
        v = r[k - 1]
        for h in range(k, nxt.rev + 1):
            c = c - r[h - 1] + r[h] + b[h]
            v = max(c, v)
            if h >= k + 1:
                candidate = max(v, l_crit(h + 1))
                if candidate < best_crit:
                    best_crit, best_h, best_curr = candidate, h, v
        r1 = Triplet(curr=best_curr, crit=best_crit, rev=best_h)

    # -- R2[k]: edge (k, k+1) downwards ----------------------------------------
    r2_curr = max(r[k] + b[k], r[k - 1])
    r2 = Triplet(curr=r2_curr, crit=max(r2_curr, l_crit(k + 1)), rev=k)

    return r1 if r1.crit <= r2.crit else r2


def from_chain(source_weights: Sequence[float],
               pairs: Sequence[Optional[ChainPair]],
               ) -> Tuple[List[float], List[float], List[float]]:
    """Convert a ``chain_opt`` instance into the appendix (r, a, b) form.

    Every pair must be present and free (the appendix handles the initial
    optimisation of a fully unresolved chain).
    """
    n = len(source_weights)
    r = [0.0] + [float(w) for w in source_weights]
    a = [0.0, 0.0] + [0.0] * max(0, n - 1)
    b = [0.0, 0.0] + [0.0] * max(0, n - 1)
    for index, pair in enumerate(pairs):
        if pair is None or pair.fixed is not None:
            raise WTPGError(
                "the appendix algorithm requires a fully free chain")
        a[index + 2] = float(pair.down)
        b[index + 2] = float(pair.up)
    return r, a[:n + 1], b[:n + 1]
