"""The paper-literal E(q): Section 3.3 evaluated on a deep copy of the WTPG.

:mod:`repro.core.estimator` evaluates each candidate as a copy-free
overlay on the live graph.  This oracle follows the paper's three steps
on a private copy — apply the implied resolutions, force the
``before(T) -> after(T)`` crossings, take the critical path — with full
topological sorts for every cycle check.  It is slow on purpose.
"""

from contextlib import contextmanager
from typing import Iterator, Sequence
from unittest import mock

from repro.core.estimator import INFINITE_CONTENTION, Resolution
from repro.core.schedulers import kwtpg_scheduler
from repro.core.schedulers.base import LockResponse
from repro.core.schedulers.kwtpg_scheduler import KWTPGScheduler
from repro.core.transaction import TransactionRuntime
from repro.core.wtpg import WTPG
from repro.errors import WTPGError


def estimate_reference(wtpg: WTPG, tid: int,
                       implied_resolutions: Sequence[Resolution]) -> float:
    """``E(q)`` by copy-and-resolve; must equal
    :func:`repro.core.estimator.estimate_contention` bit for bit."""
    if tid not in wtpg:
        raise WTPGError(f"T{tid} is not in the WTPG")

    graph = wtpg.copy()
    for predecessor, successor in implied_resolutions:
        pair = graph.pair(predecessor, successor)
        if pair is None:
            raise WTPGError(
                f"implied resolution T{predecessor}->T{successor} has no "
                "conflicting-edge — declarations and graph are out of sync")
        if pair.resolved and pair.resolved_to != successor:
            return INFINITE_CONTENTION  # would flip a fixed order: deadlock
        graph.resolve(predecessor, successor)

    if graph.has_precedence_cycle():
        return INFINITE_CONTENTION

    before = graph.ancestors(tid)
    after = graph.descendants(tid)
    if before & after:
        return INFINITE_CONTENTION  # cycle through T

    # Step 2: resolve conflicting-edges crossing before(T) -> after(T).
    for edge in graph.unresolved_pairs():
        if edge.a in before and edge.b in after:
            graph.resolve(edge.a, edge.b)
        elif edge.b in before and edge.a in after:
            graph.resolve(edge.b, edge.a)

    if graph.has_precedence_cycle():
        # Transitively forced resolutions closed a cycle: deadlock.
        return INFINITE_CONTENTION

    # Step 3: remaining conflicting-edges are deleted — the critical-path
    # routine ignores unresolved pairs, which is exactly that deletion.
    return graph.critical_path_length()


class ReferenceBatch:
    """Stands in for :class:`~repro.core.estimator.ContentionBatch`:
    same constructor and ``estimate`` signature, every candidate
    evaluated by :func:`estimate_reference` on the graph as it is now."""

    def __init__(self, wtpg: WTPG) -> None:
        self.wtpg = wtpg

    def estimate(self, tid: int,
                 implied_resolutions: Sequence[Resolution]) -> float:
        return estimate_reference(self.wtpg, tid, implied_resolutions)


def _grant_by_full_rule(self: KWTPGScheduler, txn: TransactionRuntime,
                        now: float) -> LockResponse:
    """The paper's rule for a request with an empty ``C(q)``: evaluate
    E(q) with nothing implied and grant unless it is infinite."""
    return self._grant_if_minimal(txn, (), (), now)


def _never_dominates(self: KWTPGScheduler, *args: object) -> bool:
    """The paper's rule for a contested request: evaluate every rival."""
    return False


@contextmanager
def reference_estimator() -> Iterator[None]:
    """Make every K-WTPG grant decision use :class:`ReferenceBatch`
    while the block runs.

    Uncontested requests go through the full rule too, and contested
    ones evaluate every rival's E, so the oracle answers every E(q) the
    paper evaluates, and a run under it proves both of the scheduler's
    shortcuts exact: the cycle check for an empty ``C(q)`` and the
    dominated-rivals grant.
    """
    with mock.patch.object(kwtpg_scheduler, "ContentionBatch",
                           ReferenceBatch), \
            mock.patch.object(KWTPGScheduler, "_grant_uncontested",
                              _grant_by_full_rule), \
            mock.patch.object(KWTPGScheduler, "_dominates_rivals",
                              _never_dominates):
        yield
