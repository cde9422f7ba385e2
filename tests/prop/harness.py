"""The invariant-checking wrapper and the case drivers (serial/parallel).

Parallel mode
-------------
``REPRO_PROP_JOBS=N`` (or an explicit ``jobs=`` argument to
:func:`check_cases`) fans property cases over N worker processes.  Each
case is a pure function of the master seed and its name — exactly the
property the serial harness already relies on for replay — so verdicts
are identical for every jobs value and come back in input order; the
equivalence is itself regression-tested in
``tests/prop/test_parallel_harness.py``.  The default (unset, or 1)
keeps the harness fully in-process.
"""

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.invariants import check_consistency
from repro.core.schedulers import make_scheduler
from repro.faults import FaultPlan
from repro.machine.cluster import Cluster, SimulationResult
from repro.machine.trace import EventType, Tracer, validate_trace


def prop_jobs() -> int:
    """Worker count for the property harness (REPRO_PROP_JOBS, min 1)."""
    try:
        return max(1, int(os.environ.get("REPRO_PROP_JOBS", "1")))
    except ValueError:
        return 1


class InvariantCheckingScheduler:
    """Delegating proxy that re-checks invariant 7 after *every* call.

    ``cache_violations()`` must be empty not just at the end of a run
    but after each scheduler transition — a stale cached weight that a
    later event happens to repair would otherwise go unnoticed.
    """

    CHECKED = ("admit", "request_lock", "commit", "object_processed",
               "object_processed_batch", "abort_transaction")

    def __init__(self, inner) -> None:
        self._inner = inner
        self.checks = 0

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name in self.CHECKED and callable(value):
            def checked(*args, **kwargs):
                result = value(*args, **kwargs)
                self._assert_clean(name)
                return result
            return checked
        return value

    def _assert_clean(self, after: str) -> None:
        self.checks += 1
        wtpg = getattr(self._inner, "wtpg", None)
        if wtpg is None:
            return
        violations = wtpg.cache_violations()
        assert violations == [], (
            f"cache violations after {after}: {violations}")


class SchedulerProxies:
    """Every checking proxy one case created, in creation order.

    A single-CN run creates exactly one; a sharded run creates one per
    control shard plus one per log replay (recovery hands the shard a
    fresh scheduler, which must be checked like the one it replaces).
    """

    def __init__(self) -> None:
        self.proxies: List[InvariantCheckingScheduler] = []

    def __len__(self) -> int:
        return len(self.proxies)

    @property
    def checks(self) -> int:
        return sum(proxy.checks for proxy in self.proxies)


def run_case(params, workload, fault_plan: Optional[FaultPlan],
             ) -> Tuple[SimulationResult, SchedulerProxies]:
    proxies = SchedulerProxies()

    def factory() -> InvariantCheckingScheduler:
        proxy = InvariantCheckingScheduler(make_scheduler(
            params.scheduler, **params.scheduler_kwargs()))
        proxies.proxies.append(proxy)
        return proxy

    cluster = Cluster(params, workload, scheduler_factory=factory,
                      record_history=True, tracer=Tracer(),
                      fault_plan=fault_plan)
    return cluster.run(), proxies


def assert_invariants(result: SimulationResult, name: str) -> None:
    """Every post-run property the harness demands of a run."""
    # 1. Committed history is conflict-serializable, locks exclusive.
    result.history.check_lock_exclusion()
    result.history.check_serializable()
    # 2. Trace lifecycle well-formedness (per execution attempt).
    validate_trace(result.tracer)
    # 3. Final WTPG is acyclic and consistent with the lock table, on
    #    every shard still (or back) alive.
    schedulers = [shard.scheduler for shard in result.control_plane.shards
                  if shard.scheduler is not None]
    for scheduler in schedulers:
        inner = getattr(scheduler, "_inner", scheduler)
        wtpg = getattr(inner, "wtpg", None)
        if wtpg is not None:
            assert not wtpg.has_precedence_cycle(), (
                f"{name}: cyclic final WTPG")
            assert wtpg.cache_violations() == []
            check_consistency(inner.table, wtpg)
    # 4. No transaction both committed and aborted: commits are final
    #    and unique (an abort *before* a commit is a legal restart).
    _assert_commit_finality(result.tracer, name)


def _assert_commit_finality(tracer: Tracer, name: str) -> None:
    committed_at: dict = {}
    for index, event in enumerate(tracer.events):
        if event.tid < 0:
            continue
        if event.kind is EventType.COMMITTED:
            assert event.tid not in committed_at, (
                f"{name}: T{event.tid} committed twice")
            committed_at[event.tid] = index
        elif event.tid in committed_at:
            raise AssertionError(
                f"{name}: T{event.tid} saw {event.kind.value} after commit")


@dataclass(frozen=True)
class CaseVerdict:
    """The outcome of one property case — comparable across processes."""

    name: str
    scheduler: str
    case_seed: int      # the simulation seed the case derived
    ok: bool
    error: str = field(default="", compare=True)


def check_case(scheduler: str, name: str) -> CaseVerdict:
    """Run one generated case and every harness assertion over it.

    Captures assertion failures as a verdict instead of raising, so the
    parallel mode can ship results across process boundaries; the case
    name alone replays the exact run (see tests/prop/gen.py).
    """
    from tests.prop import gen

    rng = gen.case_rng(name)
    workload = gen.make_workload(rng)
    if gen.is_control_case(name):
        params = gen.make_control_params(rng, scheduler)
        plan = gen.make_control_fault_plan(rng, params.num_control_nodes)
    else:
        plan = gen.make_fault_plan(rng)
        params = gen.make_params(rng, scheduler)
    try:
        result, proxy = run_case(params, workload, plan)
        if gen.is_control_case(name) and result.metrics.commits == 0:
            # Total control blackout is a legal outcome: a CN that
            # crashes early and never recovers can stall every arrival
            # in the admission retry loop, so no scheduler is ever
            # consulted.  (Any commit implies checked calls, so the
            # strict assertion below is vacuous only when commits == 0.)
            pass
        else:
            assert proxy.checks > 0, f"{name}: proxy never exercised"
        assert_invariants(result, name)
        if gen.is_control_case(name):
            metrics = result.metrics
            assert metrics.cn_crashes >= 1, (
                f"{name}: planned CN crash never fired")
            # Every recovery replays the log into a *fresh* scheduler;
            # the factory wraps each one, so the proxy count accounts
            # for every scheduler the run ever consulted.
            assert len(proxy) == (params.num_control_nodes
                                  + metrics.cn_recoveries), (
                f"{name}: recovery bypassed the scheduler factory")
        for tid, commits, aborts in lifecycle_counts(result.tracer):
            assert commits <= 1, f"{name}: T{tid} committed {commits} times"
            if plan is None:
                assert aborts == 0 or scheduler == "2PL", (
                    f"{name}: T{tid} aborted without a fault plan")
    except AssertionError as exc:
        return CaseVerdict(name, scheduler, params.seed, False, str(exc))
    return CaseVerdict(name, scheduler, params.seed, True)


def _check_case_pair(pair: Tuple[str, str]) -> CaseVerdict:
    """Tuple adapter (top-level so it pickles for pool workers)."""
    return check_case(pair[0], pair[1])


def check_cases(pairs: Sequence[Tuple[str, str]],
                jobs: Optional[int] = None) -> List[CaseVerdict]:
    """Run (scheduler, case-name) pairs, optionally across processes.

    ``jobs=None`` reads ``REPRO_PROP_JOBS`` (default 1 = serial).
    Verdicts come back in input order; they are identical for every
    jobs value because each case is a pure function of the master seed
    and its name.  If a pool cannot be created the harness silently
    runs in-process instead.
    """
    pairs = list(pairs)
    jobs = prop_jobs() if jobs is None else max(1, jobs)
    if jobs > 1 and len(pairs) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=min(jobs, len(pairs))) \
                    as pool:
                return list(pool.map(_check_case_pair, pairs))
        except (OSError, ValueError, ImportError):
            pass  # restricted platform: degrade to in-process
    return [_check_case_pair(pair) for pair in pairs]


def lifecycle_counts(tracer: Tracer) -> List[Tuple[int, int, int]]:
    """(tid, commits, aborts) per transaction — for meta-assertions."""
    out = []
    for tid in tracer.transactions():
        if tid < 0:
            continue
        events = tracer.timeline(tid)
        out.append((tid,
                    sum(1 for e in events
                        if e.kind is EventType.COMMITTED),
                    sum(1 for e in events
                        if e.kind is EventType.ABORTED)))
    return out
