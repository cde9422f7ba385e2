"""The control plane: admission, locking, dispatch, 2PC and recovery.

The paper's machine has one control node (CN) that owns the lock table
and WTPG and coordinates every BAT's lifecycle as the two-phase-commit
coordinator.  Here that CN is the one-shard case of a *control plane* of
:class:`ControlShard` s.  Each shard owns the lock table + WTPG slice for
a partition range — partition ``p`` is controlled by CN ``p mod
num_control_nodes``, the same modulo placement the data layer uses for
partitions over data nodes — plus its own FIFO CPU and, when recovery
can need one, a :class:`~repro.machine.control_log.DependencyLog`
that every commit and abort compacts.

Every BAT runs as one engine process,
:meth:`ControlPlane.transaction_process`, the same for every plane
size.  Each execution attempt passes through four phase generators —
``_admit``, ``_start``, ``_execute`` and ``_commit`` — and a phase that
ends the attempt returns its abort cause:

* **admission** runs independently on every participant shard against
  a shard-local *sub-declaration* (the subsequence of steps on that
  shard's partitions; on a one-shard plane, all of them) and costs what
  the schedulers report.  The global verdict is the conjunction
  (:func:`~repro.core.schedulers.base.merge_admission_responses`); a
  globally rejected BAT (ASL preclaim failure, chain-form or K-conflict
  violation) rolls its local admissions back and is re-submitted after
  the fixed retry delay.  The 2PC start coordination (``startuptime``)
  is paid once, on its home CN, when it is admitted;
* **lock requests** route to the shard owning the step's partition and
  are costed on that shard's CPU (``ddtime`` / ``chaintime`` /
  ``kwtpgtime``); BLOCK/DELAY responses are re-submitted after the
  retry delay (one that cost nothing parks the BAT until what the
  verdict read changes: :meth:`ControlPlane._retry`); a granted step
  ships the BAT to the data node holding the partition, whose
  per-object weight-adjustment messages go to the same shard;
* **commitment** of a cross-shard BAT is a two-phase commit among its
  participant CNs: a prepare round and a commit round, each costing
  ``committime`` on every participant's CPU in parallel.  A single-shard
  BAT commits like the paper's centralized machine: one ``committime``
  on its home CN, no 2PC rounds.

A one-shard plane *is* the paper's centralized CN.  Every control cost
takes one path (:meth:`ControlPlane._charge`): a charge is claimed on
its CN's CPU at the instant its decision is taken, and the coordinator
waits for its end, or for every participant's end when several CNs pay
in parallel.  Each CN's CPU is a single FIFO server, so heavy control
traffic queues — the paper deliberately overstates control cost
relative to ``ObjTime`` to show the schedulers survive it.

Aborts — deadlock victims (2PL/WAIT-DIE) and injected faults
(:mod:`repro.faults`) — funnel into one restart path: the schedulers
release the victim's locks and WTPG node, the metrics record the abort
by cause, and the BAT is re-submitted from admission after the fixed
``retry_delay``.  When the fault plan enables cascades, the victim's
direct precedence successors are doomed too
(:meth:`ControlPlane.request_abort`), each of which repeats the same
path when its process next runs.

Crash/recovery (:class:`~repro.faults.plan.ControlCrash`): a crashed
shard loses its volatile scheduler state.  BATs *homed* on it (home =
shard of the first step) are doomed through the ordinary restart path;
surviving BATs that merely hold locks there stall — lock requests and
commits retry until the shard replays its dependency log into a fresh
scheduler (:meth:`ControlPlane.recover_shard`), which is proved
consistent before it serves again.  Only a scheduler with a lock table
and WTPG has state to replay, so the plane refuses a CN crash under any
other with :class:`~repro.errors.FaultPlanError`.  Two modelling
simplifications, documented in ``docs/control_plane.md``: the
dependency log is durable and stays reachable (surviving coordinators
append their ABORTs to a down shard's log, compacting it), and weight
decrements lost with the crash leave the replayed WTPG at conservative
declared weights.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import (Any, Callable, Deque, Dict, Generator, List, Optional,
                    Sequence, Set, Tuple)

from repro.config import SimulationParameters
from repro.core.history import History
from repro.core.schedulers.base import (AdmissionResponse, Certificate,
                                        Decision, Scheduler,
                                        merge_admission_responses)
from repro.core.transaction import (ACTIVE, COMMITTED, LockMode, Step,
                                    TransactionRuntime, TransactionSpec)
from repro.engine import Environment, Event
from repro.errors import FaultError, FaultPlanError, SchedulerError
from repro.faults.injector import FaultInjector
from repro.machine.control_log import DependencyLog
from repro.machine.data_node import DataNode
from repro.machine.parking import STALLED, ParkingLot, Sleeper, no_credit
from repro.machine.partition import Catalog
from repro.machine.trace import EventType, Tracer
from repro.metrics.collector import MetricsCollector

# The abort cause of the pre-fault machine; traces keep their legacy
# shape for it (no explicit cause key) so fault-free runs stay
# bit-identical with historical traces.
_LEGACY_CAUSE = "deadlock"


def _add_attempts(txn: TransactionRuntime, polls: int) -> None:
    """What ``polls`` skipped admission attempts' ``reset_for_retry()``
    would have added; the rest of it leaves a rejected BAT unchanged."""
    txn.attempts += polls


def declustered_shares(cost: float, n: int) -> List[float]:
    """Split ``cost`` into ``n`` near-equal shares summing to exactly ``cost``.

    Telescoping prefix differences: share ``i`` is ``cost*(i+1)/n -
    cost*i/n``, with the last share computed as ``cost - prefix``
    directly, so the shares sum to ``cost`` *exactly* (the intermediate
    bounds cancel pairwise) while each stays within a few ulps of the
    ideal ``cost / n``.  Plain ``cost / n`` copies do not conserve: ``n``
    repetitions of the rounded quotient drift from the dispatched total,
    so the per-node object counts stop adding up to the step cost.
    """
    shares: List[float] = []
    prev = 0.0
    for i in range(1, n):
        bound = cost * i / n
        shares.append(bound - prev)
        prev = bound
    shares.append(cost - prev)
    return shares


class ControlShard:
    """One control node of the plane: CPU, scheduler, optional log.

    The CPU is a capacity-1 FIFO server.  Every charge knows its service
    time when it is claimed, so it is granted in closed form at
    ``max(now, free_at)`` and costs one heap entry, its end (see
    :meth:`charge`).
    """

    def __init__(self, shard_id: int, env: Environment,
                 scheduler: Scheduler, logged: bool) -> None:
        self.shard_id = shard_id
        self.env = env
        self.scheduler: Optional[Scheduler] = scheduler
        self.log = DependencyLog(shard_id) if logged else None
        self.crashed = False
        self.crashed_at = 0.0
        # The CPU: the end instants of the charges not yet folded into
        # the busy integral, in FIFO order (the last is the instant the
        # CPU frees), and the instant the integral has been summed to.
        self._ends: Deque[float] = deque()
        self._busy = 0.0
        self._busy_from = env.now
        # The parked BATs a change on this CN may wake, by tid
        # (maintained by the plane's ParkingLot).
        self.sleepers: Dict[int, Sleeper] = {}

    @property
    def live(self) -> Scheduler:
        """The shard's scheduler; raises if the shard is down."""
        if self.scheduler is None:
            raise SchedulerError(f"CN {self.shard_id} is down")
        return self.scheduler

    def charge(self, cost: float) -> Event:
        """Occupy this shard's CPU for ``cost`` clocks, FIFO.

        Returns the event that fires when the charge ends.  It starts at
        ``max(now, free_at)``, and its end entry carries that start as its
        sort time, the key a grant followed by ``timeout(cost)`` would
        give it.  Ends tying on ``(when, sort_time)`` fire in claim order.
        A zero cost still claims its place in the queue; callers that do
        not want to wait for the queue skip it.
        """
        if cost < 0:
            raise ValueError(f"negative CPU charge: {cost!r}")
        now = self.env.now
        ends = self._ends
        # _settle's fold, inlined: the CPU's earlier charges have
        # usually ended by the next one.
        while ends and ends[0] <= now:
            end = ends.popleft()
            self._busy += end - self._busy_from
            self._busy_from = end
        if ends:
            start = ends[-1]
        else:
            start = self._busy_from = now
        end = start + cost
        ends.append(end)
        return self.env.timeout_until(end, sort_time=start)

    def _settle(self, now: float) -> Deque[float]:
        """Fold every charge ended by ``now`` into the busy integral, one
        ``end - start`` term each in FIFO order; returns the rest."""
        ends = self._ends
        while ends and ends[0] <= now:
            end = ends.popleft()
            self._busy += end - self._busy_from
            self._busy_from = end
        return ends

    def busy_time(self) -> float:
        """CPU busy time so far, pro-rating the charge in service."""
        now = self.env.now
        if self._settle(now):
            self._busy += now - self._busy_from
            self._busy_from = now
        return self._busy

    def crash(self, now: float) -> None:
        """Lose the volatile scheduler state; only the log survives."""
        self.crashed = True
        self.crashed_at = now
        self.scheduler = None

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` during which this CN's CPU was busy."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / elapsed


class ControlPlane:
    """Shard map plus the transaction coordinator of every BAT."""

    def __init__(self, env: Environment, params: SimulationParameters,
                 scheduler_factory: Callable[[], Scheduler],
                 catalog: Catalog, data_nodes: List[DataNode],
                 metrics: MetricsCollector,
                 history: Optional[History] = None,
                 tracer: Optional[Tracer] = None,
                 injector: Optional[FaultInjector] = None) -> None:
        self.env = env
        self.params = params
        self.scheduler_factory = scheduler_factory
        self.catalog = catalog
        self.data_nodes = data_nodes
        self.metrics = metrics
        self.history = history
        self.tracer = tracer
        self.injector = injector
        plan = injector.plan if injector is not None else None
        # Logging follows the inputs: a dependency log is kept only where
        # recovery or the replay differentials can read it — on every
        # shard of a multi-shard plane, and whenever the fault plan
        # schedules a CN crash.
        logged = params.num_control_nodes > 1 or (
            plan is not None and bool(plan.control_crashes))
        self.shards = [ControlShard(sid, env, scheduler_factory(), logged)
                       for sid in range(params.num_control_nodes)]
        if plan is not None and any(crash.cn < len(self.shards)
                                    for crash in plan.control_crashes):
            # Recovery replays the dependency log into a fresh lock table
            # and WTPG, and crash_shard finds the BATs to doom in the
            # WTPG: a scheduler without both cannot lose a CN.
            scheduler = self.shards[0].live
            if (getattr(scheduler, "table", None) is None
                    or getattr(scheduler, "wtpg", None) is None):
                raise FaultPlanError(
                    f"a CN crash needs a scheduler with a lock table and "
                    f"WTPG to replay; {scheduler.name} has none")
        self.active_transactions = 0
        # Grant bookkeeping for history validation: tid -> list of
        # (partition, mode, grant time).
        self._grants: Dict[int, List[Tuple[int, LockMode, float]]] = {}
        # Fault bookkeeping: admitted-but-uncommitted tids, tids doomed
        # with their condemning cause, and each tid's home shard (set at
        # first arrival, constant across attempts).
        self._running: Set[int] = set()
        self._doomed: Dict[int, str] = {}
        self._home: Dict[int, int] = {}
        self._cascade = plan.cascade if plan is not None else False
        # BATs parked after a zero-cost refusal (see _retry); a run's
        # counters are read after parking.settle().
        self.parking = ParkingLot(env, params.retry_delay,
                                  [shard.sleepers for shard in self.shards])

    # -- shard map ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, partition: int) -> int:
        """The CN controlling ``partition`` (modulo placement)."""
        return partition % len(self.shards)

    def utilizations(self, elapsed: float) -> List[float]:
        """Per-CN CPU utilization over ``elapsed`` clocks."""
        return [shard.utilization(elapsed) for shard in self.shards]

    def _charge(self, charges: List[Tuple[ControlShard, float]],
                ) -> Optional[Event]:
        """Claim every positive ``(shard, cost)`` charge now, on its CN's
        CPU, at the instant its decision is taken.

        Returns the event to wait on: the one charge's end, or, when
        several CNs pay in parallel, the ``all_of`` of their ends; None
        when nothing costs.
        """
        if len(charges) == 1:
            # Every charge of a one-CN plane takes this branch; building
            # a list of ends for it cost 2-3% of a one-CN run's host time.
            shard, cost = charges[0]
            return shard.charge(cost) if cost > 0 else None
        ends = [shard.charge(cost) for shard, cost in charges if cost > 0]
        if not ends:
            return None
        return ends[0] if len(ends) == 1 else self.env.all_of(ends)

    def _project(self, spec: TransactionSpec,
                 ) -> Tuple[List[int], Dict[int, TransactionSpec]]:
        """Split a declaration into per-shard sub-declarations.

        Returns ``(route, sub_specs)``: ``route[i]`` is the shard owning
        global step ``i``, and ``sub_specs[sid]`` is the order-preserving
        subsequence of steps on shard ``sid``'s partitions.  Shard-local
        step indices are exactly each sub-runtime's own ``current_step``,
        advanced in lockstep with the global one.  Every plane projects:
        a BAT on one shard (on a one-shard plane, every BAT) has the
        immutable declaration itself as its only sub-declaration.
        """
        route: List[int] = []
        steps_by_shard: Dict[int, List[Step]] = {}
        for step in spec.steps:
            sid = self.shard_of(step.partition)
            route.append(sid)
            steps_by_shard.setdefault(sid, []).append(step)
        if len(steps_by_shard) == 1:
            return route, {route[0]: spec}
        sub_specs = {sid: TransactionSpec(spec.tid, steps, label=spec.label)
                     for sid, steps in steps_by_shard.items()}
        return route, sub_specs

    # -- fault plumbing --------------------------------------------------------

    def request_abort(self, tid: int, cause: str) -> bool:
        """Doom a running transaction (cascade abort).

        The victim's resident bulk work is cancelled immediately; its
        coordinator process observes the doom at its next decision point
        and runs the shared abort/restart path.  Returns False when the
        transaction is not currently running (already committed, already
        doomed, or between attempts) — such cascades are void and counted
        in :attr:`~repro.metrics.collector.RunMetrics.void_cascades`.
        """
        if tid not in self._running or tid in self._doomed:
            self.metrics.record_void_cascade()
            return False
        self._doom(tid, cause)
        return True

    def _doom(self, tid: int, cause: str) -> None:
        """Condemn ``tid`` unconditionally (internal: CN crashes may doom
        transactions that are mid-admission and not yet ``_running``)."""
        self._doomed[tid] = cause
        for node in self.data_nodes:
            node.cancel(tid, kind=cause)
        self.parking.doomed(tid)

    def crash_shard(self, sid: int) -> List[int]:
        """Kill CN ``sid``; returns the tids doomed by the crash.

        Only BATs *homed* on the dead shard die — their coordinator
        state is gone.  BATs merely holding locks there survive: their
        slice of the shard's state is rebuilt by log replay, and their
        coordinators stall any request to the dead shard until then.
        """
        shard = self.shards[sid]
        if shard.crashed:
            return []
        # Duck-typed (not isinstance) so delegating wrappers — e.g. the
        # property harness's invariant-checking proxy — count too.
        wtpg = getattr(shard.scheduler, "wtpg", None)
        registered: List[int] = (sorted(wtpg.transactions)
                                 if wtpg is not None else [])
        doomed: List[int] = []
        for tid in registered:
            if self._home.get(tid) == sid and tid not in self._doomed:
                self._doom(tid, "cn_crash")
                doomed.append(tid)
        shard.crash(self.env.now)
        self.parking.shard_changed(sid)
        return doomed

    def recover_shard(self, sid: int) -> int:
        """Replay CN ``sid``'s dependency log into a fresh scheduler.

        The replayed scheduler is proved consistent inside
        :meth:`~repro.machine.control_log.DependencyLog.replay`
        (the full invariant suite, ``cache_violations()`` included)
        before the shard serves again.  Returns the log's end LSN, the
        records ever appended that the shard recovered to.
        """
        shard = self.shards[sid]
        if not shard.crashed:
            raise SchedulerError(f"CN {sid} is not crashed")
        if shard.log is None:
            raise SchedulerError(f"CN {sid} keeps no dependency log")
        scheduler, replayed = shard.log.replay(self.scheduler_factory)
        shard.scheduler = scheduler
        shard.crashed = False
        self.metrics.record_recovery(replayed,
                                     self.env.now - shard.crashed_at)
        self.parking.shard_changed(sid)
        return replayed

    def _doom_cause(self, txn: TransactionRuntime,
                    planned_abort: Optional[int]) -> Optional[str]:
        cause = self._doomed.get(txn.tid)
        if cause is not None:
            return cause
        if planned_abort is not None and txn.current_step == planned_abort:
            return "injected"
        return None

    def _retry(self, txn: TransactionRuntime, cert: Optional[Certificate],
               watch: Sequence[int], credit: Callable[[int], None],
               ) -> Event:
        """The event that fires at the next poll of a request just refused.

        Literally, the refused BAT asks again every ``retry_delay``, and
        each poll's heap key is built from arithmetic quantities only: the
        poll instant, the instant of the poll before it and a rank of
        its own per BAT, above every data node's.  With ``cert`` None (a
        traced BAT, a charged refusal or one its scheduler cannot
        certify) that literal poll is what it waits for.  Otherwise the
        BAT parks (:mod:`repro.machine.parking`) until its certificate
        fails after a scheduler call on a ``watch`` shard, one of them
        crashes or recovers, or it is doomed, and polls next at the grid
        point the literal loop would have polled at first after that;
        ``credit`` counts, in the coordinator's terms, the polls skipped,
        before the BAT resumes.
        """
        rank = self._poll_rank(txn.tid)
        if cert is None:
            now = self.env.now
            return self.env.timeout_until(now + self.params.retry_delay,
                                          sort_time=now, sort_rank=rank)
        return self.parking.park(txn.tid, rank, cert, watch, credit)

    def _poll_rank(self, tid: int) -> int:
        return len(self.data_nodes) + 1 + tid

    # -- weight-adjustment routing ---------------------------------------------

    def note_objects(self, txn: TransactionRuntime, objects: float) -> None:
        """Per-object weight-adjustment message for the current step.

        Routed to the CN controlling the executing step's partition —
        the only shard whose WTPG slice carries this work as source
        weight.  If that shard is down the message is dropped (the
        replayed WTPG keeps the conservative declared weight), but the
        transaction's own progress bookkeeping still happens.
        """
        shard = self.shards[self.shard_of(txn.step().partition)]
        scheduler = shard.scheduler
        if scheduler is None:
            txn.note_object_processed(objects)
            return
        scheduler.object_processed(txn, objects)

    def note_objects_batch(self, txn: TransactionRuntime,
                           full_quanta: int) -> None:
        """Coalesced whole-object messages; see :meth:`note_objects`."""
        shard = self.shards[self.shard_of(txn.step().partition)]
        scheduler = shard.scheduler
        if scheduler is None:
            txn.note_objects_batch(full_quanta)
            return
        scheduler.object_processed_batch(txn, full_quanta)

    # -- transaction lifecycle -------------------------------------------------

    def transaction_process(self, txn: TransactionRuntime,
                            ) -> Generator[Event, Any, None]:
        """The full life of one BAT; run as an engine process.

        One iteration per execution attempt: admit, start, execute,
        commit.  A phase that ends the attempt returns its abort cause,
        and the attempt restarts from admission with all its previous
        work wasted (2PL deadlock victims, injected faults, cascades and
        CN crashes).  The paper's own schedulers never abort by choice.
        """
        env = self.env
        tid = txn.tid
        route, sub_specs = self._project(txn.spec)
        sids = sorted(sub_specs)
        self._home[tid] = route[0]
        # The tracer samples whole transactions, so decide once whether
        # this BAT's records are kept and build none of them otherwise.
        traced = self.tracer is not None and self.tracer.wants(tid)
        if traced:
            self._trace(EventType.ARRIVAL, txn)
        restarting = False
        while True:  # one iteration per execution attempt
            subs = yield from self._admit(txn, sids, sub_specs, traced)
            planned_abort = yield from self._start(txn, route[0], traced)
            if restarting:
                self.metrics.record_restart()
            cause = yield from self._execute(txn, route, subs, planned_abort,
                                             traced)
            if cause is None:
                cause = yield from self._commit(txn, sids, subs, traced)
            if cause is None:
                break
            # Excise from every participant shard, then restart.
            successors: Set[int] = set()
            for sid in sids:
                successors.update(self._excise(tid, sid, subs[sid]))
            txn.mark_aborted()
            self._running.discard(tid)
            self._doomed.pop(tid, None)
            for node in self.data_nodes:
                node.cancel(tid, kind=cause)  # reap leftovers
            self.metrics.record_abort(txn, cause=cause, now=env.now)
            if traced:
                # The pre-fault abort cause keeps its legacy trace shape.
                detail = {} if cause == _LEGACY_CAUSE else {"cause": cause}
                self._trace(EventType.ABORTED, txn, step=txn.current_step,
                            wasted_objects=txn.objects_done, **detail)
            self.active_transactions -= 1
            if self.history is not None:
                self._grants.pop(tid, None)
            txn.reset_for_retry()
            if self._cascade and successors:
                for successor in sorted(successors):
                    self.request_abort(successor, "cascade")
            restarting = True
            yield env.timeout(self.params.retry_delay)

        txn.commit_time = env.now
        txn.phase = COMMITTED
        self.active_transactions -= 1
        self._running.discard(tid)
        # A doom that lands during the commit CPU window loses the race
        # (commit wins), but its _doomed entry must not outlive the
        # transaction: it would accumulate forever in cascade-heavy runs.
        self._doomed.pop(tid, None)
        self._home.pop(tid, None)
        if self.history is not None:
            for partition, mode, granted_at in self._grants.pop(tid):
                self.history.record(tid, partition, mode, granted_at,
                                    env.now)
        if traced:
            self._trace(EventType.COMMITTED, txn,
                        response_time=txn.response_time())
        self.metrics.record_commit(txn, env.now)

    def _admit(self, txn: TransactionRuntime, sids: List[int],
               sub_specs: Dict[int, TransactionSpec], traced: bool,
               ) -> Generator[Event, Any, Dict[int, TransactionRuntime]]:
        """Retry admission until every participant shard admits.

        Returns that attempt's sub-runtimes, fresh per attempt so
        shard-local step progress restarts from zero like the global
        runtime's.  Each attempt costs only the admission test; log
        records are appended at decision time, before any CPU yield, so
        a shard crashing mid-window has already made its admission
        durable.  While a participant is down the shards are not asked,
        and the BAT sleeps until one recovers.
        """
        env = self.env
        while True:
            down = [sid for sid in sids if self.shards[sid].crashed]
            if down:
                # Can't even consult the dead shard: reject without
                # touching (or charging) anybody, retry later.
                response = AdmissionResponse(False,
                                             reason=f"CN {down[0]} down")
                cert = None if traced else STALLED
            else:
                cert = None  # the shards' own refusals poll literally
                subs = {sid: TransactionRuntime(sub_specs[sid],
                                                arrival_time=txn.arrival_time)
                        for sid in sids}
                # The per-shard decisions are taken atomically (no yields
                # between them).
                responses = {}
                charges = []  # each shard spends its cost on its own CPU
                for sid in sids:
                    shard = self.shards[sid]
                    responses[sid] = shard.live.admit(subs[sid], env.now)
                    charges.append((shard, responses[sid].cpu_cost))
                    if responses[sid].admitted and shard.log is not None:
                        shard.log.append_admit(subs[sid].spec, env.now)
                    if shard.sleepers:
                        self.parking.touched(sid)
                response = merge_admission_responses(
                    [responses[sid] for sid in sids])
                end = self._charge(charges)
                if end is not None:
                    yield end
                if not response.admitted:
                    # Roll back the shards that did admit.
                    for sid in sids:
                        if responses[sid].admitted:
                            self._excise(txn.tid, sid, subs[sid])
            if response.admitted:
                return subs
            if traced:
                self._trace(EventType.ADMISSION_REJECTED, txn,
                            reason=response.reason)
            txn.reset_for_retry()
            yield self._retry(txn, cert, sids, partial(_add_attempts, txn))

    def _start(self, txn: TransactionRuntime, home: int, traced: bool,
               ) -> Generator[Event, Any, Optional[int]]:
        """Charge the 2PC start coordination (``startuptime``) on the
        home CN and stamp ``start_time``; returns the planned abort step.
        """
        # Admitted on every shard: the schedulers now hold state for this
        # tid, so a cascade doom must be able to land from this instant
        # on, before the startup CPU window, during which a doomed
        # predecessor's abort may already fan out to us.
        self._running.add(txn.tid)
        end = self._charge([(self.shards[home], self.params.startup_time)])
        if end is not None:
            yield end
        txn.start_time = self.env.now
        txn.phase = ACTIVE
        self.active_transactions += 1
        if traced:
            self._trace(EventType.ADMITTED, txn, attempts=txn.attempts + 1)
        if self.history is not None:
            self._grants[txn.tid] = []
        if self.injector is None:
            return None
        return self.injector.plan_abort(txn)

    def _execute(self, txn: TransactionRuntime, route: List[int],
                 subs: Dict[int, TransactionRuntime],
                 planned_abort: Optional[int], traced: bool,
                 ) -> Generator[Event, Any, Optional[str]]:
        """Lock and run every step in order; returns an abort cause or None."""
        while not txn.finished_all_steps:
            cause = self._doom_cause(txn, planned_abort)
            if cause is not None:
                return cause
            sid = route[txn.current_step]
            cause = yield from self._acquire(txn, sid, subs[sid],
                                             planned_abort, traced)
            if cause is not None:
                return cause
            step = txn.step()
            if traced:
                self._trace(EventType.LOCK_GRANTED, txn,
                            step=txn.current_step, partition=step.partition,
                            mode=str(step.mode))
            if self.history is not None:
                self._grants[txn.tid].append(
                    (step.partition, step.mode, self.env.now))
            try:
                yield from self._dispatch(txn, step, traced)
            except FaultError as fault:
                return fault.kind
            if traced:
                self._trace(EventType.STEP_COMPLETED, txn,
                            step=txn.current_step)
            subs[sid].advance_step()
            txn.advance_step()
        # An injection point equal to the step count means "between the
        # last step and the commit"; a doom arriving during the final
        # step lands here too.
        if planned_abort is not None and planned_abort >= len(txn.spec.steps):
            return "injected"
        return self._doomed.get(txn.tid)

    def _acquire(self, txn: TransactionRuntime, sid: int,
                 sub: TransactionRuntime, planned_abort: Optional[int],
                 traced: bool) -> Generator[Event, Any, Optional[str]]:
        """Ask the current step's shard for its lock until granted.

        Returns None once granted, else the abort cause.  BLOCK/DELAY
        responses, and a down shard, are retried after the retry delay;
        a refusal that cost nothing sleeps until its certificate (or the
        shard's recovery) says the answer may differ.
        """
        env = self.env
        shard = self.shards[sid]
        while True:
            if shard.scheduler is None:
                # The owning CN is down: stall until it replays its log
                # (blocking, like the 2PC commit).
                if traced:
                    self._trace(EventType.LOCK_DELAYED, txn,
                                step=txn.current_step,
                                reason=f"CN {sid} down")
                cert = None if traced else STALLED
            else:
                response = shard.scheduler.request_lock(sub, env.now)
                if shard.log is not None and response.granted:
                    # Log the grant (and the precedence edges it
                    # resolved) at decision time, before the CPU yield.
                    resolved = getattr(shard.scheduler, "last_resolved",
                                       ())
                    shard.log.append_grant(txn.tid, sub.current_step,
                                           env.now, resolved)
                if shard.sleepers:
                    self.parking.touched(sid)
                end = self._charge([(shard, response.cpu_cost)])
                if end is not None:
                    yield end
                if response.granted:  # repro-lint: disable=RL009 -- the grant decision is made atomically inside request_lock() and is binding; the CPU yield models the cost of computing it, not a revalidation window
                    return None
                if response.decision is Decision.ABORT:
                    return _LEGACY_CAUSE
                if traced:
                    kind = (EventType.LOCK_BLOCKED
                            if response.decision is Decision.BLOCK
                            else EventType.LOCK_DELAYED)
                    self._trace(kind, txn, step=txn.current_step,
                                reason=response.reason)
                # A refusal that cost nothing took no yield since its
                # decision, so it is certified as of that instant.
                cert = (None if traced or end is not None
                        else shard.scheduler.certify(sub, response))
            record_retries = self.metrics.record_lock_retry
            record_retries()
            yield self._retry(txn, cert, (sid,), record_retries)
            cause = self._doom_cause(txn, planned_abort)
            if cause is not None:
                return cause

    def _dispatch(self, txn: TransactionRuntime, step: Step,
                  traced: bool) -> Generator[Event, Any, None]:
        """Ship the granted step to the data node(s) holding its partition."""
        partition = self.catalog.partition(step.partition)
        if partition.declustered and len(self.data_nodes) > 1:
            # Intra-transaction parallelism: the bulk operation runs on
            # every node at once, in near-equal shares that sum to
            # exactly step.cost.
            shares = declustered_shares(step.cost, len(self.data_nodes))
            if traced:
                self._trace(EventType.STEP_DISPATCHED, txn,
                            step=txn.current_step, node=-1,
                            objects=step.cost)
            yield self.env.all_of([node.submit(txn, share) for node, share
                                   in zip(self.data_nodes, shares)])
        else:
            node = self.data_nodes[partition.node]
            if traced:
                self._trace(EventType.STEP_DISPATCHED, txn,
                            step=txn.current_step, node=node.node_id,
                            objects=step.cost)
            yield node.submit(txn, step.cost)

    def _commit(self, txn: TransactionRuntime, sids: List[int],
                subs: Dict[int, TransactionRuntime], traced: bool,
                ) -> Generator[Event, Any, Optional[str]]:
        """Commit on every participant; returns a doom cause or None.

        A cross-shard BAT runs two-phase commit among its participant
        CNs (a prepare round and a commit round, each costing
        ``committime`` on every participant's CPU in parallel); a
        single-shard BAT commits like the centralized machine.  2PC
        blocks on a dead participant: the coordinator sleeps until a
        participant recovers and retries the rounds, unless the crash
        doomed this BAT, which wins.
        """
        env = self.env
        participants = [(self.shards[sid], self.params.commit_time)
                        for sid in sids]
        cross = len(sids) > 1
        while True:
            cause = self._doomed.get(txn.tid)
            if cause is not None:
                return cause
            if any(self.shards[sid].crashed for sid in sids):
                yield self._retry(txn, None if traced else STALLED, sids,
                                  no_credit)
                continue
            for _ in range(2 if cross else 1):  # 2PC: prepare, commit
                end = self._charge(participants)
                if end is not None:
                    yield end
                if cross:
                    self.metrics.record_2pc_round()
            if any(self.shards[sid].crashed for sid in sids):
                continue  # a participant died mid-commit: block
            # Apply + log the commit atomically (no yields): a crash can
            # never observe a half-committed BAT.
            for sid in sids:
                shard = self.shards[sid]
                shard.live.commit(subs[sid], env.now)
                if shard.log is not None:
                    shard.log.append_commit(txn.tid, env.now)
                if shard.sleepers:
                    self.parking.touched(sid)
            return None

    def _excise(self, tid: int, sid: int,
                sub: TransactionRuntime) -> Tuple[int, ...]:
        """Abort ``tid`` on shard ``sid``; returns its WTPG successors there.

        A dead shard can't be consulted, but its durable log still takes
        the ABORT record, so replay excises the victim there too
        (modelling simplification, see the module doc).  The one caller
        of every scheduler's ``abort_transaction``, so the one place that
        ends ``sub``'s attempt as aborted.
        """
        sub.mark_aborted()
        shard = self.shards[sid]
        successors: Tuple[int, ...] = ()
        if shard.scheduler is not None:
            successors = shard.scheduler.abort_transaction(sub, self.env.now)
            if shard.sleepers:
                self.parking.touched(sid)
        if shard.log is not None:
            shard.log.append_abort(tid, self.env.now)
        return successors

    def _trace(self, kind: EventType, txn: TransactionRuntime,
               **detail: object) -> None:
        """Record one event of a BAT the tracer samples (see the
        ``traced`` flag of :meth:`transaction_process`)."""
        assert self.tracer is not None
        self.tracer.emit(self.env.now, kind, txn.tid, **detail)
