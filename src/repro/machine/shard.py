"""The control plane: admission, locking, dispatch, 2PC and recovery.

The paper's machine has one control node (CN) that owns the lock table
and WTPG and coordinates every BAT's lifecycle as the two-phase-commit
coordinator.  Here that CN is the one-shard case of a *control plane* of
:class:`ControlShard` s.  Each shard owns the lock table + WTPG slice for
a partition range — partition ``p`` is controlled by CN ``p mod
num_control_nodes``, the same modulo placement the data layer uses for
partitions over data nodes — plus its own FIFO CPU and, when recovery
can need one, an append-only
:class:`~repro.machine.control_log.DependencyLog`.

Every BAT runs as one engine process,
:meth:`ControlPlane.transaction_process`:

* **admission** costs what the scheduler reports; a rejected BAT
  (ASL preclaim failure, chain-form or K-conflict violation) is
  re-submitted after the fixed retry delay, and the 2PC start
  coordination (``startuptime``) is paid once, on its home CN, when it
  is admitted.  With several shards, admission runs independently on
  every participant shard against a shard-local *sub-declaration* (the
  subsequence of steps on that shard's partitions); the global verdict
  is the conjunction
  (:func:`~repro.core.schedulers.base.merge_admission_responses`), each
  shard's admission cost is spent on its *own* CPU in parallel, and a
  globally rejected BAT rolls its local admissions back;
* **lock requests** route to the shard owning the step's partition and
  are costed on that shard's CPU (``ddtime`` / ``chaintime`` /
  ``kwtpgtime``); BLOCK/DELAY responses are re-submitted after the
  retry delay; a granted step ships the BAT to the data node holding
  the partition, whose per-object weight-adjustment messages go to the
  same shard;
* **commitment** of a cross-shard BAT is a two-phase commit among its
  participant CNs: a prepare round and a commit round, each costing
  ``committime`` on every participant's CPU in parallel.  A single-shard
  BAT commits like the paper's centralized machine: one ``committime``
  on its home CN, no 2PC rounds.

A one-shard plane *is* the paper's centralized CN: its scheduler sees
the global runtime (no projection), and its admission cost is charged
inline on the one CPU.  Each CN's CPU is a single FIFO server, so heavy
control traffic queues — the paper deliberately overstates control cost
relative to ``ObjTime`` to show the schedulers survive it.

Aborts — deadlock victims (2PL/WAIT-DIE) and injected faults
(:mod:`repro.faults`) — funnel into one restart path: the schedulers
release the victim's locks and WTPG node, the metrics record the abort
by cause, and the BAT is re-submitted from admission under the
configured retry policy.  When the fault plan enables cascades, the
victim's direct precedence successors are doomed too
(:meth:`ControlPlane.request_abort`), each of which repeats the same
path when its process next runs.

Crash/recovery (:class:`~repro.faults.plan.ControlCrash`): a crashed
shard loses its volatile scheduler state.  BATs *homed* on it (home =
shard of the first step) are doomed through the ordinary restart path;
surviving BATs that merely hold locks there stall — lock requests and
commits retry until the shard replays its dependency log into a fresh
scheduler (:meth:`ControlPlane.recover_shard`), which is proved
consistent before it serves again.  Two modelling simplifications,
documented in ``docs/control_plane.md``: the dependency log is durable
and stays reachable (surviving coordinators append their ABORTs to a
down shard's log), and weight decrements lost with the crash leave the
replayed WTPG at conservative declared weights.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, List, Optional, Set,
                    Tuple)

from repro.config import SimulationParameters
from repro.core.history import History
from repro.core.schedulers.base import (AdmissionResponse, Decision,
                                        Scheduler,
                                        merge_admission_responses)
from repro.core.transaction import (LockMode, Step, TransactionRuntime,
                                    TransactionSpec)
from repro.engine import Environment, Event, Resource
from repro.errors import FaultError, SchedulerError
from repro.faults.injector import FaultInjector
from repro.faults.plan import RetryPolicy
from repro.machine.control_log import DependencyLog
from repro.machine.data_node import DataNode
from repro.machine.partition import Catalog
from repro.machine.trace import EventType, Tracer
from repro.metrics.collector import MetricsCollector

# The abort cause of the pre-fault machine; traces keep their legacy
# shape for it (no explicit cause key) so fault-free runs stay
# bit-identical with historical traces.
_LEGACY_CAUSE = "deadlock"


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
    """One control node of the plane: CPU, scheduler, optional log."""

    def __init__(self, shard_id: int, env: Environment,
                 scheduler: Scheduler, logged: bool) -> None:
        self.shard_id = shard_id
        self.env = env
        self.scheduler: Optional[Scheduler] = scheduler
        self.log = DependencyLog(shard_id) if logged else None
        self.cpu = Resource(env, capacity=1)
        self.crashed = False
        self.crashed_at = 0.0

    @property
    def live(self) -> Scheduler:
        """The shard's scheduler; raises if the shard is down."""
        if self.scheduler is None:
            raise SchedulerError(f"CN {self.shard_id} is down")
        return self.scheduler

    def cpu_work(self, cost: float) -> Generator[Event, Any, None]:
        """Occupy this shard's CPU for ``cost`` clocks (FIFO queueing)."""
        if cost <= 0:
            return
        request = self.cpu.request()
        yield request
        try:
            yield self.env.timeout(cost)
        finally:
            self.cpu.release(request)

    def crash(self, now: float) -> None:
        """Lose the volatile scheduler state; only the log survives."""
        self.crashed = True
        self.crashed_at = now
        self.scheduler = None

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` during which this CN's CPU was busy."""
        if elapsed <= 0:
            return 0.0
        return self.cpu.busy_time() / elapsed


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
        # The one shard of the paper's centralized CN, or None.
        self._only = self.shards[0] if len(self.shards) == 1 else None
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
        if plan is not None and plan.retry is not None:
            self.retry_policy = plan.retry
        else:
            self.retry_policy = RetryPolicy(
                kind=params.retry_policy,
                cap=params.retry_backoff_cap or None)

    # -- shard map ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, partition: int) -> int:
        """The CN controlling ``partition`` (modulo placement)."""
        return partition % self.num_shards

    def utilizations(self, elapsed: float) -> List[float]:
        """Per-CN CPU utilization over ``elapsed`` clocks."""
        return [shard.utilization(elapsed) for shard in self.shards]

    def _project(self, spec: TransactionSpec,
                 ) -> Tuple[List[int], Dict[int, TransactionSpec]]:
        """Split a declaration into per-shard sub-declarations.

        Returns ``(route, sub_specs)``: ``route[i]`` is the shard owning
        global step ``i``, and ``sub_specs[sid]`` is the order-preserving
        subsequence of steps on shard ``sid``'s partitions.  Shard-local
        step indices are exactly each sub-runtime's own ``current_step``,
        advanced in lockstep with the global one.  Only multi-shard
        planes project; a one-shard plane's scheduler sees the global
        declaration itself.
        """
        route: List[int] = []
        steps_by_shard: Dict[int, List[Step]] = {}
        for step in spec.steps:
            sid = self.shard_of(step.partition)
            route.append(sid)
            steps_by_shard.setdefault(sid, []).append(step)
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
        return doomed

    def recover_shard(self, sid: int) -> int:
        """Replay CN ``sid``'s dependency log into a fresh scheduler.

        The replayed scheduler is proved consistent inside
        :meth:`~repro.machine.control_log.DependencyLog.replay`
        (``cache_violations()`` empty plus the invariant suite) before
        the shard serves again.  Returns the number of records replayed.
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
        return replayed

    def _doom_cause(self, txn: TransactionRuntime,
                    planned_abort: Optional[int]) -> Optional[str]:
        cause = self._doomed.get(txn.tid)
        if cause is not None:
            return cause
        if planned_abort is not None and txn.current_step == planned_abort:
            return "injected"
        return None

    def _retry_delay(self, txn: TransactionRuntime) -> float:
        return self.retry_policy.delay_for(txn.attempts,
                                           self.params.retry_delay)

    # -- weight-adjustment routing ---------------------------------------------

    def note_objects(self, txn: TransactionRuntime, objects: float) -> None:
        """Per-object weight-adjustment message for the current step.

        Routed to the CN controlling the executing step's partition —
        the only shard whose WTPG slice carries this work as source
        weight.  If that shard is down the message is dropped (the
        replayed WTPG keeps the conservative declared weight), but the
        transaction's own progress bookkeeping still happens.
        """
        shard = self._only
        if shard is None:
            shard = self.shards[self.shard_of(txn.step().partition)]
        scheduler = shard.scheduler
        if scheduler is None:
            txn.note_object_processed(objects)
            return
        scheduler.object_processed(txn, objects)

    def note_objects_batch(self, txn: TransactionRuntime,
                           full_quanta: int) -> None:
        """Coalesced whole-object messages; see :meth:`note_objects`."""
        shard = self._only
        if shard is None:
            shard = self.shards[self.shard_of(txn.step().partition)]
        scheduler = shard.scheduler
        if scheduler is None:
            txn.note_objects_batch(full_quanta)
            return
        scheduler.object_processed_batch(txn, full_quanta)

    # -- transaction lifecycle -------------------------------------------------

    def _participants(self, txn: TransactionRuntime,
                      sub_specs: Optional[Dict[int, TransactionSpec]],
                      ) -> Dict[int, TransactionRuntime]:
        """Each participant shard's view of ``txn`` for one attempt.

        Fresh per-shard sub-runtimes every attempt, so shard-local step
        progress restarts from zero exactly like the global runtime; a
        one-shard plane (``sub_specs`` None) hands its scheduler the
        global runtime itself.
        """
        if sub_specs is None:
            return {0: txn}
        return {sid: TransactionRuntime(sub_specs[sid],
                                        arrival_time=txn.arrival_time)
                for sid in sorted(sub_specs)}

    def transaction_process(self, txn: TransactionRuntime,
                            ) -> Generator[Event, Any, None]:
        """The full life of one BAT; run as an engine process.

        The outer loop exists for restarts: 2PL deadlock victims and
        fault-aborted transactions re-enter from admission with all
        their previous work wasted.  The paper's own schedulers never
        abort by choice, but injected faults can abort any of them.
        Every scheduler consultation is routed to the owning shard, and
        cross-shard commitment runs as 2PC among the participants.
        """
        env = self.env
        params = self.params
        tid = txn.tid
        only = self._only
        route: Optional[List[int]] = None
        sub_specs: Optional[Dict[int, TransactionSpec]] = None
        if only is None:
            route, sub_specs = self._project(txn.spec)
            sids = sorted(sub_specs)
            home = route[0]
        else:
            sids = [0]
            home = 0
        self._home[tid] = home
        self._trace(EventType.ARRIVAL, txn)
        restarting = False

        while True:  # one iteration per execution attempt
            sub_rts = self._participants(txn, sub_specs)

            # Admission: every participant shard must admit.  Each
            # attempt costs only the admission test; startuptime (the
            # 2PC start coordination) is spent once when the BAT starts.
            # Log records are appended at decision time, before any CPU
            # yield, so a shard crashing mid-window has already made its
            # admission durable.
            while True:
                down = [sid for sid in sids if self.shards[sid].crashed]
                if down:
                    # Can't even consult the dead shard — reject without
                    # touching (or charging) anybody, retry later.
                    response = AdmissionResponse(
                        False, reason=f"CN {down[0]} down")
                elif only is not None:
                    # The centralized CN: one decision, charged inline
                    # on its CPU.
                    response = only.live.admit(txn, env.now)
                    if response.admitted and only.log is not None:
                        only.log.append_admit(txn.spec, env.now)
                    yield from only.cpu_work(response.cpu_cost)
                else:
                    # The per-shard decisions are taken atomically (no
                    # yields between them); the costs are then spent on
                    # the shards' CPUs in parallel.
                    responses = {}
                    for sid in sids:
                        shard = self.shards[sid]
                        responses[sid] = shard.live.admit(sub_rts[sid],
                                                          env.now)
                        if responses[sid].admitted and shard.log is not None:
                            shard.log.append_admit(sub_rts[sid].spec,
                                                   env.now)
                    response = merge_admission_responses(
                        [responses[sid] for sid in sids])
                    costed = [
                        env.process(self.shards[sid].cpu_work(
                            responses[sid].cpu_cost))
                        for sid in sids if responses[sid].cpu_cost > 0]
                    if costed:
                        yield env.all_of(costed)
                    if not response.admitted:
                        # Roll back the shards that did admit; their logs
                        # get the matching ABORT so replay excises them.
                        for sid in sids:
                            if not responses[sid].admitted:
                                continue
                            shard = self.shards[sid]
                            if shard.scheduler is not None:
                                shard.scheduler.abort_transaction(
                                    sub_rts[sid], env.now)
                            if shard.log is not None:
                                shard.log.append_abort(tid, env.now)
                if response.admitted:
                    break
                self._trace(EventType.ADMISSION_REJECTED, txn,
                            reason=response.reason)
                txn.reset_for_retry()
                yield env.timeout(params.retry_delay)
                sub_rts = self._participants(txn, sub_specs)
            # Admitted on every shard: the schedulers now hold state for
            # this tid, so a cascade doom must be able to land from this
            # instant on — before the startup CPU window below, during
            # which a doomed predecessor's abort may already fan out to us.
            self._running.add(tid)
            yield from self.shards[home].cpu_work(params.startup_time)
            txn.start_time = env.now
            self.active_transactions += 1
            if restarting:
                restarting = False
                self.metrics.record_restart()
            self._trace(EventType.ADMITTED, txn, attempts=txn.attempts + 1)
            if self.history is not None:
                self._grants[tid] = []
            planned_abort = (self.injector.plan_abort(txn)
                             if self.injector is not None else None)

            aborted = False
            abort_cause = _LEGACY_CAUSE
            while not txn.finished_all_steps:
                cause = self._doom_cause(txn, planned_abort)
                if cause is not None:
                    aborted, abort_cause = True, cause
                    break
                sid = route[txn.current_step] if route is not None else 0
                sub = sub_rts[sid]
                granted = False
                while True:
                    shard = self.shards[sid]
                    if shard.crashed or shard.scheduler is None:
                        # The owning CN is down: stall until it replays
                        # its log (blocking, like the 2PC below).
                        self._trace(EventType.LOCK_DELAYED, txn,
                                    step=txn.current_step,
                                    reason=f"CN {sid} down")
                        self.metrics.record_lock_retry()
                        yield env.timeout(params.retry_delay)
                        cause = self._doom_cause(txn, planned_abort)
                        if cause is not None:
                            break
                        continue
                    response = shard.scheduler.request_lock(sub, env.now)
                    if shard.log is not None and response.granted:
                        # Log the grant (and the precedence edges it
                        # resolved) at decision time, before the CPU
                        # yield below.
                        resolved = getattr(shard.scheduler,
                                           "last_resolved", ())
                        shard.log.append_grant(tid, sub.current_step,
                                               env.now, resolved)
                    yield from shard.cpu_work(response.cpu_cost)
                    if response.granted:  # repro-lint: disable=RL009 -- the grant decision is made atomically inside request_lock() and is binding; the CPU yield models the cost of computing it, not a revalidation window
                        granted = True
                        break
                    if response.decision is Decision.ABORT:
                        break
                    kind = (EventType.LOCK_BLOCKED
                            if response.decision is Decision.BLOCK
                            else EventType.LOCK_DELAYED)
                    self._trace(kind, txn, step=txn.current_step,
                                reason=response.reason)
                    self.metrics.record_lock_retry()
                    yield env.timeout(params.retry_delay)
                    cause = self._doom_cause(txn, planned_abort)
                    if cause is not None:
                        break
                if not granted:
                    aborted = True
                    if cause is not None:
                        abort_cause = cause
                    break
                step = txn.step()
                self._trace(EventType.LOCK_GRANTED, txn,
                            step=txn.current_step,
                            partition=step.partition, mode=str(step.mode))
                if self.history is not None:
                    self._grants[tid].append(
                        (step.partition, step.mode, env.now))
                partition = self.catalog.partition(step.partition)
                try:
                    if partition.declustered and len(self.data_nodes) > 1:
                        # Intra-transaction parallelism: the bulk operation
                        # runs on every node at once, in near-equal shares
                        # that sum to exactly step.cost.
                        shares = declustered_shares(step.cost,
                                                    len(self.data_nodes))
                        self._trace(EventType.STEP_DISPATCHED, txn,
                                    step=txn.current_step, node=-1,
                                    objects=step.cost)
                        done = [node.submit(txn, share)
                                for node, share in zip(self.data_nodes,
                                                       shares)]
                        yield env.all_of(done)
                    else:
                        node = self.data_nodes[partition.node]
                        self._trace(EventType.STEP_DISPATCHED, txn,
                                    step=txn.current_step,
                                    node=node.node_id, objects=step.cost)
                        yield node.submit(txn, step.cost)
                except FaultError as fault:
                    aborted, abort_cause = True, fault.kind
                    break
                self._trace(EventType.STEP_COMPLETED, txn,
                            step=txn.current_step)
                if sub is not txn:
                    sub.advance_step()
                txn.advance_step()

            if not aborted:
                # An injection point equal to the step count means
                # "between the last step and the commit"; a doom arriving
                # during the final step lands here too.
                if (planned_abort is not None
                        and planned_abort >= len(txn.spec.steps)):
                    aborted, abort_cause = True, "injected"
                else:
                    cause = self._doomed.get(tid)
                    if cause is not None:
                        aborted, abort_cause = True, cause

            if not aborted:
                # Commitment.  A cross-shard BAT runs two-phase commit
                # among its participant CNs (prepare round + commit
                # round, each costing committime on every participant's
                # CPU in parallel); a single-shard BAT commits like the
                # centralized machine.  2PC blocks on a dead participant:
                # the coordinator waits for recovery and retries the
                # rounds — unless the crash doomed this BAT, which wins.
                while True:
                    cause = self._doomed.get(tid)
                    if cause is not None:
                        aborted, abort_cause = True, cause
                        break
                    if any(self.shards[sid].crashed for sid in sids):
                        yield env.timeout(params.retry_delay)
                        continue
                    if len(sids) > 1:
                        for _ in range(2):  # prepare, then commit
                            rounds = [
                                env.process(self.shards[sid].cpu_work(
                                    params.commit_time))
                                for sid in sids]
                            yield env.all_of(rounds)
                            self.metrics.record_2pc_round()
                        if any(self.shards[sid].crashed for sid in sids):
                            continue  # participant died mid-2PC: block
                    else:
                        yield from self.shards[home].cpu_work(
                            params.commit_time)
                        if self.shards[home].crashed:
                            continue
                    # Apply + log the commit atomically (no yields): a
                    # crash can never observe a half-committed BAT.
                    for sid in sids:
                        shard = self.shards[sid]
                        shard.live.commit(sub_rts[sid], env.now)
                        if shard.log is not None:
                            shard.log.append_commit(tid, env.now)
                    break

            if aborted:
                # Excise from every participant shard.  A dead shard
                # can't be consulted, but its durable log still takes
                # the ABORT record, so replay excises the victim there
                # too (modelling simplification, see the module doc).
                successors: Set[int] = set()
                for sid in sids:
                    shard = self.shards[sid]
                    if shard.scheduler is not None:
                        successors.update(shard.scheduler.abort_transaction(
                            sub_rts[sid], env.now))
                    if shard.log is not None:
                        shard.log.append_abort(tid, env.now)
                self._running.discard(tid)
                self._doomed.pop(tid, None)
                for node in self.data_nodes:
                    node.cancel(tid, kind=abort_cause)  # reap leftovers
                self.metrics.record_abort(txn, cause=abort_cause,
                                          now=env.now)
                if abort_cause == _LEGACY_CAUSE:
                    self._trace(EventType.ABORTED, txn,
                                step=txn.current_step,
                                wasted_objects=txn.objects_done)
                else:
                    self._trace(EventType.ABORTED, txn,
                                step=txn.current_step,
                                wasted_objects=txn.objects_done,
                                cause=abort_cause)
                self.active_transactions -= 1
                if self.history is not None:
                    self._grants.pop(tid, None)
                txn.reset_for_retry()  # repro-lint: disable=RL013 -- abort_transaction above aborted every participant's runtime (the global one on a one-shard plane, the per-shard sub-runtimes otherwise); the global runtime is re-armed exactly once per aborted attempt
                if self._cascade and successors:
                    for successor in sorted(successors):
                        self.request_abort(successor, "cascade")
                restarting = True
                yield env.timeout(self._retry_delay(txn))
                continue

            txn.commit_time = env.now
            self.active_transactions -= 1
            self._running.discard(tid)
            # A doom that lands during the commit CPU window loses the
            # race (commit wins), but its _doomed entry must not outlive
            # the transaction: it would accumulate forever in
            # cascade-heavy faulty runs.
            self._doomed.pop(tid, None)
            self._home.pop(tid, None)
            if self.history is not None:
                for partition, mode, granted_at in self._grants.pop(tid):
                    self.history.record(tid, partition, mode,
                                        granted_at, env.now)
            self._trace(EventType.COMMITTED, txn,
                        response_time=txn.response_time())  # repro-lint: disable=RL013 -- commit() was applied to every participant's runtime (the global one on a one-shard plane, the per-shard sub-runtimes otherwise); this line runs only after every participant shard committed
            self.metrics.record_commit(txn, env.now)
            return

    def _trace(self, kind: EventType, txn: TransactionRuntime,
               **detail: object) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.env.now, kind, txn.tid, **detail)
