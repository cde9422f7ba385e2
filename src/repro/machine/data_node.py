"""Data-processing node (DN) model.

Section 4.1: a DN executes resident transactions in round-robin, one
*object* at a time — when a transaction finishes the bulk processing of
one object the DN switches to the next waiting transaction, and the
finished transaction's weight-adjustment message goes to the control
node.  ``ObjTime`` is the per-object service time; a fractional trailing
quantum (e.g. the 0.2-object write of Pattern1) takes proportionally
less.

The simple single-server model is the paper's own justification: a bulk
operation runs as a processor-disk pipeline and is I/O-bound, so one
object at a time per node captures the resource contention that matters.

The literal model yields one engine timeout per object quantum; at
10^5-10^6 bulk transactions that is tens of millions of Python-level
heap events.  The server loop instead exploits that, between scheduler
events, the round-robin interleaving is fully determined: quanta whose
end lies strictly before the next pending engine event are *pre-played*
arithmetically and only one timeout per window is yielded (see the
equivalence argument above :meth:`DataNode._run`).  Statistics, message
counts, weight adjustments and all event orderings are bit-identical to
the literal loop, which lives on as a test oracle
(``tests/oracles/data_node.py``); ``tests/machine/test_node_equivalence.py``
proves the identity under every scheduler and fault plan.

Fault support (:mod:`repro.faults`): a node can :meth:`crash` — every
resident step fails with :class:`~repro.errors.FaultError` and new
submissions are refused until :meth:`recover` — and individual
transactions can be :meth:`cancel`-led (cascade aborts).  A crash or
cancellation takes effect at the current quantum boundary: the in-flight
object's I/O still occupies the device, but its result is discarded (no
weight-adjustment message, no progress).  I/O slowdown windows stack
multiplicatively via :meth:`apply_slowdown`, which returns a
:class:`SlowdownToken` handle that :meth:`clear_slowdown` takes back —
two numerically equal windows from different fault-plan entries cannot
remove each other.  With no active factors the service-time arithmetic
is bit-identical to the fault-free model.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.core.transaction import TransactionRuntime
from repro.engine import Environment, Event
from repro.engine.core import register_hot_class
from repro.errors import FaultError

# Tolerance when deciding a step's remaining object count is exhausted.
_EPSILON = 1e-9

# Cap on the mirror-replay length in _completion_bound.  Replays cut off
# here return the boundary reached so far — still a sound (just less
# deep) lower bound on the node's first completion.
_BOUND_CAP = 4096

ObjectCallback = Callable[[TransactionRuntime, float], None]
BatchCallback = Callable[[TransactionRuntime, int], None]

@register_hot_class
class _WorkItem:
    """One step of one transaction being bulk-processed at this node."""

    __slots__ = ("txn", "remaining", "done", "cancelled")

    def __init__(self, txn: TransactionRuntime, objects: float,
                 done: Event) -> None:
        self.txn = txn
        self.remaining = objects
        self.done = done
        self.cancelled = False


@register_hot_class
class SlowdownToken:
    """Handle for one active I/O slowdown window on one node."""

    __slots__ = ("factor", "_active")

    def __init__(self, factor: float) -> None:
        self.factor = factor
        self._active = True


class DataNode:
    """One data-processing node: round-robin object quanta."""

    def __init__(self, env: Environment, node_id: int, obj_time: float,
                 on_objects: Optional[ObjectCallback] = None,
                 on_objects_batch: Optional[BatchCallback] = None) -> None:
        if obj_time <= 0:
            raise ValueError(f"obj_time must be positive, got {obj_time}")
        self.env = env
        self.node_id = node_id
        # Coerced so the integral-exactness fast paths can use
        # float.is_integer (callers may pass an int).
        self.obj_time = float(obj_time)
        self.on_objects = on_objects or (lambda txn, n: None)
        # The coalesced form of ``k`` whole-object callbacks.  The
        # fallback loop is always bit-identical; the cluster wires this
        # to Scheduler.object_processed_batch, which coalesces exactly.
        self.on_objects_batch = on_objects_batch or self._loop_on_objects
        self.busy_time = 0.0
        self.objects_processed = 0.0
        self.messages_sent = 0
        self.crashed = False
        self._queue: Deque[_WorkItem] = deque()
        self._current: Optional[_WorkItem] = None
        self._wakeup: Optional[Event] = None
        self._recovered: Optional[Event] = None
        self._slow_factors: List[SlowdownToken] = []
        self._process = env.process(self._run())

    def _loop_on_objects(self, txn: TransactionRuntime,
                         full_quanta: int) -> None:
        for _ in range(full_quanta):
            self.on_objects(txn, 1.0)

    @property
    def resident_transactions(self) -> int:
        """Transactions currently multiplexed on this node."""
        return len(self._queue) + (1 if self._current is not None else 0)

    def submit(self, txn: TransactionRuntime, objects: float) -> Event:
        """Enqueue a step of ``objects`` bulk work; event fires when done."""
        done = self.env.event()
        if self.crashed:
            done.fail(FaultError(
                f"node {self.node_id} is down", kind="crash"))
            return done
        if objects <= _EPSILON:
            # Degenerate step (e.g. an erroneous declaration clipped to 0
            # actual work): complete immediately.
            done.succeed()
            return done
        self._queue.append(_WorkItem(txn, objects, done))
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return done

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent bulk-processing."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed

    # -- faults ----------------------------------------------------------------

    def crash(self) -> int:
        """Fail every resident step; refuse work until :meth:`recover`.

        Returns the number of steps actually killed — steps whose
        ``done`` event already triggered (completion or a racing
        cancellation in the same instant) are not counted.  The
        in-flight quantum (if any) still finishes occupying the device,
        but its result is discarded.
        """
        self.crashed = True
        victims = list(self._queue)
        self._queue.clear()
        if self._current is not None and not self._current.cancelled:
            self._current.cancelled = True
            victims.append(self._current)
        killed = 0
        for item in victims:
            if not item.done.triggered:
                item.done.fail(FaultError(
                    f"node {self.node_id} crashed under "
                    f"T{item.txn.tid}", kind="crash"))
                killed += 1
        # Wake the server loop so it parks in the crashed state.
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return killed

    def recover(self) -> None:
        """Bring a crashed node back into service (empty queue)."""
        self.crashed = False
        if self._recovered is not None and not self._recovered.triggered:
            self._recovered.succeed()

    def cancel(self, tid: int, kind: str = "injected") -> int:
        """Fail transaction ``tid``'s resident steps (cascade abort).

        Returns the number of steps actually killed (steps whose
        ``done`` already triggered are skipped and not counted); 0 when
        the transaction has nothing resident here.
        """
        victims = [item for item in self._queue if item.txn.tid == tid]
        if victims:
            self._queue = deque(item for item in self._queue
                                if item.txn.tid != tid)
        current = self._current
        if (current is not None and current.txn.tid == tid
                and not current.cancelled):
            current.cancelled = True
            victims.append(current)
        killed = 0
        for item in victims:
            if not item.done.triggered:
                item.done.fail(FaultError(
                    f"T{tid} cancelled at node {self.node_id}", kind=kind))
                killed += 1
        return killed

    def apply_slowdown(self, factor: float) -> SlowdownToken:
        """Stack an I/O slowdown factor (composes multiplicatively).

        Returns a token that :meth:`clear_slowdown` takes back, so two
        numerically equal windows stay distinguishable.
        """
        if factor <= 0:
            raise ValueError(f"slowdown factor must be positive: {factor}")
        token = SlowdownToken(factor)
        self._slow_factors.append(token)
        return token

    def clear_slowdown(self, token: SlowdownToken) -> None:
        """Remove one previously applied slowdown window by its token."""
        if not token._active or token not in self._slow_factors:
            raise ValueError("slowdown token is not active on this node")
        token._active = False
        self._slow_factors.remove(token)

    def _service_time(self, quantum: float) -> float:
        service = quantum * self.obj_time
        for token in self._slow_factors:
            service *= token.factor
        return service

    # -- the server loop ------------------------------------------------------
    #
    # Equivalence argument (each decision point at time t0, with
    # horizon = env.affecting_horizon(): the earliest pending
    # *non-inert* event, the smallest ``affect`` bound of a pending
    # inert event, or the active run(until=) cutoff, whichever comes
    # first — the cutoff is an observation instant too, since the run
    # stops there and counters are read):
    #
    # * Quanta whose end falls *strictly before* the horizon and that do
    #   not complete their item are pre-played: nothing that could reach
    #   this node fires inside that span, so accounting them early is
    #   unobservable; the boundary times are accumulated with the
    #   identical float additions the literal per-quantum timeouts would have
    #   produced.
    # * The first quantum that completes an item or whose end reaches
    #   the horizon is *yielded* as one timeout at its absolute end time
    #   (``timeout_until`` — ``t + (e - t)`` is not bit-exact).
    #   Completions must be yielded because ``done.succeed()`` wakes the
    #   control node; horizon-crossing quanta must be yielded because a
    #   foreign event may cancel/crash mid-quantum, which the resume
    #   handles exactly as the literal loop does.
    # * A yielded *non-completing* quantum is declared inert, carrying
    #   an ``affect`` bound from :meth:`_completion_bound`: a mirror
    #   replay (same float ops the real loop will execute) of this
    #   node's round-robin up to its first step completion, under the
    #   conditions holding at yield time.  Soundness: the bound is valid
    #   as long as conditions hold, and everything that changes them —
    #   a submission, a cancel, a crash, a slowdown edge — originates
    #   from a *non-inert* event, which caps every other actor's horizon
    #   by itself.  So another node pre-playing up to min(affect bounds,
    #   non-inert horizon) can never run past a completion this node
    #   actually produces.  Firing inert events do perturb one thing
    #   inside a foreign pre-play window: the interleaving of per-object
    #   weight-adjustment callbacks between nodes.  That reordering is
    #   value-exact, because every pre-played/inert quantum is a *whole*
    #   object — the callbacks subtract exactly-representable integers
    #   from positive doubles (see note_objects_batch), and any
    #   interleaving of such exact clamped subtractions on the same or
    #   independent accumulators yields bit-identical final values.  No
    #   control decision can observe an intermediate ordering: decision
    #   points live on non-inert events, outside every window.
    # * Same-time tie order is *loop-invariant by construction*: both
    #   loops order their quantum events by (when, sort_time, sort_rank)
    #   where sort_time is the quantum's start boundary and sort_rank
    #   the node id.  All three are pure arithmetic — identical float
    #   chains in both loops — and a node has at most one pending event,
    #   so a comparison involving a node event never falls through to
    #   the engine's schedule-order counter (the one quantity that *does*
    #   differ between the loops: a pre-played window draws its yielded event
    #   at the window start, the literal loop at the quantum start).
    #   Exact-time ties — common, not exotic: two equal-size steps
    #   granted at one control instant onto nodes with the same obj_time
    #   produce fully aligned boundary chains — therefore resolve
    #   identically in both loops.
    # * When the horizon equals t0 (another event is pending in this
    #   very instant — e.g. a completion cascade that may submit here),
    #   no pre-play happens and the loop degrades to the literal
    #   single-quantum behaviour.
    #
    # The pre-play accounting coalesces the per-object callback chain
    # (scheduler weight adjustment) through on_objects_batch, which is
    # exact for whole quanta; fractional quanta always terminate an item
    # and therefore always travel the yielded path.

    def _run(self) -> Generator[Event, Any, None]:
        env = self.env
        while True:
            if self.crashed:
                self._recovered = env.event()
                yield self._recovered
                self._recovered = None
                continue
            if not self._queue:
                self._wakeup = env.event()
                yield self._wakeup
                self._wakeup = None
                continue
            item = self._queue.popleft()
            self._current = item
            t = env.now
            horizon = env.affecting_horizon()
            if horizon > t:
                if not self._queue and not self._slow_factors:
                    item, t = self._preplay_single(item, t, horizon)
                else:
                    item, t = self._preplay_rr(item, t, horizon)
            # The yielded quantum: bit-identical to one literal
            # iteration (same service value, same absolute end instant,
            # same cancellation check at resume).  Non-completing quanta
            # are inert: their resumption is invisible to every other
            # actor until this node's earliest possible completion.
            quantum = min(1.0, item.remaining)
            service = self._service_time(quantum)
            end = t + service
            if item.remaining - quantum > _EPSILON:
                yield env.timeout_until(
                    end, affect=self._completion_bound(end, item, quantum),
                    sort_time=t, sort_rank=self.node_id + 1)
            else:
                yield env.timeout_until(end, sort_time=t,
                                        sort_rank=self.node_id + 1)
            self._current = None
            self.busy_time += service
            if item.cancelled:  # repro-lint: disable=RL009 -- _WorkItem is node-private (only this loop and the pre-play helpers mutate its fields) and this read IS the post-yield cancellation re-check; cancel() only sets the flag tested here
                continue
            self.objects_processed += quantum
            self.messages_sent += 1
            self.on_objects(item.txn, quantum)
            item.remaining -= quantum
            if item.remaining > _EPSILON:
                self._queue.append(item)
            else:
                item.done.succeed()

    def _completion_bound(self, end: float, item: _WorkItem,
                          quantum: float) -> float:
        """Lower bound on this node's first step completion after ``end``.

        A *mirror replay*: runs the exact float operations the live loop
        will execute — the queued remainders in order, the yielded item's
        post-quantum remainder at the back, ``min(1.0, r)`` quanta
        serviced via :meth:`_service_time` — until the first quantum that
        completes its item, and returns that completion's boundary.
        Because it replays the real arithmetic rather than approximating
        it (e.g. ``remaining * service`` can exceed the additive boundary
        chain by ulps), the bound is bit-exact under constant conditions;
        every condition change originates at a non-inert event that caps
        foreign horizons independently (see the equivalence argument
        above).  Capped at ``_BOUND_CAP`` quanta: a truncated replay
        returns the last boundary reached, which precedes the first
        completion and is therefore still sound.
        """
        seq: Deque[float] = deque(it.remaining for it in self._queue)
        seq.append(item.remaining - quantum)
        t = end
        for _ in range(_BOUND_CAP):
            r = seq.popleft()
            q = min(1.0, r)
            t += self._service_time(q)
            r -= q
            if r <= _EPSILON:
                return t
            seq.append(r)
        return t

    def _preplay_single(self, item: _WorkItem, t: float,
                        horizon: float) -> Tuple[_WorkItem, float]:
        """Coalesced pre-play: sole resident item, no slowdown factors.

        Counts the run of whole, non-completing quanta ending strictly
        before ``horizon``, then accounts them in one go.  The boundary
        times and the remaining-object countdown replay the literal
        loop's float additions one by one (additions may round at
        exponent crossings, so they cannot be coalesced); the *integer*
        aggregate updates use a single arithmetic step only where that
        is provably exact.
        """
        svc = self.obj_time
        rem = item.remaining
        n = 0
        # A quantum is pre-playable iff it is whole and leaves work
        # behind (rem - 1.0 > eps, i.e. the literal loop would have
        # re-queued the item) and its end stays below the horizon.
        while rem - 1.0 > _EPSILON:
            e = t + svc
            if e >= horizon:
                break
            t = e
            rem -= 1.0
            n += 1
        if n:
            item.remaining = rem
            busy = self.busy_time
            if busy.is_integer() and svc.is_integer():
                self.busy_time = busy + svc * n
            else:
                for _ in range(n):
                    busy += svc
                self.busy_time = busy
            objs = self.objects_processed
            if objs.is_integer():
                self.objects_processed = objs + n
            else:
                for _ in range(n):
                    objs += 1.0
                self.objects_processed = objs
            self.messages_sent += n
            self.on_objects_batch(item.txn, n)
        return item, t

    def _preplay_rr(self, item: _WorkItem, t: float,
                    horizon: float) -> Tuple[_WorkItem, float]:
        """General pre-play: several residents and/or slowdown factors.

        Replays the literal round-robin quantum by quantum (service
        recomputed per quantum, per-object callback per quantum) but
        without engine timeouts.  Stops at the first quantum that either
        completes its item or reaches the horizon; that quantum is
        returned for the caller to yield.
        """
        queue = self._queue
        while True:
            quantum = min(1.0, item.remaining)
            service = self._service_time(quantum)
            e = t + service
            if e >= horizon or item.remaining - quantum <= _EPSILON:
                return item, t
            t = e
            self.busy_time += service
            self.objects_processed += quantum
            self.messages_sent += 1
            self.on_objects(item.txn, quantum)
            item.remaining -= quantum
            queue.append(item)
            item = queue.popleft()
            self._current = item
