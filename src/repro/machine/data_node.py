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
equivalence argument above :meth:`DataNode._run`).  Pre-play costs
O(residents + binades crossed) per window, not O(objects): whole rounds
of the round-robin coalesce, and the boundary chain and the
remaining-objects countdown have exact closed forms (:func:`_advance`,
:func:`_whole_quanta`).  Statistics, message counts, weight adjustments
and all event orderings are bit-identical to the literal loop, which
lives on as a test oracle (``tests/oracles/data_node.py``);
``tests/machine/test_node_equivalence.py`` proves the identity under
every scheduler and fault plan.

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

import math
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.core.transaction import TransactionRuntime
from repro.engine import Environment, Event
from repro.engine.core import register_hot_class
from repro.errors import FaultError

# Tolerance when deciding a step's remaining object count is exhausted.
_EPSILON = 1e-9

# Whole numbers up to 2**53 are exact doubles: past it the literal
# ``rem -= 1.0`` of _whole_quanta and the sums of _advance round.
_MAX_WHOLE = 2.0 ** 53

_INF = float("inf")

# Chains of at most this many additions run literally in _advance: the
# binade arithmetic costs about as much as eight plain additions.
_LITERAL_RUN = 8

# A node whose next non-inert event (or the run cutoff) lies at most this
# many one-object service times ahead yields its next quantum without a
# horizon walk or pre-play: a window that short saves less host time
# than the walk costs.  Chosen by measurement (see docs/engine.md).
_LITERAL_STEPS = 4

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
        self.obj_time = float(obj_time)
        self.on_objects = on_objects or (lambda txn, n: None)
        # The coalesced form of ``k`` whole-object callbacks; the cluster
        # wires it to Scheduler.object_processed_batch, which coalesces
        # exactly.  Without it every quantum reports through on_objects
        # in service order, as in the literal loop.
        self.on_objects_batch = on_objects_batch
        self.busy_time = 0.0
        self.objects_processed = 0.0
        self.messages_sent = 0
        self.crashed = False
        self._queue: Deque[_WorkItem] = deque()
        self._current: Optional[_WorkItem] = None
        self._wakeup: Optional[Event] = None
        self._recovered: Optional[Event] = None
        # The last inert quantum yielded; its affect bound is republished
        # whenever this node's conditions change while it is pending.
        self._pending: Optional[Event] = None
        self._slow_factors: List[SlowdownToken] = []
        # One whole object's service time under the active slowdowns.
        self._svc = self._service_time(1.0)
        self._process = env.process(self._run())

    @property
    def resident_transactions(self) -> int:
        """Transactions currently multiplexed on this node."""
        return len(self._queue) + (1 if self._current is not None else 0)

    def submit(self, txn: TransactionRuntime, objects: float) -> Event:
        """Enqueue a step of ``objects`` bulk work; event fires when done."""
        if objects > _MAX_WHOLE:
            raise ValueError(f"a step of {objects} objects exceeds 2**53")
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
        if self._current is not None:
            self._republish()
        elif self._wakeup is not None and not self._wakeup.triggered:
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
        if victims:
            self._republish()
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
        self._svc = self._service_time(1.0)
        return token

    def clear_slowdown(self, token: SlowdownToken) -> None:
        """Remove one previously applied slowdown window by its token."""
        if not token._active or token not in self._slow_factors:
            raise ValueError("slowdown token is not active on this node")
        token._active = False
        self._slow_factors.remove(token)
        self._svc = self._service_time(1.0)
        self._republish()

    def _service_time(self, quantum: float) -> float:
        service = quantum * self.obj_time
        for token in self._slow_factors:
            service *= token.factor
        return service

    def _republish(self) -> None:
        """Take back the affect bound of the pending inert quantum, if any."""
        if self._pending is not None:
            self.env.republish(self._pending)

    # -- the server loop ------------------------------------------------------
    #
    # Equivalence argument (each decision point at time t0, with
    # horizon = env.affecting_horizon(): the earliest pending
    # *non-inert* event, the smallest published bound of a pending inert
    # event, or the active run(until=) cutoff, whichever comes first —
    # the cutoff is an observation instant too, since the run stops
    # there and counters are read):
    #
    # * Quanta whose end falls *strictly before* the horizon and that do
    #   not complete their item are pre-played: nothing that could reach
    #   this node fires inside that span, so accounting them early is
    #   unobservable.  The boundary times are the very floats the
    #   literal per-quantum additions produce, computed one binade at a
    #   time (:func:`_advance`).
    # * The first quantum that completes an item or whose end reaches
    #   the horizon is *yielded* as one timeout at its absolute end time
    #   (``timeout_until`` — ``t + (e - t)`` is not bit-exact).
    #   Completions must be yielded because ``done.succeed()`` wakes the
    #   control node; horizon-crossing quanta must be yielded because a
    #   foreign event may cancel/crash mid-quantum, which the resume
    #   handles exactly as the literal loop does.
    # * Pre-play is optional: yielding the next quantum without it is
    #   the literal loop's own step.  The loop takes that *literal step*,
    #   with no horizon walk, when the head resident completes on its
    #   next quantum (no window can precede a completion) or when the
    #   next non-inert event or the run cutoff (env.active_horizon(), an
    #   upper bound of the horizon that costs no walk) lies at most
    #   _LITERAL_STEPS one-object service times ahead.  Such a window
    #   would hold a few quanta at best, and a walk, a pre-play and the
    #   batched callbacks cost more host time than the literal quanta
    #   they replace.  _LITERAL_STEPS is a module constant chosen by
    #   measurement (docs/engine.md has the figures), not a setting.
    # * A yielded *non-completing* quantum is declared inert, with
    #   :meth:`_completion_bound` as its ``affect`` callable: the
    #   instant of this node's first step completion under the current
    #   conditions, computed in closed form from the floats the real
    #   loop will produce.  The engine refines the bound lazily: the
    #   quantum first counts at its own end, always a sound bound, and
    #   the bound is computed only when a foreign horizon walk needs a
    #   later value, so most inert quanta never compute one.  Literal
    #   steps' quanta are inert in the same way.
    # * Soundness of a published bound.  A refined bound holds as long
    #   as the conditions it read hold.  Whatever changes them
    #   originates from a non-inert event, which caps every other
    #   actor's horizon by itself — but only until it fires: after it,
    #   a bound refined before the change must not be trusted.  So
    #   every change that can bring a completion *earlier* republishes
    #   the pending quantum's bound (env.republish: it counts at its own
    #   end again until a walk refines it anew): a submission to a node
    #   mid-quantum (a short newcomer may finish first), a cancel that
    #   removes a resident, the in-flight one included (the others move
    #   up), and clear_slowdown (quanta get shorter).  crash and
    #   apply_slowdown need no republication: they only make
    #   completions later (a crash removes every resident), so a bound
    #   refined before them is still a lower bound.  Lazy refinement
    #   alone makes a stale bound rare — a walk refines only quanta
    #   ending before the horizon it returns — but republication keeps
    #   every published bound true without that argument.  Hence
    #   another node pre-playing up to min(published bounds, non-inert
    #   horizon) can never run past a completion this node actually
    #   produces.
    # * Two things reorder the per-object weight-adjustment
    #   callbacks: firing inert events interleave
    #   them between nodes inside a foreign pre-play window, and a
    #   window's pre-played round-robin reports each resident's quanta
    #   in one on_objects_batch call rather than rotation by rotation.
    #   That reordering is value-exact, because every pre-played/inert
    #   quantum is a *whole* object — the callbacks subtract
    #   exactly-representable integers from positive doubles (see
    #   note_objects_batch), and any interleaving of such exact
    #   clamped subtractions on the same or independent accumulators
    #   yields bit-identical final values.  No
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
    # and therefore always travel the yielded path.  A node built
    # without on_objects_batch reports pre-played quanta through
    # on_objects in the literal rotation order.

    def _run(self) -> Generator[Event, Any, None]:
        env = self.env
        rank = self.node_id + 1
        bound = self._completion_bound
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
            svc = self._svc
            remaining = item.remaining
            if (remaining - 1.0 > _EPSILON
                    and env.active_horizon() - t > _LITERAL_STEPS * svc):
                horizon = env.affecting_horizon()
                if horizon > t:
                    item, t = self._preplay(item, t, horizon, svc)
                    remaining = item.remaining
            # The yielded quantum: bit-identical to one literal
            # iteration (same service value, same absolute end instant,
            # same cancellation check at resume).  Non-completing quanta
            # (more than one object left) are whole and inert: their
            # resumption is invisible to every other actor until this
            # node's earliest possible completion.
            if remaining - 1.0 > _EPSILON:
                quantum, service = 1.0, svc
                self._pending = pending = env.timeout_until(
                    t + svc, affect=bound, sort_time=t, sort_rank=rank)
                yield pending
            else:
                quantum = min(1.0, remaining)
                service = svc if quantum == 1.0 else self._service_time(
                    quantum)
                yield env.timeout_until(t + service, sort_time=t,
                                        sort_rank=rank)
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

    def _completion_bound(self, end: float) -> float:
        """This node's first step completion after ``end``, bit-exact.

        The affect bound of the pending inert quantum, which ends at
        ``end``: what a mirror replay of the round-robin from ``end``
        would reach under the current conditions (the queued remainders
        in order, the in-flight item's post-quantum remainder at the
        back unless it was cancelled), in closed form: the whole quanta
        before the first completing one (:func:`_first_completion`)
        share one service time, so their boundaries are one
        :func:`_advance` chain, and the completing quantum adds its own
        service.  Exact at any depth; with no resident left the node
        completes nothing until a submission, which republishes.
        """
        rems = [it.remaining for it in self._queue]
        current = self._current
        if current is not None and not current.cancelled:
            rems.append(current.remaining - 1.0)
        m = len(rems)
        if not m:
            return _INF
        first = _first_completion(rems, m)
        rem = rems[first % m] - first // m
        svc = self._svc
        t, _ = _advance(end, svc, first, _INF)
        return t + (svc if rem >= 1.0 else self._service_time(rem))

    def _preplay(self, item: _WorkItem, t: float, horizon: float,
                 svc: float) -> Tuple[_WorkItem, float]:
        """Pre-play the whole, non-completing quanta ending before ``horizon``.

        The residents in service order are ``item``, then the queue.
        Every quantum before the first completing one
        (:func:`_first_completion`) is whole and costs ``svc``, so the
        boundary chain runs to the earlier of that quantum and the
        horizon in one :func:`_advance` call.  The ``k`` quanta
        taken are accounted per resident (``k // m`` each, one more for
        the first ``k % m``) and the rotation advances by ``k mod m``.
        Returns the quantum for the caller to yield.
        """
        queue = self._queue
        if t + svc >= horizon:
            return item, t
        residents = [item, *queue]
        m = len(residents)
        first = _first_completion([it.remaining for it in residents], m)
        t, k = _advance(t, svc, first, horizon)
        if not k:
            return item, t
        self.busy_time, _ = _advance(self.busy_time, svc, k, _INF)
        self.objects_processed, _ = _advance(self.objects_processed, 1.0,
                                             k, _INF)
        self.messages_sent += k
        rounds, extra = divmod(k, m)
        batch = self.on_objects_batch
        if batch is None:
            on_objects = self.on_objects
            for _ in range(rounds):
                for it in residents:
                    on_objects(it.txn, 1.0)
            for it in residents[:extra]:
                on_objects(it.txn, 1.0)
        for i, it in enumerate(residents):
            whole = rounds + 1 if i < extra else rounds
            if whole:
                it.remaining -= whole
                if batch is not None:
                    batch(it.txn, whole)
        if extra:
            queue.appendleft(item)
            queue.rotate(-extra)
            item = queue.popleft()
            self._current = item
        return item, t


def _advance(t: float, svc: float, n: int,
             horizon: float) -> Tuple[float, int]:
    """Up to ``n`` literal steps ``e = t + svc; if e >= horizon: stop; t = e``.

    Returns the boundary reached and the number of steps taken, both
    bit-identical to the literal loop, in O(binades crossed) work.  The
    binade argument: let ``t`` lie in ``[2**e, 2**(e+1))``, where the
    doubles are exactly the multiples of ``ulp(t)``.  If ``svc`` is a
    multiple of ``ulp(t)`` too, every ``t + j*svc`` below ``2**(e+1)`` is
    such a multiple and hence a double: the chain adds without rounding
    and equals ``t + j*svc`` (``j*svc`` is itself exact, being a multiple
    of ``ulp(t)`` below ``2**(e+1)``), and a sum at or past the top
    rounds to a value at or past it, so comparing the computed sums with
    ``min(top, horizon)`` decides exactly.  The step that leaves the
    binade may round; it is taken as one literal addition and the test
    repeats in the next binade.  ``ulp(t)`` never shrinks as ``t``
    grows, so once ``svc`` fails the test (a fractional ``obj_time``, a
    slowdown product) it fails for the rest of the chain, which then
    runs the literal additions.  So does a step from ``t <= 0``, and so
    do the steps of a chain with at most ``_LITERAL_RUN`` of them left.
    Whole ``t >= 0`` and ``svc`` need no binades while ``t + n*svc`` is
    below 2**53: every sum is a whole number there, hence exact.
    """
    if t >= 0.0 and not (t % 1.0 or svc % 1.0) and t + n * svc < _MAX_WHOLE:
        j = n if t + n * svc < horizon else max(0, int((horizon - t) / svc))
        while j and t + j * svc >= horizon:
            j -= 1
        while j < n and t + (j + 1) * svc < horizon:
            j += 1
        return (t + j * svc, j) if j else (t, 0)
    k = 0
    while k < n:
        if t > 0.0 and n - k > _LITERAL_RUN:
            if svc % math.ulp(t):
                break
            top = math.ldexp(1.0, math.frexp(t)[1])
            limit = horizon if horizon < top else top
            j = min(n - k, max(0, int((limit - t) / svc)))
            while j and t + j * svc >= limit:
                j -= 1
            while j < n - k and t + (j + 1) * svc < limit:
                j += 1
            t += j * svc
            k += j
            if k == n:
                return t, k
        e = t + svc
        if e >= horizon:
            return t, k
        t = e
        k += 1
    while k < n:
        e = t + svc
        if e >= horizon:
            break
        t = e
        k += 1
    return t, k


def _whole_quanta(rem: float) -> int:
    """How many literal ``rem -= 1.0`` steps run while ``rem - 1.0 > _EPSILON``.

    That is the number of whole quanta a step with ``rem`` objects left
    takes before the quantum that completes it, and after ``j`` of them
    the literal countdown holds ``rem - j`` exactly.  For ``0 < rem <=
    2**53``, ``ulp(rem) <= 1`` divides every integer, so each ``rem - j``
    that is not negative is a multiple of ``ulp(rem)`` no larger than
    ``rem`` — a double, reached without rounding — and the loop's test
    is monotone in ``j``: the count is its first failure, found from an
    estimate by exact probes.
    """
    j = max(0, math.ceil(rem - 1.0 - _EPSILON))
    while j and not rem - (j - 1) - 1.0 > _EPSILON:
        j -= 1
    while rem - j - 1.0 > _EPSILON:
        j += 1
    return j


def _first_completion(rems: List[float], m: int) -> int:
    """Round-robin position of the first quantum that completes a step.

    ``rems`` are the residents' remainders in service order; resident
    ``i`` completes on its quantum ``_whole_quanta(rems[i])``, i.e. at
    position ``c_i * m + i``.  Scanning stops once ``i`` alone exceeds
    the best position found.
    """
    first = _whole_quanta(rems[0]) * m
    for i in range(1, m):
        if i >= first:
            break
        pos = _whole_quanta(rems[i]) * m + i
        if pos < first:
            first = pos
    return first
