"""Core of the discrete-event engine: events, processes and the environment.

Time is a number (the simulator uses integer milliseconds, "clocks", but the
kernel works with any non-negative numeric delay).  The three central
concepts are:

* :class:`Event` — a one-shot occurrence with a value.  Callbacks attached to
  an event run when the environment processes it.
* :class:`Process` — a generator wrapped as an event.  The generator yields
  events; the process resumes when each yielded event fires and the process
  event itself succeeds with the generator's return value.
* :class:`Environment` — the clock plus the event heaps.  Same-time events
  are processed in schedule order, which makes whole simulations
  reproducible bit-for-bit.

Pending events live in two heaps of ``(when, sort_time, rank, order,
event)`` tuples, so ``heapq`` orders them with C tuple comparisons and the
unique ``order`` guarantees no comparison ever reaches an :class:`Event`.
Ordinary events go into ``_queue``; *inert* events (see
:meth:`Environment.timeout_until`) go into ``_inert`` and, keyed by their
published ``affect`` bound, into ``_affect``.  The loop pops whichever
heap has the smaller head, so each event is pushed exactly once and the
merged order is the single total order of the keys.

Every class on this hot path is ``__slots__``-ed and registered in
:data:`HOT_CLASSES`; ``tests/engine/test_slots.py`` guards the registry so a
future field addition cannot silently reintroduce per-instance dicts.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from itertools import count
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Tuple, TypeVar, Union)

from repro.errors import EngineStateError

_PENDING = object()

#: Classes whose instances populate the event heap or the per-event hot
#: path.  Each must be fully ``__slots__``-ed (no instance ``__dict__``).
HOT_CLASSES: List[type] = []

_T = TypeVar("_T", bound=type)


def register_hot_class(cls: _T) -> _T:
    """Class decorator: add ``cls`` to the slots-guarded registry."""
    HOT_CLASSES.append(cls)
    return cls


@register_hot_class
class _FailureCarrier:
    """Minimal event-shaped object used to throw an error into a process."""

    __slots__ = ("_ok", "_value", "_defused")

    def __init__(self, exception: BaseException) -> None:
        self._ok = False
        self._value = exception
        self._defused = True


@register_hot_class
class Event:
    """A one-shot occurrence inside an :class:`Environment`.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    schedules it, and the environment then *processes* it, running the
    attached callbacks.  Processes wait on events simply by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed",
                 "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._processed = False
        # Failures must not pass silently: if a failed event is never
        # yielded-on, the environment re-raises at the end of the run.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event has not triggered yet."""
        if self._value is _PENDING:
            raise EngineStateError("value of untriggered event is not available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` (chainable)."""
        if self._value is not _PENDING:
            raise EngineStateError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception (chainable)."""
        if self._value is not _PENDING:
            raise EngineStateError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


@register_hot_class
class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


@register_hot_class
class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


@register_hot_class
class Process(Event):
    """A running process; also an event that fires when the process ends.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event fails, the exception is thrown into the generator, so processes can
    handle failures with ordinary ``try``/``except``.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment",
                 generator: Generator["Event", Any, Any]) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def _resume(self, event: Event) -> None:
        current: Union[Event, _FailureCarrier] = event
        while True:
            try:
                if current._ok:
                    next_event = self._generator.send(current._value)
                else:
                    current._defused = True
                    next_event = self._generator.throw(current._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                if self.callbacks:
                    self.env._schedule(self)
                else:  # no waiter: processed in place, no heap entry
                    self._processed = True
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._defused = False
                self.env._schedule(self)
                break

            if not isinstance(next_event, Event):
                current = _FailureCarrier(TypeError(
                    f"process yielded a non-event: {next_event!r}"))
                continue
            if next_event.env is not self.env:
                current = _FailureCarrier(EngineStateError(
                    "process yielded an event from a different environment"))
                continue

            if next_event._processed:
                # Already fired: resume synchronously with its value.
                current = next_event
                continue
            next_event.callbacks.append(self._resume)
            break


@register_hot_class
class AllOf(Event):
    """Triggers when every sub-event has triggered.

    The value is a dict mapping each *triggered* sub-event to its value
    at trigger time.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        for event in self._events:
            if event.env is not self.env:
                raise EngineStateError(
                    "condition spans events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event._processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> Dict[Event, Any]:
        return {event: event._value for event in self._events
                if event._processed}

    def _check(self, event: Event) -> None:
        if self.triggered:
            # The condition already resolved; a sub-event failing now
            # (e.g. a fault cancelling the remaining shares of a
            # declustered step) has no waiter left, so defuse it.
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


@register_hot_class
class _InertTimeout(Event):
    """A :meth:`Environment.timeout_until` event declared inert.

    ``when`` is its firing instant and ``affect`` the callable that
    refines its bound.  ``_live`` is the order number of its one valid
    ``_affect`` entry: :meth:`Environment.republish` draws a new one, so
    the entries it supersedes are recognised and dropped.
    """

    __slots__ = ("when", "affect", "_live")

    when: float
    affect: Callable[[float], float]
    _live: int


#: A heap entry: ``(when, sort_time, rank, order, event)``.  ``order`` is
#: unique, so tuple comparison settles before it reaches the event.
_Entry = Tuple[float, float, int, int, Event]

_NEG_INF = float("-inf")
_POS_INF = float("inf")

#: An ``_affect`` entry: ``(bound, order, event, fresh)``.  A fresh
#: entry's bound is the event's own time, not yet refined.
_AffectEntry = Tuple[float, int, _InertTimeout, bool]


@register_hot_class
class Environment:
    """The simulation clock and event loop."""

    __slots__ = ("_now", "_queue", "_inert", "_affect", "_seq",
                 "_run_until", "_popped")

    def __init__(self, initial_time: float = 0) -> None:
        self._now = initial_time
        # The entry of the event being processed (the last one popped),
        # or a sentinel keyed before or after every entry at ``now``
        # (see follows_current).
        self._popped: Tuple[float, float, int, int, Optional[Event]] = (
            initial_time, _NEG_INF, 0, -1, None)
        # ``_queue`` holds non-inert events; inert ones (see
        # timeout_until) sit in ``_inert`` under the same key and in
        # ``_affect`` under their published bound for affecting_horizon.
        self._queue: List[_Entry] = []
        self._inert: List[_Entry] = []
        self._affect: List[_AffectEntry] = []
        self._seq = count()
        self._run_until = float("inf")

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` units from now."""
        return Timeout(self, delay, value)

    def timeout_until(self, when: float, value: Any = None,
                      affect: Optional[Callable[[float], float]] = None,
                      sort_time: Optional[float] = None,
                      sort_rank: Optional[int] = None) -> Event:
        """An event that fires at the *absolute* time ``when``.

        Equivalent to ``timeout(when - now)`` except that the firing
        instant is exactly ``when``: the ``now + (when - now)`` float
        round-trip of a relative delay is not guaranteed to reproduce
        ``when`` bit-for-bit.  The data-node loop relies on this to land
        its coalesced quantum boundary on the identical instant the
        literal per-quantum loop would have reached additively.

        ``affect`` declares the event *inert*: its own firing cannot
        influence any other actor before the instant ``affect(when)``
        returns -- the earliest instant the yielding actor could produce
        an externally visible effect (for a data node, complete a step).
        The bound is refined lazily.  The event first counts in
        :meth:`affecting_horizon` at its own time ``when``, which is
        always sound, and ``affect`` is called only when a horizon walk
        needs a later value; it must return a value >= ``when``.  An
        actor whose conditions change while the event is pending calls
        :meth:`republish`, which takes the refined bound back.

        ``sort_time`` and ``sort_rank`` set the event's virtual draw
        instant and actor rank, the second and third fields of its heap
        key: same-``when`` events order by ``(sort_time, sort_rank)``
        before falling back to schedule order.  A coalescing loop passes
        the instant at which its uncoalesced equivalent would have
        created the event plus a stable per-actor rank, making
        exact-time tie order a function of arithmetic quantities only —
        never of which loop variant happened to create its event first.
        The coordinator's retry polls are keyed the same way: the poll
        instant, the previous poll's instant and a per-BAT rank above
        every data node's, so a parked BAT can be woken at the key its
        literal poll would have had.
        ``sort_time`` must not exceed ``when``; defaults to ``now``, which
        leaves ordinary ordering untouched (schedule order is already
        monotone in the scheduling instant).  ``sort_rank`` must be
        positive when given (rank 0 is reserved for ordinary events,
        which keep plain schedule order among themselves).
        """
        if when < self._now:
            raise ValueError(
                f"timeout_until({when!r}) lies in the past (now={self._now!r})")
        if sort_time is not None and sort_time > when:
            raise ValueError(
                f"sort_time {sort_time!r} lies beyond the event's own "
                f"time {when!r}")
        if sort_rank is not None and sort_rank <= 0:
            raise ValueError(f"sort_rank must be positive: {sort_rank!r}")
        order = next(self._seq)
        if affect is None:
            event = Event(self)
        else:
            event = inert = _InertTimeout(self)
            inert.when = when
            inert.affect = affect
            inert._live = order
        event._ok = True
        event._value = value
        entry = (when, self._now if sort_time is None else sort_time,
                 0 if sort_rank is None else sort_rank, order, event)
        if affect is None:
            heappush(self._queue, entry)
            return event
        heappush(self._inert, entry)
        published = self._affect
        # Take the place of a fired head: without horizon walks nothing
        # else would drop it.
        if published and published[0][2]._processed:
            heapreplace(published, (when, order, inert, True))
        else:
            heappush(published, (when, order, inert, True))
        return event

    def follows_current(self, when: float, sort_time: float,
                        sort_rank: int) -> bool:
        """True if an entry keyed ``(when, sort_time, sort_rank)`` comes
        after the event being processed now.

        Outside the run loop, "now" is the state the loop left: before
        its first event every entry at ``now`` comes after; after a run
        that drained its heap or stopped at its cutoff, none does.  The
        key must differ from the current event's in these three fields:
        schedule order, which would decide a full tie, is not compared.
        """
        popped = self._popped
        if when != popped[0]:
            return when > popped[0]
        return (sort_time, sort_rank) > (popped[1], popped[2])

    def transfer_waiters(self, source: Event, target: Event) -> None:
        """Make everything waiting on ``source`` wait on ``target`` instead.

        ``source`` fires, when it does, with no one waiting: a process
        parked on an event can so be woken at a heap key chosen after it
        parked.
        """
        if source._processed or target._processed:
            raise EngineStateError("waiters move only between pending events")
        target.callbacks.extend(source.callbacks)
        source.callbacks = []

    def republish(self, event: Event) -> None:
        """Count the pending inert ``event`` at its own time again.

        Called when the conditions behind its ``affect`` bound changed,
        so a bound refined before the change is not trusted after it; the
        next horizon walk that needs a later value refines it anew.  A
        no-op once the event has fired.
        """
        if not isinstance(event, _InertTimeout):
            raise TypeError(f"{event!r} is not an inert timeout")
        if event._processed:
            return
        event._live = order = next(self._seq)
        heappush(self._affect, (event.when, order, event, True))

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start ``generator`` as a process; returns its process event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0) -> None:
        now = self._now
        heappush(self._queue, (now + delay, now, 0, next(self._seq), event))

    def _next_heap(self) -> Optional[List[_Entry]]:
        """The heap whose head comes first in key order; None if both empty."""
        queue, inert = self._queue, self._inert
        if inert and (not queue or inert[0] < queue[0]):
            return inert
        return queue if queue else None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._next_heap()
        return float("inf") if heap is None else heap[0][0]

    def affecting_horizon(self) -> float:
        """Earliest instant any *other* actor could affect the caller.

        The minimum of the next non-inert event's time, the published
        bound of every pending inert event (non-completing data-node
        quanta yielded through ``timeout_until(..., affect=...)``), and
        the active ``run(until=<time>)`` cutoff.  An actor pre-playing
        work up to this bound can therefore ignore other nodes' internal
        quantum boundaries: everything that could actually reach it (a
        process resumption, a completion, a fault, the run cutoff) is
        accounted at or before the returned instant.  The cutoff
        matters: it is enforced by the run loop, not by a heap entry, so
        without it a batching process could pre-account work completing
        *after* the instant the run stops and state is read.

        The walk refines lazily: an inert event counts at its own time
        until it would set the minimum, and only then is its ``affect``
        callable asked for its bound, earliest first, so most inert
        events are never refined.
        """
        best = self._run_until
        queue = self._queue
        if queue and queue[0][0] < best:
            best = queue[0][0]
        published = self._affect
        while published:
            bound, order, event, fresh = published[0]
            if event._processed or order != event._live:
                heappop(published)
            elif bound >= best:
                break
            elif fresh:
                refined = event.affect(bound)
                if refined < bound:
                    raise ValueError(
                        f"affect bound {refined!r} precedes the event's "
                        f"own time {bound!r}")
                heapreplace(published, (refined, order, event, False))
            else:
                return bound
        return best

    def active_horizon(self) -> float:
        """The next non-inert event's time or the run cutoff, if sooner.

        An upper bound on :meth:`affecting_horizon` that walks nothing:
        a caller for whom even this leaves no room to batch skips the
        walk.
        """
        queue = self._queue
        if queue and queue[0][0] < self._run_until:
            return queue[0][0]
        return self._run_until

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its time."""
        heap = self._next_heap()
        if heap is None:
            raise EngineStateError("no more events to process")
        entry = self._popped = heappop(heap)
        when, _, _, _, event = entry
        self._now = when
        callbacks = event.callbacks
        event.callbacks = []
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused and not callbacks:
            # A failure nobody waited on: surface it, don't lose it.
            raise event._value

    def run(self, until: Union[float, Event, None] = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or an event.

        ``until`` may be a number (run up to that time, then set ``now`` to
        it) or an :class:`Event` (run until it is processed and return its
        value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) must not lie in the past "
                    f"(now={self._now})")

        # Publish the cutoff so affecting_horizon() (the batched
        # data-node's pre-play bound) never looks past the instant this
        # run stops and counters become observable.
        self._run_until = stop_time

        # The hot loop: identical semantics to repeated step() calls, with
        # the heap choice and dispatch inlined so the per-event overhead is
        # one C tuple comparison, one heap pop and the callback calls.
        queue = self._queue
        inert = self._inert
        try:
            while True:
                if stop_event is not None and stop_event._processed:
                    break
                if inert and (not queue or inert[0] < queue[0]):
                    heap = inert
                elif queue:
                    heap = queue
                else:
                    break
                entry = heappop(heap)
                event = entry[4]
                when = entry[0]
                if when > stop_time:
                    heappush(heap, entry)
                    self._now = stop_time
                    self._popped = (stop_time, _POS_INF, 0, -1, None)
                    return None
                self._now = when
                self._popped = entry
                callbacks = event.callbacks
                event.callbacks = []
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused and not callbacks:
                    raise event._value
        finally:
            self._run_until = float("inf")

        if stop_event is not None:
            if stop_event._processed:
                if not stop_event._ok:
                    stop_event._defused = True
                    raise stop_event._value
                return stop_event._value
            raise EngineStateError(
                "event queue drained before the awaited event triggered")
        if stop_time != float("inf"):
            self._now = stop_time
        # Drained: every entry at ``now`` has been processed.
        self._popped = (self._now, _POS_INF, 0, -1, None)
        return None
