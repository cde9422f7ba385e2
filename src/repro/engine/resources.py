"""Shared resources for the discrete-event engine.

:class:`Resource` is a counted resource with FIFO queueing (used for the
control node's CPU, which serialises concurrency-control work).

The general protocol mirrors SimPy::

    req = cpu.request()
    yield req
    try:
        yield env.timeout(cost)
    finally:
        cpu.release(req)

A fixed-length occupation is one event instead: ``yield cpu.hold(cost)``
takes a unit, fires ``cost`` after the grant and returns the unit
itself.  It schedules the same heap entries, with the same keys, as the
generator above, but resumes the holder once instead of twice; see
:class:`Hold`.

Cancelling a queued request is *lazy*: the request is flagged and the
wake-up loop discards it when it surfaces, so a cancellation costs O(1)
instead of an O(n) scan of the wait queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, TypeVar

from repro.engine.core import Environment, Event, register_hot_class
from repro.errors import EngineStateError

_R = TypeVar("_R", bound="Request")


@register_hot_class
class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource", "_cancelled")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self._cancelled = False

    def _grant(self) -> None:
        self.succeed()


@register_hot_class
class Hold(Request):
    """A unit of a :class:`Resource` held for ``delay``, then returned.

    The event fires ``delay`` after the unit is granted, and its first
    callback returns the unit, so the holder resumes once, with the unit
    already back.  The heap sees exactly what the request/timeout/release
    generator of the module doc schedules.  At the grant (at once, or
    later when a release wakes it) a zero-delay marker is pushed, with
    the key ``Request.succeed()`` would have had.  The marker's callback
    pushes the hold ``delay`` later, at the instant the resumed generator
    would have called ``timeout(delay)``.  So every schedule order draw
    and every same-time tie-break is unchanged.  The hold is born
    triggered, like a :class:`~repro.engine.core.Timeout`, so it can be
    neither cancelled nor released by hand.
    """

    __slots__ = ("delay",)

    def __init__(self, resource: "Resource", delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative hold delay: {delay!r}")
        super().__init__(resource)
        self.delay = delay
        self._value = None
        self.callbacks.append(resource._free)

    def _grant(self) -> None:
        marker = Event(self.env)
        marker.callbacks.append(self._start)
        self.env._schedule(marker)

    def _start(self, _marker: Event) -> None:
        self.env._schedule(self, delay=self.delay)


@register_hot_class
class Resource:
    """A counted resource with FIFO discipline.

    ``capacity`` units exist; a :meth:`request` either succeeds immediately
    or queues.  :meth:`release` wakes the head of the queue.  Cancelling a
    queued request (e.g. after losing a race with a timeout) is supported
    via :meth:`cancel`.
    """

    __slots__ = ("env", "capacity", "_in_use", "_waiting", "_busy_area",
                 "_last_change", "_cancelled_waiting")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Request] = deque()
        # Cumulative busy integral for utilization reporting.
        self._busy_area = 0.0
        self._last_change = env.now
        # Lazily cancelled requests still sitting in _waiting.
        self._cancelled_waiting = 0

    @property
    def in_use(self) -> int:
        """Number of units currently granted."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of live requests waiting for a unit."""
        return len(self._waiting) - self._cancelled_waiting

    def _account(self) -> None:
        now = self.env.now
        self._busy_area += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Unit-weighted busy time accumulated so far (for utilization)."""
        self._account()
        return self._busy_area

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        return self._claim(Request(self))

    def hold(self, delay: float) -> Hold:
        """Occupy one unit for ``delay``; the event fires once it is
        back (see :class:`Hold`)."""
        return self._claim(Hold(self, delay))

    def _claim(self, req: _R) -> _R:
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            req._grant()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit, waking the next queued request."""
        if request.resource is not self:
            raise EngineStateError("request released to the wrong resource")
        if isinstance(request, Hold):
            raise EngineStateError("a hold returns its unit itself")
        if not request.triggered:
            raise EngineStateError(
                "cannot release a request that was never granted; "
                "use cancel() for queued requests")
        self._free(request)

    def _free(self, _request: Event) -> None:
        """Return one unit and wake the queue (a hold's first callback)."""
        self._account()
        self._in_use -= 1
        if self._in_use < 0:
            raise EngineStateError("resource released more than acquired")
        self._wake_next()

    def cancel(self, request: Request) -> None:
        """Withdraw a queued (ungranted) request — lazy, O(1)."""
        if request.triggered:
            raise EngineStateError("cannot cancel a granted request")
        if request.resource is not self or request._cancelled:
            raise EngineStateError("request is not queued on this resource")
        request._cancelled = True
        self._cancelled_waiting += 1

    def _wake_next(self) -> None:
        while self._waiting and self._in_use < self.capacity:
            req = self._waiting.popleft()
            if req._cancelled:
                self._cancelled_waiting -= 1
                continue
            self._in_use += 1
            req._grant()
