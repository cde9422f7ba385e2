"""The control node's CPU as a generic FIFO resource: the oracle of the
closed-form server.

:meth:`repro.machine.shard.ControlShard.charge` grants each CPU charge
in closed form at ``max(now, free_at)`` and pushes one heap entry, its
end.  This module keeps the counted FIFO :class:`Resource` that charge
replaced, with its :class:`Hold` (a zero-delay marker at the grant, the
end pushed from the marker's callback) and its plain
request/release/cancel protocol::

    req = cpu.request()
    yield req
    try:
        yield env.timeout(cost)
    finally:
        cpu.release(req)

:func:`reference_cpu` swaps ``Resource.hold`` back in for every control
shard's charges and busy time, so an equivalence test compares two runs
of the same public entry points.  The two servers give every charge the
same end instant and sort time; only the order number of an end entry
differs (drawn at the grant here, at the claim by ``charge``), so runs
may differ where two CPU ends tie on ``(when, sort_time)``.

Cancelling a queued request is *lazy*: the request is flagged and the
wake-up loop discards it when it surfaces, so a cancellation costs O(1)
instead of an O(n) scan of the wait queue.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, TypeVar
from unittest import mock

from repro.engine.core import Environment, Event, register_hot_class
from repro.errors import EngineStateError
from repro.machine.shard import ControlShard

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


@contextmanager
def reference_cpu() -> Iterator[Dict[ControlShard, Resource]]:
    """Charge every control shard's CPU through ``Resource.hold`` while
    the block runs; yields the shard -> oracle resource map."""
    cpus: Dict[ControlShard, Resource] = {}

    def cpu_of(shard: ControlShard) -> Resource:
        cpu = cpus.get(shard)
        if cpu is None:
            cpu = cpus[shard] = Resource(shard.env)
        return cpu

    def charge(self: ControlShard, cost: float) -> Event:
        return cpu_of(self).hold(cost)

    def busy_time(self: ControlShard) -> float:
        return cpu_of(self).busy_time()

    with mock.patch.object(ControlShard, "charge", charge), \
            mock.patch.object(ControlShard, "busy_time", busy_time):
        yield cpus
