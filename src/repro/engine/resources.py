"""Shared resources for the discrete-event engine.

:class:`Resource` is a counted resource with FIFO queueing (used for the
control node's CPU, which serialises concurrency-control work).

The usage protocol mirrors SimPy::

    req = cpu.request()
    yield req
    try:
        yield env.timeout(cost)
    finally:
        cpu.release(req)

Cancelling a queued request is *lazy*: the request is flagged and the
wake-up loop discards it when it surfaces, so a cancellation costs O(1)
instead of an O(n) scan of the wait queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.engine.core import Environment, Event, register_hot_class
from repro.errors import EngineStateError


@register_hot_class
class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource", "_cancelled")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self._cancelled = False


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
        req = Request(self)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit, waking the next queued request."""
        if request.resource is not self:
            raise EngineStateError("request released to the wrong resource")
        if not request.triggered:
            raise EngineStateError(
                "cannot release a request that was never granted; "
                "use cancel() for queued requests")
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
            req.succeed()
