"""Parked retries: a refused BAT sleeps until its verdict can change.

The paper's coordinator re-submits a refused request after a fixed
``retry_delay``: a BLOCKed or DELAYed lock request, an admission while a
participant CN is down, a step or a 2PC round stalled on a down CN.
Literally that is one poll per delay, and most polls find nothing
changed.  When a refusal cost nothing, its scheduler can say what the
verdict read (a :class:`~repro.core.schedulers.base.Certificate`), and a
stall on a down CN depends on nothing but the CN's recovery; the
coordinator then parks the BAT here, with no heap entry.

A parked BAT keeps its literal *poll grid* ``origin + d + d + ...``
(the additions of the literal loop, reproduced by
:func:`~repro.machine.data_node._advance`), poll 0 being the refusal at
``origin``.  It wakes at the first grid point whose literal poll would
come after a change that may alter the verdict:

* its certificate no longer holds after a scheduler call on a shard it
  watches (:meth:`ParkingLot.touched`);
* a watched shard crashes or recovers (:meth:`ParkingLot.shard_changed`);
* it is doomed (:meth:`ParkingLot.doomed`);
* or time alone has aged the verdict (the certificate's ``expired``).

A grid poll is keyed ``(instant, previous instant, BAT rank)``, so when
the change comes at a grid instant the wake compares that key with the
event being processed (:meth:`~repro.engine.Environment.follows_current`)
instead of a schedule-order number no skipped poll drew.  Every skipped
poll would have been refused again in the same terms, so it is counted,
not made: the BAT's credit and its certificate's credit take the number
of polls skipped when it wakes, or when a run is read while it is still
parked (:meth:`ParkingLot.settle`).
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.schedulers.base import Certificate
from repro.engine import Environment, Event
from repro.machine.data_node import _advance


def no_credit(polls: int) -> None:
    """A repeated poll that counts nothing."""


#: Grid points tried one by one before :func:`_first_grid_point` bisects.
_WALK = 32
_INF = float("inf")

#: The certificate of a stall on a down CN: nothing but the CN's
#: recovery (or a doom) changes it, and a repeat counts nothing on the
#: scheduler's side.
STALLED = Certificate(lambda: None, no_credit)


def _first_grid_point(origin: float, delay: float,
                      reached: Callable[[float], bool],
                      ) -> Tuple[int, float, float]:
    """``(k, t_{k-1}, t_k)`` for the first grid point ``t_k``, ``k >= 1``,
    of ``origin + delay + delay + ...`` at which the monotone ``reached``
    holds.

    The first :data:`_WALK` points are tried one addition at a time;
    beyond them the index is found by doubling and bisection over exact
    grid points (:func:`~repro.machine.data_node._advance`), so a far
    deadline costs a few dozen chains, not one test per point.
    """
    k, prev, t = 1, origin, origin + delay
    while not reached(t):
        if k == _WALK:
            break
        k, prev, t = k + 1, t, t + delay
    else:
        return k, prev, t
    lo, lo_t, hi, hi_t = k, t, 2 * k, _advance(t, delay, k, _INF)[0]
    while not reached(hi_t):
        lo, lo_t = hi, hi_t
        hi, hi_t = 2 * hi, _advance(hi_t, delay, hi, _INF)[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_t = _advance(lo_t, delay, mid - lo, _INF)[0]
        if reached(mid_t):
            hi, hi_t = mid, mid_t
        else:
            lo, lo_t = mid, mid_t
    return hi, _advance(lo_t, delay, hi - 1 - lo, _INF)[0], hi_t


class Sleeper:
    """A parked BAT.  ``wait`` is the event its coordinator waits on and
    ``due`` the grid index at which ``wait`` fires (None: no wake yet);
    ``credited`` counts the polls already credited."""

    __slots__ = ("tid", "rank", "origin", "cert", "credit", "watch", "wait",
                 "due", "credited")

    def __init__(self, tid: int, rank: int, origin: float, cert: Certificate,
                 credit: Callable[[int], None], watch: Sequence[int],
                 wait: Event, due: Optional[int]) -> None:
        self.tid = tid
        self.rank = rank
        self.origin = origin
        self.cert = cert
        self.credit = credit
        self.watch = watch
        self.wait = wait
        self.due = due
        self.credited = 0


class ParkingLot:
    """The parked BATs of one control plane.

    ``watching[sid]`` holds, by tid, the sleepers a change on CN ``sid``
    may still wake; the plane lends one dict per shard, so a caller can
    skip :meth:`touched` while its shard's dict is empty.
    """

    def __init__(self, env: Environment, delay: float,
                 watching: List[Dict[int, Sleeper]]) -> None:
        self.env = env
        self.delay = delay
        self._sleepers: Dict[int, Sleeper] = {}
        self._watching = watching

    def park(self, tid: int, rank: int, cert: Certificate,
             watch: Sequence[int], credit: Callable[[int], None]) -> Event:
        """Park ``tid``, just refused now; returns the event to wait on.

        Whichever timer that event's waiters end up on, the BAT leaves
        the lot, its skipped polls counted, before they resume.
        """
        env = self.env
        now = env.now
        delay = self.delay
        expired = cert.expired
        due: Optional[int] = None
        if expired is None:
            wait = env.event()
        else:
            # The first grid point at which time alone ages the verdict.
            due, prev, t = _first_grid_point(now, delay, expired)
            wait = env.timeout_until(t, sort_time=prev, sort_rank=rank)
        sleeper = Sleeper(tid, rank, now, cert, credit, watch, wait, due)
        self._sleepers[tid] = sleeper
        for sid in watch:
            self._watching[sid][tid] = sleeper
        wait.callbacks.append(lambda _: self._leave(tid))
        return wait

    def _leave(self, tid: int) -> None:
        """``tid`` is due to poll: count the polls it skipped."""
        sleeper = self._sleepers.pop(tid)
        for sid in sleeper.watch:
            self._watching[sid].pop(tid, None)
        assert sleeper.due is not None
        self._credit(sleeper, sleeper.due - 1)

    def doomed(self, tid: int) -> None:
        sleeper = self._sleepers.get(tid)
        if sleeper is not None:
            self._wake(sleeper)

    def shard_changed(self, sid: int) -> None:
        """CN ``sid`` crashed or recovered: wake every sleeper watching it."""
        for sleeper in list(self._watching[sid].values()):
            self._wake(sleeper)

    def touched(self, sid: int) -> None:
        """A scheduler call on CN ``sid`` may have changed its state: wake
        the sleepers whose certificates no longer hold."""
        for sleeper in list(self._watching[sid].values()):
            if not sleeper.cert.holds():
                self._wake(sleeper)

    def settle(self) -> None:
        """Count the polls the parked BATs would have made by now.

        A run read at its cutoff has made every literal poll due at or
        before it; a BAT still parked has only counted its real ones.
        """
        now = self.env.now
        delay = self.delay
        for sleeper in self._sleepers.values():
            prev, polls = _advance(sleeper.origin, delay, sys.maxsize, now)
            if prev + delay == now:
                polls += 1
            if sleeper.due is not None:
                polls = min(polls, sleeper.due - 1)
            self._credit(sleeper, polls)

    @staticmethod
    def _credit(sleeper: Sleeper, polls: int) -> None:
        """Count a sleeper's skipped polls through grid index ``polls``."""
        skipped = polls - sleeper.credited
        if skipped > 0:
            sleeper.credited = polls
            sleeper.credit(skipped)
            sleeper.cert.credit(skipped)

    def _wake(self, sleeper: Sleeper) -> None:
        """Poll at the first grid point whose literal poll comes after the
        event being processed now."""
        for sid in sleeper.watch:
            self._watching[sid].pop(sleeper.tid, None)
        env = self.env
        now = env.now
        delay = self.delay
        prev, due = _advance(sleeper.origin, delay, sys.maxsize, now)
        t = prev + delay
        due += 1
        if t == now and not env.follows_current(t, prev, sleeper.rank):
            prev, t, due = t, t + delay, due + 1
        if sleeper.due is not None and sleeper.due <= due:
            return  # already due no later
        timer = env.timeout_until(t, sort_time=prev, sort_rank=sleeper.rank)
        env.transfer_waiters(sleeper.wait, timer)
        sleeper.wait = timer
        sleeper.due = due
