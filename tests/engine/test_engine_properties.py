"""Property-based tests of the DES kernel: determinism, clock laws and the
event-order contract."""

from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Environment
from tests.oracles.cpu import Resource


@st.composite
def process_plans(draw):
    """Random plans: each process sleeps a few times and logs."""
    num_procs = draw(st.integers(min_value=1, max_value=6))
    return [
        [draw(st.integers(min_value=0, max_value=20))
         for _ in range(draw(st.integers(min_value=1, max_value=4)))]
        for _ in range(num_procs)]


def run_plan(plans):
    env = Environment()
    log = []

    def proc(env, ident, delays):
        for delay in delays:
            yield env.timeout(delay)
            log.append((env.now, ident))

    for ident, delays in enumerate(plans):
        env.process(proc(env, ident, delays))
    env.run()
    return env.now, log


@settings(max_examples=150, deadline=None)
@given(process_plans())
def test_identical_plans_produce_identical_logs(plans):
    assert run_plan(plans) == run_plan(plans)


@settings(max_examples=150, deadline=None)
@given(process_plans())
def test_log_times_are_monotone_nondecreasing(plans):
    _, log = run_plan(plans)
    times = [t for t, _ in log]
    assert times == sorted(times)


@settings(max_examples=150, deadline=None)
@given(process_plans())
def test_final_clock_is_max_completion(plans):
    final, log = run_plan(plans)
    assert final == max(sum(delays) for delays in plans)
    assert len(log) == sum(len(delays) for delays in plans)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=15), min_size=1,
                max_size=8),
       st.integers(min_value=1, max_value=3))
def test_resource_serialises_work_conservation(holds, capacity):
    """Total busy time equals total requested service; the makespan is
    bounded by ceil-packing limits of a work-conserving server."""
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def worker(env, resource, hold):
        request = resource.request()
        yield request
        try:
            yield env.timeout(hold)
        finally:
            resource.release(request)

    for hold in holds:
        env.process(worker(env, resource, hold))
    env.run()
    total = sum(holds)
    assert resource.busy_time() == pytest.approx(total)
    assert env.now >= total / capacity - 1e-9
    assert env.now <= total  # never slower than fully serial


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 10)),
                min_size=1, max_size=10))
def test_fifo_resource_start_order_matches_request_order(jobs):
    """With capacity 1, service starts in request (arrival) order."""
    env = Environment()
    resource = Resource(env, capacity=1)
    starts = []

    def worker(env, resource, ident, arrival, hold):
        yield env.timeout(arrival)
        request = resource.request()
        yield request
        starts.append((ident, env.now))
        yield env.timeout(hold)
        resource.release(request)

    for ident, (arrival, hold) in enumerate(jobs):
        env.process(worker(env, resource, ident, arrival, hold))
    env.run()
    # Sort jobs by (arrival, creation order) = request order; the start
    # sequence must respect it.
    expected = [ident for ident, _ in
                sorted(enumerate(jobs), key=lambda item: (item[1][0],
                                                          item[0]))]
    assert [ident for ident, _ in starts] == expected


_HOLD_ACTIONS = st.tuples(st.sampled_from(("hold", "timeout")),
                          st.integers(0, 3))


def _run_holds(plans, capacity, cutoff, literal):
    """Run ``plans`` (per process: ``(kind, delay)`` actions) on one
    resource; ``literal`` charges each hold as request+timeout+release.
    Returns the firing log, the busy time and the schedule count."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    log = []

    def charge(delay):
        if not literal:
            yield resource.hold(delay)
            return
        request = resource.request()
        yield request
        try:
            yield env.timeout(delay)
        finally:
            resource.release(request)

    def proc(ident, actions):
        for index, (kind, delay) in enumerate(actions):
            if kind == "hold":
                yield from charge(delay)
            else:
                yield env.timeout(delay)
            log.append((env.now, ident, index, resource.in_use,
                        resource.queue_length))

    for ident, actions in enumerate(plans):
        env.process(proc(ident, actions))
    env.run(until=cutoff)
    mid = (list(log), resource.busy_time(), resource.in_use)
    env.run()
    return mid, log, resource.busy_time(), env.now, next(env._seq)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_HOLD_ACTIONS, min_size=1, max_size=5),
                min_size=1, max_size=6),
       st.sampled_from((1, 2)), st.integers(0, 12))
def test_hold_fires_like_request_timeout_release(plans, capacity, cutoff):
    """Holds mixed with plain timeouts on colliding instants: the firing
    log, queue states, busy time and schedule count equal those of the
    request/timeout/release generator, also when a run stops mid-hold."""
    assert (_run_holds(plans, capacity, cutoff, literal=False)
            == _run_holds(plans, capacity, cutoff, literal=True))


# -- the event-order and affecting-horizon contract -------------------------
#
# Processes mix every way of scheduling an event: ``timeout``,
# ``timeout_until`` (optionally inert via ``affect``, with ``sort_time``
# and ``sort_rank``), ``Event.succeed``, and stray (never yielded)
# ``timeout_until`` events; they also move the bound of a pending inert
# event and ``republish`` it.  The harness records every scheduling with the key the engine promises to
# order by, ``(when, sort_time or scheduling instant, rank or 0,
# schedule index)``, and checks the engine against a reference priority
# queue replayed from that log.  The Initialize event that starts each
# process and the event a process schedules when it returns are logged
# too, so the reference model covers every pending event.

_INF = float("inf")

_OPTIONS = (st.integers(0, 6),                     # when - now
            st.none() | st.integers(0, 8),         # affect - when
            st.none() | st.integers(0, 9),         # when - sort_time
            st.none() | st.integers(1, 3))         # sort_rank

_ACTIONS = st.one_of(
    st.tuples(st.just("timeout"), st.integers(0, 6)),
    st.tuples(st.just("until"), *_OPTIONS),
    st.tuples(st.just("succeed")),
    st.tuples(st.just("stray"), *_OPTIONS),
    st.tuples(st.just("republish"), st.integers(0, 8)),  # new affect - when
)


class _OrderHarness:
    """Runs ``plans`` (one action list per process) and logs the schedule."""

    def __init__(self, plans):
        self.env = Environment()
        self.log = []          # ("sched" | "fire", ident)
        self.key = {}          # ident -> reference order key
        self.bound = {}        # ident -> instant it counts at in the horizon
        self.pending = set()
        self.cutoff = _INF     # the active run(until=) instant
        self.horizons = []     # (affecting_horizon(), brute-force minimum)
        self.inert = {}        # ident -> (event, when) of inert events
        self._counter = count()
        for plan in plans:
            init = self._scheduled(self.env.now, None, None, None)
            proc = self.env.process(self._body(init, plan))
            proc.callbacks.append(self._process_done)

    def _scheduled(self, when, sort_time, rank, affect):
        ident = next(self._counter)
        now = self.env.now
        self.log.append(("sched", ident))
        self.key[ident] = (when, now if sort_time is None else sort_time,
                           0 if rank is None else rank, ident)
        self.bound[ident] = when if affect is None else affect
        self.pending.add(ident)
        return ident

    def _fired(self, ident):
        self.log.append(("fire", ident))
        self.pending.discard(ident)

    def _watch(self, ident, event):
        event.callbacks.append(lambda _event: self._fired(ident))
        return event

    def _process_done(self, proc):
        if not proc.ok:
            raise proc.value
        self._fired(proc.value)

    def check_horizon(self):
        expected = min([self.bound[i] for i in self.pending] + [self.cutoff])
        self.horizons.append((self.env.affecting_horizon(), expected))

    def _until(self, off, affect_off, back, rank):
        env = self.env
        when = env.now + off
        affect = None if affect_off is None else when + affect_off
        sort_time = None if back is None else when - back
        ident = self._scheduled(when, sort_time, rank, affect)
        # The callable reads the bound the harness holds now, so a moved
        # bound reaches the engine only through republish().
        refine = (None if affect is None
                  else lambda _when: self.bound[ident])
        event = env.timeout_until(when, affect=refine, sort_time=sort_time,
                                  sort_rank=rank)
        if affect is not None:
            self.inert[ident] = (event, when)
        return ident, self._watch(ident, event)

    def _republish(self, offset):
        """Move the newest pending inert event's bound and republish it."""
        live = [ident for ident in self.inert if ident in self.pending]
        if live:
            event, when = self.inert[live[-1]]
            self.bound[live[-1]] = when + offset
            self.env.republish(event)

    def _body(self, init, plan):
        env = self.env
        # The Initialize event's only callback is this generator's start.
        self._fired(init)
        for action in plan:
            self.check_horizon()
            kind = action[0]
            if kind == "timeout":
                ident = self._scheduled(env.now + action[1], None, None, None)
                yield self._watch(ident, env.timeout(action[1]))
            elif kind == "until":
                yield self._until(*action[1:])[1]
            elif kind == "succeed":
                event = env.event()
                ident = self._scheduled(env.now, None, None, None)
                yield self._watch(ident, event.succeed())
            elif kind == "republish":
                self._republish(action[1])
            else:   # a stray: scheduled, never yielded by anyone
                self._until(*action[1:])
        self.check_horizon()
        # Returning schedules the process event, which carries this ident.
        return self._scheduled(env.now, None, None, None)

    def replay_reference(self):
        """Fired idents, checking each was the reference queue's minimum."""
        pending = {}
        fired = []
        for kind, ident in self.log:
            if kind == "sched":
                pending[ident] = self.key[ident]
            else:
                assert ident == min(pending, key=pending.__getitem__), (
                    f"event {ident} fired ahead of "
                    f"{min(pending, key=pending.__getitem__)}")
                del pending[ident]
                fired.append(ident)
        assert not pending, f"events never fired: {sorted(pending)}"
        return fired


def _drive_by_step(plans):
    harness = _OrderHarness(plans)
    env = harness.env
    while env.peek() != _INF:
        harness.check_horizon()
        env.step()
    harness.check_horizon()
    return harness


def _drive_by_run(plans, cutoffs):
    harness = _OrderHarness(plans)
    for cutoff in cutoffs:
        harness.cutoff = cutoff
        harness.env.run(until=cutoff)
        harness.cutoff = _INF
        harness.check_horizon()
    harness.env.run()
    return harness


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_ACTIONS, max_size=8), min_size=1, max_size=5),
       st.lists(st.integers(0, 40), max_size=4))
def test_event_order_and_affecting_horizon_match_reference(plans, cutoffs):
    """Firing order is the reference key order; affecting_horizon() is
    the brute-force minimum over pending events; step() and run(until=)
    drive the same order."""
    stepped = _drive_by_step(plans)
    ran = _drive_by_run(plans, sorted(cutoffs))
    for harness in (stepped, ran):
        harness.replay_reference()
        for observed, expected in harness.horizons:
            assert observed == expected
    assert stepped.log == ran.log
