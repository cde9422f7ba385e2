"""Unit tests for the discrete-event kernel (events, processes, clock)."""

import pytest

from repro.engine import Environment, Event
from repro.errors import EngineStateError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_clock_custom_start():
    env = Environment(initial_time=42)
    assert env.now == 42


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(10)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [10]


def test_timeout_zero_is_allowed():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for delay in (5, 7, 11):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [5, 12, 23]


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(10)
        order.append(name)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.process(proc(env, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(3)

    env.process(proc(env))
    env.run(until=10)
    assert env.now == 10


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(4)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 4


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    never = env.event()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(EngineStateError):
        env.run(until=never)


def test_process_return_value_via_join():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(2)
        return 99

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(2, 99)]


def test_event_succeed_delivers_value():
    env = Environment()
    gate = env.event()
    got = []

    def waiter(env):
        value = yield gate
        got.append((env.now, value))

    def opener(env):
        yield env.timeout(6)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert got == [(6, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(EngineStateError):
        event.succeed(2)
    with pytest.raises(EngineStateError):
        event.fail(RuntimeError("boom"))


def test_event_value_before_trigger_rejected():
    env = Environment()
    event = env.event()
    with pytest.raises(EngineStateError):
        _ = event.value


def test_event_fail_raises_inside_process():
    env = Environment()
    caught = []

    def proc(env, gate):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    gate = env.event()

    def failer(env):
        yield env.timeout(1)
        gate.fail(RuntimeError("kaput"))

    env.process(proc(env, gate))
    env.process(failer(env))
    env.run()
    assert caught == ["kaput"]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise ValueError("exploded")

    env.process(proc(env))
    with pytest.raises(ValueError, match="exploded"):
        env.run()


def test_handled_child_failure_does_not_propagate():
    env = Environment()
    outcome = []

    def child(env):
        yield env.timeout(1)
        raise ValueError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError:
            outcome.append("handled")

    env.process(parent(env))
    env.run()
    assert outcome == ["handled"]


def test_yield_non_event_raises_type_error_in_process():
    env = Environment()
    caught = []

    def proc(env):
        try:
            yield 123
        except TypeError:
            caught.append(True)

    env.process(proc(env))
    env.run()
    assert caught == [True]


def test_yield_event_from_other_environment_rejected():
    env1, env2 = Environment(), Environment()
    caught = []

    def proc(env):
        try:
            yield env2.event()
        except EngineStateError:
            caught.append(True)

    env1.process(proc(env1))
    env1.run()
    assert caught == [True]


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    log = []

    def proc(env):
        yield env.timeout(5)
        value = yield gate
        log.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert log == [(5, "early")]


def test_all_of_waits_for_everything():
    env = Environment()
    results = []

    def proc(env):
        a = env.timeout(3, value="a")
        b = env.timeout(9, value="b")
        fired = yield env.all_of([a, b])
        results.append((env.now, sorted(fired.values())))

    env.process(proc(env))
    env.run()
    assert results == [(9, ["a", "b"])]


def test_empty_condition_fires_immediately():
    env = Environment()
    results = []

    def proc(env):
        fired = yield env.all_of([])
        results.append(fired)

    env.process(proc(env))
    env.run()
    assert results == [{}]


def test_all_of_fails_when_a_sub_event_fails():
    env = Environment()
    caught = []

    def proc(env, gate):
        try:
            yield env.all_of([gate, env.timeout(50)])
        except RuntimeError as exc:
            caught.append((env.now, str(exc)))

    gate = env.event()

    def failer(env):
        yield env.timeout(5)
        gate.fail(RuntimeError("sub-event exploded"))

    env.process(proc(env, gate))
    env.process(failer(env))
    env.run()
    assert caught == [(5, "sub-event exploded")]


def test_all_of_with_pre_processed_events():
    env = Environment()
    done = env.event()
    done.succeed("early")
    results = []

    def waiter(env):
        yield env.timeout(3)  # let `done` be processed first
        fired = yield env.all_of([done, env.timeout(2, value="late")])
        results.append(sorted(str(v) for v in fired.values()))

    env.process(waiter(env))
    env.run()
    assert results == [["early", "late"]]


def test_condition_rejects_cross_environment_events():
    env1, env2 = Environment(), Environment()
    with pytest.raises(EngineStateError):
        env1.all_of([env1.event(), env2.event()])


def test_step_without_events_raises():
    env = Environment()
    with pytest.raises(EngineStateError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(17)
    assert env.peek() == 17
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_process_is_alive_tracks_lifetime():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_fail_requires_exception_instance():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_many_processes_complete_deterministically():
    env = Environment()
    done = []

    def proc(env, ident):
        yield env.timeout(ident % 5)
        done.append(ident)

    for i in range(50):
        env.process(proc(env, i))
    env.run()
    assert sorted(done) == list(range(50))
    # Within a time bucket, original creation order is preserved.
    assert done == sorted(done, key=lambda i: (i % 5, i))


def test_timeout_until_in_the_past_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError, match="lies in the past"):
        env.timeout_until(9)


def test_timeout_until_sort_time_beyond_when_rejected():
    env = Environment()
    with pytest.raises(ValueError, match="sort_time"):
        env.timeout_until(5, sort_time=6)


@pytest.mark.parametrize("rank", [0, -1])
def test_timeout_until_non_positive_sort_rank_rejected(rank):
    env = Environment()
    with pytest.raises(ValueError, match="sort_rank must be positive"):
        env.timeout_until(5, sort_rank=rank)


def test_timeout_until_affect_before_when_rejected():
    """The bound is checked when a horizon walk refines it."""
    env = Environment()
    env.timeout_until(5, affect=lambda when: 4)
    assert env.peek() == 5
    with pytest.raises(ValueError, match="affect bound"):
        env.affecting_horizon()


def test_inert_event_counts_at_its_affect_bound_on_a_bare_environment():
    env = Environment()
    inert = env.timeout_until(5, affect=lambda when: 12)
    assert env.peek() == 5
    assert env.affecting_horizon() == 12
    env.timeout(20)
    assert env.affecting_horizon() == 12
    env.timeout(8)
    assert env.affecting_horizon() == 8
    env.run(until=6)
    assert inert.processed
    assert env.affecting_horizon() == 8


class Refiner:
    """An ``affect`` callable that counts its calls."""

    def __init__(self, bound):
        self.bound = bound
        self.calls = []

    def __call__(self, when):
        self.calls.append(when)
        return self.bound


def test_inert_bound_is_refined_only_when_a_walk_needs_it():
    env = Environment()
    refine = Refiner(12)
    env.timeout_until(5, affect=refine)
    env.timeout(3)
    # The event's own time 5 already lies past the next event at 3.
    assert env.affecting_horizon() == 3
    assert refine.calls == []
    env.run(until=4)
    assert env.affecting_horizon() == 12
    assert env.affecting_horizon() == 12
    assert refine.calls == [5]  # refined once, then published


def test_republish_takes_a_refined_bound_back():
    env = Environment()
    refine = Refiner(12)
    inert = env.timeout_until(5, affect=refine)
    assert env.affecting_horizon() == 12
    refine.bound = 7
    assert env.affecting_horizon() == 12  # still the published bound
    env.republish(inert)
    assert env.affecting_horizon() == 7
    assert refine.calls == [5, 5]
    env.republish(inert)
    env.republish(inert)  # superseded entries are dropped, not refined
    assert env.affecting_horizon() == 7
    assert refine.calls == [5, 5, 5]
    env.run(until=6)
    env.republish(inert)  # fired: nothing to take back
    assert env.affecting_horizon() == float("inf")


def test_republish_refuses_an_ordinary_event():
    env = Environment()
    with pytest.raises(TypeError, match="not an inert timeout"):
        env.republish(env.timeout_until(5))


def test_active_horizon_ignores_inert_events():
    env = Environment()
    env.timeout_until(2, affect=lambda when: when)
    assert env.active_horizon() == float("inf")
    env.timeout(9)
    assert env.active_horizon() == 9
    assert env.affecting_horizon() == 2
    env.run(until=1)
    assert env.active_horizon() == 9


def test_follows_current_compares_with_the_event_being_processed():
    env = Environment()
    seen = []

    def probe(event):
        seen.append([env.follows_current(10, s, r)
                     for s, r in ((4, 7), (5, 2), (5, 3), (5, 4), (6, 1))])

    # The event being processed is keyed (10, 5, 3).
    env.timeout_until(10, sort_time=5, sort_rank=3).callbacks.append(probe)
    env.run()
    assert seen == [[False, False, False, True, True]]


def test_follows_current_outside_the_run_loop():
    env = Environment()
    # Before the first event every entry at now comes after it...
    assert env.follows_current(0, -1.0, 1)
    env.timeout(5)
    env.run()
    # ...and after a run that drained the heap, none at now does.
    assert env.now == 5
    assert not env.follows_current(5, 4.0, 9)
    assert env.follows_current(6, 0.0, 1)
    env.run(until=8)
    assert not env.follows_current(8, 7.0, 9)


def test_transfer_waiters_wakes_a_parked_process_at_a_later_key():
    env = Environment()
    log = []
    parked = env.event()

    def sleeper():
        yield parked
        log.append(("sleeper", env.now))

    timers = []

    def waker():
        yield env.timeout(3)
        log.append(("waker", env.now))
        # Wake the sleeper at 7, keyed after an ordinary event there.
        timers.append(env.timeout_until(7, sort_time=3, sort_rank=1))
        env.transfer_waiters(parked, timers[0])

    def bystander():
        yield env.timeout_until(7, sort_time=3)
        log.append(("bystander", env.now))

    env.process(sleeper())
    env.process(waker())
    env.process(bystander())
    env.run()
    assert log == [("waker", 3), ("bystander", 7), ("sleeper", 7)]
    with pytest.raises(EngineStateError):
        env.transfer_waiters(timers[0], env.event())
