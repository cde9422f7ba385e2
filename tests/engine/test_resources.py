"""Unit tests of the FIFO Resource, the oracle of the control node's CPU."""

import pytest

from repro.engine import Environment
from repro.errors import EngineStateError
from tests.oracles.cpu import Resource


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2 = res.request(), res.request()
    assert r1.triggered and r2.triggered
    r3 = res.request()
    assert not r3.triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_resource_release_wakes_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, res, name, hold):
        req = res.request()
        yield req
        order.append(("start", name, env.now))
        yield env.timeout(hold)
        res.release(req)
        order.append(("end", name, env.now))

    env.process(worker(env, res, "a", 10))
    env.process(worker(env, res, "b", 5))
    env.process(worker(env, res, "c", 1))
    env.run()
    starts = [(name, t) for kind, name, t in order if kind == "start"]
    assert starts == [("a", 0), ("b", 10), ("c", 15)]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_wrong_resource_rejected():
    env = Environment()
    res1, res2 = Resource(env), Resource(env)
    req = res1.request()
    with pytest.raises(EngineStateError):
        res2.release(req)


def test_release_ungranted_request_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    queued = res.request()
    with pytest.raises(EngineStateError):
        res.release(queued)


def test_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    head = res.request()
    queued = res.request()
    res.cancel(queued)
    assert res.queue_length == 0
    # Releasing the head must not wake the cancelled request.
    res.release(head)
    assert not queued.triggered


def test_cancel_granted_request_rejected():
    env = Environment()
    res = Resource(env)
    req = res.request()
    with pytest.raises(EngineStateError):
        res.cancel(req)


def test_cancel_unqueued_request_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    queued = res.request()
    res.cancel(queued)
    with pytest.raises(EngineStateError):
        res.cancel(queued)


def test_busy_time_integrates_utilization():
    env = Environment()
    res = Resource(env, capacity=1)

    def worker(env, res):
        req = res.request()
        yield req
        yield env.timeout(30)
        res.release(req)

    env.process(worker(env, res))
    env.run(until=100)
    assert res.busy_time() == pytest.approx(30)


def test_hold_queues_behind_requests_and_returns_its_unit():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder(name, delay):
        yield res.hold(delay)
        # The unit has passed to the next in line before the holder
        # resumes.
        log.append((name, env.now, res.in_use))

    def requester():
        req = res.request()
        yield req
        log.append(("req", env.now, res.in_use))
        yield env.timeout(5)
        res.release(req)

    env.process(holder("a", 10))
    env.process(requester())
    env.process(holder("b", 3))
    env.run()
    assert log == [("a", 10, 1), ("req", 10, 1), ("b", 18, 0)]
    assert res.busy_time() == pytest.approx(18)


def test_hold_is_released_and_cancelled_only_by_itself():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = res.hold(4)
    queued = res.hold(2)
    with pytest.raises(EngineStateError):
        res.release(granted)
    with pytest.raises(EngineStateError):
        res.cancel(queued)
    with pytest.raises(ValueError):
        res.hold(-1)
    env.run()
    assert env.now == 6 and res.in_use == 0 and res.queue_length == 0
