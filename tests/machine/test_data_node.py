"""Unit tests for the round-robin data node."""

import pytest

from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.engine import Environment
from repro.machine import DataNode


def rt(tid):
    return TransactionRuntime(TransactionSpec(tid, [Step.read(0, 10)]))


def test_single_step_takes_cost_times_objtime():
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    done = node.submit(rt(1), objects=3)
    env.run(until=done)
    assert env.now == 3000


def test_fractional_trailing_quantum():
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    done = node.submit(rt(1), objects=1.2)  # Pattern1's w(F1:0.2) shape
    env.run(until=done)
    assert env.now == pytest.approx(1200)


def test_zero_cost_step_completes_immediately():
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    done = node.submit(rt(1), objects=0.0)
    assert done.triggered


def test_round_robin_interleaves_per_object():
    """Two 2-object steps finish at 3 and 4 objects of elapsed time —
    not 2 and 4 as FIFO would give."""
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    finish = {}

    def watch(env, node, name, objects):
        yield node.submit(rt(1 if name == "a" else 2), objects)
        finish[name] = env.now

    env.process(watch(env, node, "a", 2))
    env.process(watch(env, node, "b", 2))
    env.run()
    assert finish == {"a": 3000, "b": 4000}


def test_later_arrival_joins_rotation():
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    finish = {}

    def submit_at(env, node, name, delay, objects, tid):
        yield env.timeout(delay)
        yield node.submit(rt(tid), objects)
        finish[name] = env.now

    env.process(submit_at(env, node, "first", 0, 3, 1))
    env.process(submit_at(env, node, "late", 1500, 1, 2))
    env.run()
    # first: objects at 1000, 2000 then shares; late's object runs third.
    assert finish["late"] == 3000
    assert finish["first"] == 4000


def test_objects_callback_reports_each_quantum():
    env = Environment()
    reported = []
    node = DataNode(env, 0, obj_time=100,
                    on_objects=lambda txn, n: reported.append((txn.tid, n)))
    done = node.submit(rt(7), objects=2.5)
    env.run(until=done)
    assert reported == [(7, 1.0), (7, 1.0), (7, 0.5)]


def test_busy_time_and_utilization():
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    done = node.submit(rt(1), objects=2)
    env.run(until=done)
    env.run(until=10_000)
    assert node.busy_time == 2000
    assert node.utilization(10_000) == pytest.approx(0.2)
    assert node.utilization(0) == 0.0


def test_messages_counted_per_quantum():
    env = Environment()
    node = DataNode(env, 0, obj_time=100)
    done = node.submit(rt(1), objects=3)
    env.run(until=done)
    assert node.messages_sent == 3


def test_resident_transactions_gauge():
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    node.submit(rt(1), 5)
    node.submit(rt(2), 5)
    assert node.resident_transactions == 2


def test_idle_node_wakes_on_submission():
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    env.run(until=5000)  # idle spin
    done = node.submit(rt(1), 1)
    env.run(until=done)
    assert env.now == 6000


def test_invalid_obj_time_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        DataNode(env, 0, obj_time=0)


def test_step_beyond_exact_countdown_rejected():
    """Past 2**53 objects a literal ``rem -= 1.0`` rounds, so the node
    refuses the step instead of counting it down in closed form."""
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    with pytest.raises(ValueError, match=r"exceeds 2\*\*53"):
        node.submit(rt(1), objects=2.0 ** 53 + 2.0)
    assert node.resident_transactions == 0
    node.submit(rt(2), objects=2.0 ** 53)  # the largest exact step
    assert node.resident_transactions == 1
