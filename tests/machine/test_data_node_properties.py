"""Property tests of the data node's round-robin fairness."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.engine import Environment
from repro.machine import DataNode
from repro.machine.data_node import _EPSILON, _advance, _whole_quanta


def txn(tid):
    return TransactionRuntime(TransactionSpec(tid, [Step.read(0, 1)]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                max_size=5))
def test_work_conservation_and_makespan(sizes):
    """Total busy time = total objects x ObjTime; the node never idles
    while work is queued."""
    env = Environment()
    node = DataNode(env, 0, obj_time=100)
    events = [node.submit(txn(i), objects=size)
              for i, size in enumerate(sizes, start=1)]
    env.run()
    total = sum(sizes)
    assert node.busy_time == pytest.approx(total * 100)
    assert env.now == pytest.approx(total * 100)  # no idling
    assert all(e.triggered for e in events)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=2,
                max_size=5))
def test_round_robin_progress_is_fair(sizes):
    """Between simultaneous arrivals, per-transaction progress never
    diverges by more than one object (round-robin quantum)."""
    env = Environment()
    progress = {}
    node = DataNode(env, 0, obj_time=100,
                    on_objects=lambda t, n: progress.__setitem__(
                        t.tid, progress.get(t.tid, 0) + n))
    remaining = dict(enumerate(sizes, start=1))
    for tid, size in remaining.items():
        node.submit(txn(tid), objects=size)

    while env.peek() != float("inf"):
        env.step()
        # Fairness invariant: among unfinished transactions, progress
        # differs by at most one object.
        unfinished = [tid for tid, size in remaining.items()
                      if progress.get(tid, 0) < size]
        if len(unfinished) >= 2:
            values = [progress.get(tid, 0) for tid in unfinished]
            assert max(values) - min(values) <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=1,
                max_size=4))
def test_fractional_costs_complete_exactly(costs):
    env = Environment()
    node = DataNode(env, 0, obj_time=1000)
    for i, cost in enumerate(costs, start=1):
        node.submit(txn(i), objects=cost)
    env.run()
    assert node.objects_processed == pytest.approx(sum(costs))


# -- the closed-form boundary chain and countdown ------------------------------


def literal_advance(t, svc, n, horizon):
    """The per-quantum boundary loop, one float addition per step."""
    k = 0
    while k < n:
        e = t + svc
        if e >= horizon:
            break
        t = e
        k += 1
    return t, k


def literal_countdown(rem):
    """The per-quantum ``rem -= 1.0`` loop: (decrements, remainder)."""
    k = 0
    while rem - 1.0 > _EPSILON:
        rem -= 1.0
        k += 1
    return k, rem


STARTS = st.one_of(
    st.sampled_from([0.0, 0.1, 1.0, 2.0 ** 20 - 0.5, 2.0 ** 52,
                     2.0 ** 53 - 1.0, 2.0 ** 53]),
    st.integers(min_value=1, max_value=3000).map(lambda d: 2.0 ** 53 - d),
    st.integers(min_value=-60, max_value=52).map(lambda e: 2.0 ** e),
    st.floats(min_value=0.0, max_value=2.0 ** 53, allow_nan=False,
              allow_infinity=False))
SERVICE_TIMES = st.one_of(
    # integral and dyadic: the exact in-binade path
    st.sampled_from([1.0, 2.0, 20.0, 200.0, 1000.0, 0.5, 0.25, 0.375]),
    # non-dyadic: a fractional obj_time or a slowdown product forces the
    # literal fallback
    st.sampled_from([0.3, 0.1, 1000.0 * 1.1 * 1.7, 20.0 * 2.5 * 1.3]),
    st.floats(min_value=1e-3, max_value=1e4, allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(STARTS, SERVICE_TIMES, st.integers(min_value=0, max_value=3000),
       st.one_of(st.none(), st.integers(min_value=0, max_value=3000),
                 st.floats(min_value=0.0, max_value=2.0 ** 54)))
def test_advance_is_the_literal_addition_chain(t, svc, n, horizon):
    """_advance equals the literal chain bit for bit.  ``horizon`` is
    unbounded (None), lands exactly on the chain's j-th boundary (an
    int), or is an arbitrary instant (a float)."""
    if horizon is None:
        horizon = float("inf")
    elif isinstance(horizon, int):
        horizon, _ = literal_advance(t, svc, horizon, float("inf"))
    assert _advance(t, svc, n, horizon) == literal_advance(t, svc, n,
                                                           horizon)


def bits(result):
    """``_advance``'s result with its boundary as type and IEEE bits, so
    that ``0`` and ``0.0`` or ``0.0`` and ``-0.0`` differ."""
    t, k = result
    return type(t), struct.pack("<d", t), k


WHOLE_TOTALS = st.one_of(
    st.sampled_from([0, 0.0, 1.0, 2.0 ** 52, 2.0 ** 53 - 1.0, 2.0 ** 53]),
    st.integers(min_value=0, max_value=10 ** 7).map(float),
    st.integers(min_value=1, max_value=10 ** 5).map(lambda d: 2.0 ** 53 - d))
WHOLE_STEPS = st.one_of(st.sampled_from([1.0, 2.0, 20.0, 1000.0]),
                        st.integers(min_value=1, max_value=10 ** 4).map(float))


@settings(max_examples=400, deadline=None)
@given(st.one_of(WHOLE_TOTALS,
                 # a 0.2-object Pattern1 tail makes a total fractional
                 WHOLE_TOTALS.map(lambda t: t + 0.2)),
       st.one_of(WHOLE_STEPS,
                 # a 1.1 slowdown factor makes a step fractional
                 WHOLE_STEPS.map(lambda svc: svc * 1.1)),
       st.integers(min_value=0, max_value=3000),
       st.one_of(st.none(), st.integers(min_value=0, max_value=3000),
                 st.floats(min_value=0.0, max_value=2.0 ** 54)))
def test_advance_whole_chains_are_the_literal_chain_bit_for_bit(
        t, svc, n, horizon):
    """Whole totals and steps take _advance's closed form, fractional
    ones its binade path, near 2**53 either; all equal the literal
    chain in type and bits."""
    if horizon is None:
        horizon = float("inf")
    elif isinstance(horizon, int):
        horizon, _ = literal_advance(t, svc, horizon, float("inf"))
    assert bits(_advance(t, svc, n, horizon)) == bits(
        literal_advance(t, svc, n, horizon))


def test_advance_crosses_many_binades_exactly():
    """From a non-representable start, 4,000 one-object quanta cross
    twelve binades; each crossing rounds and the chain must round alike."""
    for t in (0.1, 0.0, 1.0 / 3.0):
        for svc in (1.0, 20.0):
            assert _advance(t, svc, 4000, float("inf")) == literal_advance(
                t, svc, 4000, float("inf"))


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
    st.integers(min_value=0, max_value=3000).flatmap(
        lambda k: st.sampled_from([k + 0.2, k + 1.0, k + 1.0 + 1e-9,
                                   k + 1.0 + 2e-9, k + 1e-9]))))
def test_whole_quanta_is_the_literal_countdown(rem):
    count, left = literal_countdown(rem)
    assert _whole_quanta(rem) == count
    assert rem - count == left
    # Every prefix of the countdown is the closed form too.
    partial = rem
    for j in range(min(count, 5)):
        assert rem - j == partial
        partial -= 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6),
       st.sampled_from([0.0, 0.2, 0.5, 1e-9, 2e-9]))
def test_whole_quanta_near_two_to_the_53(d, frac):
    """Near 2**53 the countdown is too long to run literally: run its
    first and last steps and check they join the closed form."""
    rem = 2.0 ** 53 - d + frac
    count = _whole_quanta(rem)
    partial = rem
    for j in range(3):
        assert rem - j == partial
        partial -= 1.0
    tail_count, left = literal_countdown(rem - (count - 3))
    assert tail_count == 3 and left == rem - count
