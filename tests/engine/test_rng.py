"""Unit tests for deterministic named random streams."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.rng import RandomStreams, derive_seed


def test_same_seed_same_stream_reproduces():
    a = RandomStreams(7)
    b = RandomStreams(7)
    assert [a.random("arrivals") for _ in range(10)] == \
           [b.random("arrivals") for _ in range(10)]


def test_different_names_give_different_sequences():
    streams = RandomStreams(7)
    xs = [streams.random("arrivals") for _ in range(5)]
    ys = [streams.random("errors") for _ in range(5)]
    assert xs != ys


def test_different_master_seeds_give_different_sequences():
    one, two = RandomStreams(1), RandomStreams(2)
    xs = [one.random("s") for _ in range(5)]
    ys = [two.random("s") for _ in range(5)]
    assert xs != ys


def test_stream_is_cached_not_reset():
    streams = RandomStreams(0)
    first = streams.random("x")
    second = streams.random("x")
    assert first != second  # same underlying generator keeps advancing


def test_consuming_one_stream_does_not_shift_another():
    reference = RandomStreams(3)
    ref_draw = reference.random("b")

    mixed = RandomStreams(3)
    for _ in range(100):
        mixed.random("a")
    assert mixed.random("b") == ref_draw


def test_named_draws_are_the_private_generators_draws():
    named = RandomStreams(11)
    generator = RandomStreams(11)._stream("aborts")
    for _ in range(20):
        assert named.random("aborts") == generator.random()
        assert named.randint("aborts", 0, 9) == generator.randint(0, 9)


def test_exponential_mean_validation():
    streams = RandomStreams(0)
    with pytest.raises(ValueError):
        streams.exponential("x", 0)
    with pytest.raises(ValueError):
        streams.exponential("x", -1)


def test_exponential_rough_mean():
    streams = RandomStreams(42)
    n = 20000
    mean = sum(streams.exponential("arr", 100.0) for _ in range(n)) / n
    assert mean == pytest.approx(100.0, rel=0.05)


def test_normal_zero_sigma_is_exact():
    streams = RandomStreams(0)
    assert streams.normal("e", 5.0, 0.0) == 5.0


def test_normal_negative_sigma_rejected():
    with pytest.raises(ValueError):
        RandomStreams(0).normal("e", 0.0, -0.1)


def test_choice_and_sample_validation():
    streams = RandomStreams(0)
    with pytest.raises(ValueError):
        streams.choice("c", [])
    with pytest.raises(ValueError):
        streams.sample("c", [1, 2], 3)


def test_sample_returns_distinct_items():
    streams = RandomStreams(5)
    picked = streams.sample("parts", list(range(16)), 2)
    assert len(picked) == 2
    assert len(set(picked)) == 2


def test_randint_bounds():
    streams = RandomStreams(9)
    draws = {streams.randint("r", 3, 5) for _ in range(200)}
    assert draws == {3, 4, 5}


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=0, max_size=20))
def test_derive_seed_is_deterministic_and_64bit(seed, name):
    first = derive_seed(seed, name)
    second = derive_seed(seed, name)
    assert first == second
    assert 0 <= first < 2**64


@given(st.integers(min_value=0, max_value=10_000))
def test_derive_seed_name_separation(seed):
    assert derive_seed(seed, "a") != derive_seed(seed, "b")
