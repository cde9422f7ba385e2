"""Tests for SimulationParameters JSON round-trip."""

import pytest

from repro import SimulationParameters
from repro.errors import ConfigurationError


def test_round_trip_preserves_every_field():
    original = SimulationParameters(scheduler="K2", arrival_rate_tps=0.7,
                                    sim_clocks=123_456, seed=9,
                                    num_partitions=24, chain_time=33.0)
    again = SimulationParameters.from_json(original.to_json())
    assert again == original


def test_json_is_human_readable():
    text = SimulationParameters().to_json()
    assert '"num_nodes": 8' in text
    assert '"obj_time": 1000.0' in text


def test_unknown_field_rejected():
    with pytest.raises(ConfigurationError, match="unknown parameter"):
        SimulationParameters.from_json('{"warp_speed": 9}')


def test_non_object_rejected():
    with pytest.raises(ConfigurationError):
        SimulationParameters.from_json("[1, 2, 3]")


def test_validation_applies_on_load():
    from repro.errors import ConfigurationError
    bad = SimulationParameters().to_json().replace(
        '"num_nodes": 8', '"num_nodes": 0')
    with pytest.raises(ConfigurationError):
        SimulationParameters.from_json(bad)


@pytest.mark.parametrize("text,field", [
    ('{"sim_clocks": "100"}', "sim_clocks"),
    ('{"num_nodes": "4"}', "num_nodes"),
    ('{"seed": "7"}', "seed"),
    ('{"scheduler": 5}', "scheduler"),
    ('{"seed": true}', "seed"),
    ('{"obj_time": false}', "obj_time"),
    ('{"num_nodes": 4.0}', "num_nodes"),
])
def test_wrongly_typed_field_names_the_field(text, field):
    with pytest.raises(ConfigurationError, match=repr(field)):
        SimulationParameters.from_json(text)


def test_int_accepted_where_the_field_is_a_float():
    params = SimulationParameters.from_json(
        '{"sim_clocks": 100000, "arrival_rate_tps": 1}')
    assert params.sim_clocks == 100_000.0
    assert isinstance(params.sim_clocks, float)
    assert params == SimulationParameters.from_json(params.to_json())


@pytest.mark.parametrize("retired", ["node_mode", "estimator_mode",
                                     "retry_policy", "retry_backoff_cap",
                                     "trace_sample_rate", "warmup_clocks"])
def test_retired_mode_fields_are_unknown(retired):
    """Parameter files that still select a data-node or estimator mode,
    a restart backoff, a trace sampling rate or a warm-up period predate
    the single owner of each behaviour (the one runtime path, the fixed
    ``retry_delay``, ``Tracer(sample_rate=)`` and the whole run) and are
    refused, not ignored."""
    text = SimulationParameters().to_json()[:-1] + f', "{retired}": "x"}}'
    with pytest.raises(ConfigurationError,
                       match=rf"unknown parameter fields: \['{retired}'\]"):
        SimulationParameters.from_json(text)
