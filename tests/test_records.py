"""Contract of the slotted immutable records (:mod:`repro.records`).

Every class built by ``@record`` must behave as the frozen dataclass it
replaced: assignment raises, equality and hashing go by class and field
values, defaults and ``repr`` read as before, and ``Step`` and
``ChainPair`` reject what they rejected.  The expected reprs are the
ones the frozen dataclasses printed.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.core.chain_opt import ChainPair
from repro.core.locks import Declaration
from repro.core.schedulers.base import (AdmissionResponse, Decision,
                                        LockResponse,
                                        merge_admission_responses)
from repro.core.transaction import LockMode, Step
from repro.errors import WorkloadError, WTPGError
from repro.machine.control_log import LogRecord

#: (record, another of the same class with other values, its repr)
RECORDS = {
    "Declaration": (
        Declaration(4, 1, 7, LockMode.EXCLUSIVE, 3.5),
        Declaration(4, 1, 7, LockMode.EXCLUSIVE, 2.5),
        "Declaration(tid=4, step_index=1, partition=7, "
        "mode=<LockMode.EXCLUSIVE: 'X'>, due=3.5)"),
    "LockResponse": (
        LockResponse(Decision.DELAY),
        LockResponse(Decision.DELAY, cpu_cost=1.0),
        "LockResponse(decision=<Decision.DELAY: 'delay'>, cpu_cost=0.0, "
        "reason='')"),
    "AdmissionResponse": (
        AdmissionResponse(True),
        AdmissionResponse(False),
        "AdmissionResponse(admitted=True, cpu_cost=0.0, reason='')"),
    "LogRecord": (
        LogRecord("grant", 9, 12.5),
        LogRecord("grant", 9, 12.5, step=0),
        "LogRecord(kind='grant', tid=9, time=12.5, steps=(), step=-1, "
        "predecessor=-1, successor=-1)"),
    "Step": (
        Step(2, LockMode.SHARED, 0.2),
        Step(2, LockMode.SHARED, 0.2, declared_cost=0.3),
        "Step(partition=2, mode=<LockMode.SHARED: 'S'>, cost=0.2, "
        "declared_cost=0.2)"),
    "ChainPair": (
        ChainPair(1.0, 2.5),
        ChainPair(1.0, 2.5, fixed="down"),
        "ChainPair(down=1.0, up=2.5, fixed=None)"),
}


def fields(record):
    return type(record).__slots__


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    record, other, expected_repr = RECORDS[name]
    cls = type(record)
    values = {field: getattr(record, field) for field in fields(record)}

    # Slotted and immutable.
    assert not hasattr(record, "__dict__")
    for field in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, field)
    with pytest.raises(FrozenInstanceError):
        record.extra = 1
    assert {field: getattr(record, field) for field in fields(record)} \
        == values

    # Equal and hashed alike by class and value.
    twin = cls(**values)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(tuple(values.values()))
    assert other != record and not other == record
    assert record != tuple(values.values())
    for rival, _, _ in RECORDS.values():
        if type(rival) is not cls:
            assert rival != record

    # The dataclass repr, and copies that compare equal.
    assert repr(record) == expected_repr
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record


@pytest.mark.parametrize("build, error, message", [
    (lambda: Step(0, LockMode.SHARED, -1.0), WorkloadError,
     "step cost must be non-negative: -1.0"),
    (lambda: Step.write(0, 1.0, declared_cost=-0.5), WorkloadError,
     "declared cost must be non-negative: -0.5"),
    (lambda: ChainPair(-1.0, 0.0), WTPGError,
     "chain pair weights must be non-negative"),
    (lambda: ChainPair(down=0.0, up=0.0, fixed="sideways"), WTPGError,
     "invalid fixed orientation: 'sideways'"),
])
def test_record_validation_is_unchanged(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


def test_step_constructors():
    read, write = Step.read(3, 5.0), Step.write(3, 1.0, declared_cost=2.0)
    assert read == Step(3, LockMode.SHARED, 5.0, 5.0)
    assert write == Step(3, LockMode.EXCLUSIVE, 1.0, 2.0)
    assert str(read) == "r(P3:5)" and str(write) == "w(P3:1)"


def test_merged_admission_is_one_shared_verdict():
    admitted = [AdmissionResponse(True, cpu_cost=2.0)]
    first = merge_admission_responses(admitted)
    assert first is merge_admission_responses(admitted * 2)
    assert first == AdmissionResponse(True)
    rejected = merge_admission_responses(
        [AdmissionResponse(True), AdmissionResponse(False, reason="K")])
    assert rejected == AdmissionResponse(False, reason="K")
