"""Guard: registered hot-path classes must stay fully ``__slots__``-ed.

A single forgotten ``__slots__`` in a subclass silently reintroduces a
per-instance ``__dict__`` for every event in the event heaps — an
allocation on the hottest path of a run.  The registry lives in
:data:`repro.engine.core.HOT_CLASSES`; new hot classes must register via
``@register_hot_class``.  The FIFO ``Resource`` of the control node's
CPU oracle (:mod:`tests.oracles.cpu`) registers too: its holds sit in
the same heaps during oracle runs.
"""

import pytest

import repro.machine.data_node  # noqa: F401  (registers its classes)
import tests.oracles.cpu  # noqa: F401
from repro.engine.core import HOT_CLASSES, Environment, Event


def mro_chain(cls):
    return [k for k in cls.__mro__ if k is not object]


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_class_defines_slots_through_its_whole_mro(cls):
    for base in mro_chain(cls):
        assert "__slots__" in vars(base), (
            f"{cls.__name__}: base {base.__name__} lacks __slots__ — "
            f"instances would carry a __dict__")


@pytest.mark.parametrize("cls", HOT_CLASSES, ids=lambda c: c.__name__)
def test_hot_class_instances_have_no_dict(cls):
    assert not any("__dict__" in vars(base) for base in mro_chain(cls)), (
        f"{cls.__name__} instances would allocate a __dict__")


def test_registry_covers_the_core_event_types():
    names = {cls.__name__ for cls in HOT_CLASSES}
    expected = {"Event", "Timeout", "Initialize", "Process", "AllOf",
                "Environment", "Request", "Hold", "Resource", "_WorkItem",
                "SlowdownToken"}
    missing = expected - names
    assert not missing, f"hot classes fell out of the registry: {missing}"


def test_events_reject_ad_hoc_attributes():
    env = Environment()
    event = Event(env)
    with pytest.raises(AttributeError):
        event.scratchpad = 1  # type: ignore[attr-defined]
