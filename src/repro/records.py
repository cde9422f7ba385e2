"""``@record``: a ``@dataclass(frozen=True)`` without the instance dict,
for the steps, lock declarations and verdicts, and log records every BAT
builds.  dataclasses writes its equality, hash and ``repr``; its own
``__init__`` sets the slots through one pre-bound setter, where a frozen
dataclass looks ``object.__setattr__`` up per field."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import TYPE_CHECKING, Any, Callable, Tuple, Type, TypeVar, cast

if TYPE_CHECKING:
    from typing_extensions import dataclass_transform
else:  # in typing from Python 3.11 on; only type checkers read it
    def dataclass_transform(**kwargs: Any) -> Callable[[Any], Any]:
        return lambda decorated: decorated

_T = TypeVar("_T")


def _setattr(self: Any, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self: Any, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(self: Any) -> Tuple[Any, ...]:
    """Pickle and copy by re-construction from the field values."""
    return self.__class__, tuple(getattr(self, name)
                                 for name in self.__slots__)


@dataclass_transform(frozen_default=True)
def record(cls: Type[_T]) -> Type[_T]:
    """Rebuild ``cls`` as a record: its annotations, in order, are the
    fields, and a class attribute of a field's name is its default."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    scope = {f"_d_{name}": cls.__dict__[name]
             for name in names if name in cls.__dict__}
    params = ", ".join(f"{name}=_d_{name}" if f"_d_{name}" in scope
                       else name for name in names)
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    scope["_set"] = object.__setattr__
    exec(f"def __init__(self, {params}):{body}", scope)
    drop = names + ("__dict__", "__weakref__", "__dataclass_fields__",
                    "__dataclass_params__")
    namespace = {key: value for key, value in vars(
        dataclass(frozen=True, init=False)(cls)).items() if key not in drop}
    namespace.update(__slots__=names, __init__=scope["__init__"],
                     __qualname__=cls.__qualname__, __setattr__=_setattr,
                     __delattr__=_delattr, __reduce__=_reduce)
    return cast(Type[_T], type(cls.__name__, (), namespace))
