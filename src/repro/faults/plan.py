"""The fault-injection plan DSL.

A :class:`FaultPlan` is a frozen, declarative description of every fault
a run should suffer.  It carries no randomness of its own: the abort
rate only fixes a *distribution*; the draws happen inside
:class:`~repro.faults.injector.FaultInjector` on a named
:class:`~repro.engine.rng.RandomStreams` substream, so the realised
fault schedule is a pure function of (plan, master seed).

Plans serialise to JSON (:meth:`FaultPlan.to_json`) and back
(:meth:`FaultPlan.from_json` / :meth:`FaultPlan.from_file`), which is
the format the CLI's ``--faults plan.json`` option reads.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.config import json_value
from repro.errors import FaultPlanError


@dataclass(frozen=True)
class NodeCrash:
    """Data node ``node`` crashes at time ``at``.

    Every step resident on the node fails (its transaction aborts and
    restarts), and new dispatches to the node fail until ``recover_at``.
    ``recover_at = None`` means the node never comes back.
    """

    node: int
    at: float
    recover_at: Optional[float] = None

    def validate(self) -> None:
        if self.node < 0:
            raise FaultPlanError(f"crash node must be >= 0, got {self.node}")
        if self.at < 0:
            raise FaultPlanError(f"crash time must be >= 0, got {self.at}")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise FaultPlanError(
                f"recovery at {self.recover_at} must follow the crash "
                f"at {self.at}")


@dataclass(frozen=True)
class ControlCrash:
    """Control node (shard) ``cn`` crashes at time ``at``.

    The shard's volatile scheduler state (lock table + WTPG slice) is
    lost; transactions *coordinated* by the shard abort through the
    restart path, while transactions merely holding locks there stall
    until recovery.  At ``recover_at`` the shard replays its dependency
    log into a fresh scheduler and resumes service; ``recover_at = None``
    means the shard never comes back (its partitions stay unavailable).
    """

    cn: int
    at: float
    recover_at: Optional[float] = None

    def validate(self) -> None:
        if self.cn < 0:
            raise FaultPlanError(f"crash cn must be >= 0, got {self.cn}")
        if self.at < 0:
            raise FaultPlanError(f"crash time must be >= 0, got {self.at}")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise FaultPlanError(
                f"recovery at {self.recover_at} must follow the crash "
                f"at {self.at}")


@dataclass(frozen=True)
class StepAbort:
    """Abort transaction ``tid`` when it reaches step ``step``.

    Fires once, on execution attempt number ``attempt`` (1-based), just
    before the step's lock request; ``step`` equal to the transaction's
    step count aborts it between its last step and its commit.
    """

    tid: int
    step: int
    attempt: int = 1

    def validate(self) -> None:
        if self.step < 0:
            raise FaultPlanError(f"abort step must be >= 0, got {self.step}")
        if self.attempt < 1:
            raise FaultPlanError(
                f"abort attempt is 1-based, got {self.attempt}")


@dataclass(frozen=True)
class PartitionSlowdown:
    """I/O on ``partition``'s node is ``factor`` x slower on [at, until).

    The slowdown applies to the whole node holding the partition (I/O
    degradation is a device property, not a partition property); a
    declustered partition slows every node.  Overlapping windows
    compose multiplicatively.
    """

    partition: int
    factor: float
    at: float
    until: float

    def validate(self) -> None:
        if self.partition < 0:
            raise FaultPlanError(
                f"slowdown partition must be >= 0, got {self.partition}")
        if self.factor <= 0:
            raise FaultPlanError(
                f"slowdown factor must be positive, got {self.factor}")
        if self.at < 0 or self.until <= self.at:
            raise FaultPlanError(
                f"slowdown window [{self.at}, {self.until}) is empty or "
                "negative")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong during one run.

    ``abort_rate`` is the per-admission probability that the admitted
    attempt is assassinated at a uniformly random point of its life;
    ``cascade`` extends every abort to the victim's direct precedence
    successors in the WTPG.  An aborted attempt restarts after the
    machine's ``retry_delay``.  A node (data or control) cannot crash
    again until its previous crash has recovered.
    """

    crashes: Tuple[NodeCrash, ...] = ()
    control_crashes: Tuple[ControlCrash, ...] = ()
    step_aborts: Tuple[StepAbort, ...] = ()
    slowdowns: Tuple[PartitionSlowdown, ...] = ()
    abort_rate: float = 0.0
    cascade: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "control_crashes",
                           tuple(self.control_crashes))
        object.__setattr__(self, "step_aborts", tuple(self.step_aborts))
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        if not 0.0 <= self.abort_rate <= 1.0:
            raise FaultPlanError(
                f"abort_rate must lie in [0, 1], got {self.abort_rate}")
        for item in (*self.crashes, *self.control_crashes,
                     *self.step_aborts, *self.slowdowns):
            item.validate()
        seen = set()
        for abort in self.step_aborts:
            key = (abort.tid, abort.attempt)
            if key in seen:
                raise FaultPlanError(
                    f"duplicate step abort for T{abort.tid} attempt "
                    f"{abort.attempt}")
            seen.add(key)
        windows: Dict[str, List[Tuple[float, Optional[float]]]] = {}
        for crash in self.crashes:
            windows.setdefault(f"DN {crash.node}", []).append(
                (crash.at, crash.recover_at))
        for control in self.control_crashes:
            windows.setdefault(f"CN {control.cn}", []).append(
                (control.at, control.recover_at))
        for node, spans in windows.items():
            spans.sort(key=lambda span: span[0])
            for (at, recover_at), (next_at, _) in zip(spans, spans[1:]):
                if recover_at is None or next_at <= recover_at:
                    until = ("never recovers" if recover_at is None
                             else f"recovers at {recover_at}")
                    raise FaultPlanError(
                        f"{node} crashes at {next_at}, but its crash at "
                        f"{at} {until}")

    def empty(self) -> bool:
        """True when the plan injects nothing."""
        return (not self.crashes and not self.control_crashes
                and not self.step_aborts
                and not self.slowdowns and self.abort_rate == 0.0
                and not self.cascade)

    # -- JSON round-trip ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        raw = asdict(self)
        raw["crashes"] = [asdict(c) for c in self.crashes]
        raw["control_crashes"] = [asdict(c) for c in self.control_crashes]
        raw["step_aborts"] = [asdict(a) for a in self.step_aborts]
        raw["slowdowns"] = [asdict(s) for s in self.slowdowns]
        return raw

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(raw, dict):
            raise FaultPlanError("fault plan JSON must be an object")
        declared = {f.name: str(f.type) for f in fields(cls)}
        unknown = set(raw) - set(declared)
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan fields: {sorted(unknown)}")
        data: Dict[str, Any] = {}
        for name, value in raw.items():
            entry = _ENTRY_TYPES.get(name)
            if entry is None:
                data[name] = json_value(f"fault plan field {name!r}",
                                        declared[name], value,
                                        FaultPlanError)
            elif isinstance(value, list):
                data[name] = tuple(_entry(entry, f"{name}[{index}]", item)
                                   for index, item in enumerate(value))
            else:
                raise FaultPlanError(
                    f"fault plan field {name!r} must be a list, got "
                    f"{type(value).__name__} {value!r}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())


#: Entry type of each list field of a plan.
_ENTRY_TYPES: Dict[str, Any] = {
    "crashes": NodeCrash, "control_crashes": ControlCrash,
    "step_aborts": StepAbort, "slowdowns": PartitionSlowdown}


def _entry(cls: Any, where: str, raw: Any) -> Any:
    """One list entry of a plan (``where`` names it, e.g. crashes[0])."""
    if not isinstance(raw, dict):
        raise FaultPlanError(
            f"malformed fault entry {where}: expected an object, got "
            f"{raw!r}")
    declared = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(declared)
    missing = {name for name, f in declared.items()
               if f.default is MISSING} - set(raw)
    problems = [f"{kind} fields {sorted(names)}"
                for kind, names in (("unknown", unknown),
                                    ("missing", missing)) if names]
    if problems:
        raise FaultPlanError(
            f"malformed fault entry {where}: {'; '.join(problems)}")
    return cls(**{name: json_value(f"fault plan field '{where}.{name}'",
                                   str(declared[name].type), value,
                                   FaultPlanError)
                  for name, value in raw.items()})
