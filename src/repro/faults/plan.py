"""The fault-injection plan DSL.

A :class:`FaultPlan` is a frozen, declarative description of every fault
a run should suffer.  It carries no randomness of its own: stochastic
elements (the abort rate, declared-cost error) only fix *distributions*;
the draws happen inside :class:`~repro.faults.injector.FaultInjector`
on named :class:`~repro.engine.rng.RandomStreams` substreams, so the
realised fault schedule is a pure function of (plan, master seed).

Plans serialise to JSON (:meth:`FaultPlan.to_json`) and back
(:meth:`FaultPlan.from_json` / :meth:`FaultPlan.from_file`), which is
the format the CLI's ``--faults plan.json`` option reads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FaultPlanError

RETRY_KINDS = ("fixed", "immediate", "exponential")


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
class RetryPolicy:
    """How long an aborted transaction waits before re-admission.

    * ``fixed`` — always ``delay`` (``None`` means the machine's
      configured ``retry_delay``);
    * ``immediate`` — re-submit in the same instant;
    * ``exponential`` — ``delay * 2**(attempt-1)``, clamped at ``cap``
      (``cap = None`` means unbounded).
    """

    kind: str = "fixed"
    delay: Optional[float] = None
    cap: Optional[float] = None

    def validate(self) -> None:
        if self.kind not in RETRY_KINDS:
            raise FaultPlanError(
                f"retry kind must be one of {RETRY_KINDS}, got {self.kind!r}")
        if self.delay is not None and self.delay < 0:
            raise FaultPlanError(
                f"retry delay must be >= 0, got {self.delay}")
        if self.cap is not None and self.cap <= 0:
            raise FaultPlanError(f"retry cap must be positive, got {self.cap}")

    def delay_for(self, attempt: int, default_delay: float) -> float:
        """The wait before re-admission attempt number ``attempt`` + 1.

        ``attempt`` counts completed attempts (>= 1 after the first
        abort); ``default_delay`` is the machine's ``retry_delay``.
        """
        if self.kind == "immediate":
            return 0.0
        base = self.delay if self.delay is not None else default_delay
        if self.kind == "fixed":
            return base
        backoff = base * (2.0 ** max(0, attempt - 1))
        if self.cap is not None and backoff > self.cap:
            return self.cap
        return backoff


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong during one run.

    ``abort_rate`` is the per-admission probability that the admitted
    attempt is assassinated at a uniformly random point of its life;
    ``declared_cost_factor`` scales every declared ``costof`` (values
    below 1 model systematic under-declaration) and
    ``declared_cost_sigma`` adds the Experiment 4 relative normal error
    on top.  ``cascade`` extends every abort to the victim's direct
    precedence successors in the WTPG.  ``retry = None`` restarts after
    the machine's ``retry_delay`` (a default ``RetryPolicy()``).  A node
    (data or control) cannot crash again until its previous crash has
    recovered.
    """

    crashes: Tuple[NodeCrash, ...] = ()
    control_crashes: Tuple[ControlCrash, ...] = ()
    step_aborts: Tuple[StepAbort, ...] = ()
    slowdowns: Tuple[PartitionSlowdown, ...] = ()
    abort_rate: float = 0.0
    declared_cost_sigma: float = 0.0
    declared_cost_factor: float = 1.0
    cascade: bool = False
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "control_crashes",
                           tuple(self.control_crashes))
        object.__setattr__(self, "step_aborts", tuple(self.step_aborts))
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        if not 0.0 <= self.abort_rate <= 1.0:
            raise FaultPlanError(
                f"abort_rate must lie in [0, 1], got {self.abort_rate}")
        if self.declared_cost_sigma < 0:
            raise FaultPlanError(
                "declared_cost_sigma must be >= 0, got "
                f"{self.declared_cost_sigma}")
        if self.declared_cost_factor <= 0:
            raise FaultPlanError(
                "declared_cost_factor must be positive, got "
                f"{self.declared_cost_factor}")
        for item in (*self.crashes, *self.control_crashes,
                     *self.step_aborts, *self.slowdowns):
            item.validate()
        if self.retry is not None:
            self.retry.validate()
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
        """True when the plan injects nothing and overrides nothing."""
        return (not self.crashes and not self.control_crashes
                and not self.step_aborts
                and not self.slowdowns and self.abort_rate == 0.0
                and self.declared_cost_sigma == 0.0
                and self.declared_cost_factor == 1.0
                and not self.cascade and self.retry is None)

    def distorts_declarations(self) -> bool:
        return (self.declared_cost_sigma > 0.0
                or self.declared_cost_factor != 1.0)

    # -- JSON round-trip ------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        raw = asdict(self)
        raw["crashes"] = [asdict(c) for c in self.crashes]
        raw["control_crashes"] = [asdict(c) for c in self.control_crashes]
        raw["step_aborts"] = [asdict(a) for a in self.step_aborts]
        raw["slowdowns"] = [asdict(s) for s in self.slowdowns]
        raw["retry"] = None if self.retry is None else asdict(self.retry)
        return raw

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(raw, dict):
            raise FaultPlanError("fault plan JSON must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan fields: {sorted(unknown)}")
        data = dict(raw)
        try:
            data["crashes"] = tuple(
                NodeCrash(**c) for c in data.get("crashes", ()))
            data["control_crashes"] = tuple(
                ControlCrash(**c) for c in data.get("control_crashes", ()))
            data["step_aborts"] = tuple(
                StepAbort(**a) for a in data.get("step_aborts", ()))
            data["slowdowns"] = tuple(
                PartitionSlowdown(**s) for s in data.get("slowdowns", ()))
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault entry: {exc}") from exc
        retry = data.get("retry")
        if retry is not None:
            try:
                data["retry"] = RetryPolicy(**retry)
            except TypeError as exc:
                raise FaultPlanError(
                    f"malformed retry policy: {exc}") from exc
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
