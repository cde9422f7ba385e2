"""Simulation parameters — Table 1 of the paper.

Values stated explicitly in the paper's text:

* ``ObjTime = 1000`` ms (1 second; "scanning about 60 tracks / 2.5 MB per
  disk in FDS-R") — time to process one object at a data node;
* ``keeptime = 5000`` ms — the control-saving period of Section 3.4;
* ``NumNodes = 8`` data-processing nodes;
* simulation horizon 2,000,000 clocks at 1 clock = 1 ms, multiprogramming
  level infinity.

Values present in Table 1 but illegible in the scanned figure are given
era-plausible defaults, documented per field; the control-time parameters
were "determined by instruction counts of the control programs" on a
``CPUspeed``-MIPS control node, so we size them to tens of thousands of
instructions on a ~1-MIPS processor.  Sensitivity to these knobs is small
because they are 1-5 % of ``ObjTime`` (see DESIGN.md and the ablation
benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Tuple, Type

from repro.errors import ConfigurationError


#: Field annotation -> accepted Python types, for type-checking JSON.
_JSON_TYPES: Dict[str, Tuple[type, ...]] = {
    "bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def json_value(what: str, declared: str, value: Any,
               error: Type[ConfigurationError] = ConfigurationError) -> Any:
    """``value`` read from JSON, checked against its declared type.

    ``declared`` is the field's annotation text; ``what`` names the field
    in the error.  bool is an int subclass; JSON true/false is never a
    number here.  An int is accepted (and stored as a float) where the
    field is a float, and ``Optional[...]`` also accepts null.
    """
    if declared.startswith("Optional["):
        if value is None:
            return None
        declared = declared[len("Optional["):-1]
    if (isinstance(value, bool) != (declared == "bool")
            or not isinstance(value, _JSON_TYPES[declared])):
        raise error(f"{what} must be {declared}, got "
                    f"{type(value).__name__} {value!r}")
    return float(value) if declared == "float" else value


@dataclass(frozen=True)
class SimulationParameters:
    """Every knob of the simulated shared-nothing machine."""

    # -- machine shape -----------------------------------------------------
    num_nodes: int = 8
    """Number of data-processing nodes (paper: NumNodes = 8)."""

    num_partitions: int = 16
    """Total partitions; placed at node = partition_id mod num_nodes."""

    num_control_nodes: int = 1
    """Control-plane shards.  1 (the paper's machine) runs the single
    centralized CN; >1 shards the lock table + WTPG across that many CNs
    (partition p is controlled by CN p mod num_control_nodes) with
    cross-shard transactions coordinated by 2PC among the CNs."""

    # -- timing (all in clocks; 1 clock = 1 ms) -----------------------------
    obj_time: float = 1000.0
    """Time to bulk-process one object at a data node (paper: 1 s)."""

    startup_time: float = 20.0
    """CN coordinator work to start a transaction (2PC initiation)."""

    commit_time: float = 50.0
    """CN coordinator work to commit (two-phase commitment)."""

    dd_time: float = 5.0
    """One deadlock-prediction test on the precedence graph (C2PL)."""

    chain_time: float = 20.0
    """One full SR-order optimisation (CHAIN, Table 1 'chaintime')."""

    kwtpg_time: float = 10.0
    """One E(q) evaluation (K-WTPG, Table 1 'kwtpgtime')."""

    keep_time: float = 5000.0
    """Control-saving period (paper: 5000 ms)."""

    admission_time: float = 5.0
    """One admission test (ASL preclaim scan, chain-form DFS, K-count)."""

    retry_delay: float = 500.0
    """Fixed delay before re-submitting a delayed/aborted request."""

    # -- workload / run ------------------------------------------------------
    arrival_rate_tps: float = 0.5
    """Mean transaction arrival rate, transactions per second (Poisson)."""

    sim_clocks: float = 2_000_000.0
    """Run length (paper: 2,000,000 clocks)."""

    seed: int = 1
    """Master seed for all random streams."""

    # -- scheduler ------------------------------------------------------------
    scheduler: str = "C2PL"
    """Scheduler name, resolved via repro.core.schedulers.make_scheduler."""

    k_conflicts: int = 2
    """K of the K-conflict constraint (paper evaluates K = 2)."""

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        if self.num_control_nodes < 1:
            raise ConfigurationError("num_control_nodes must be >= 1")
        if self.obj_time <= 0:
            raise ConfigurationError("obj_time must be positive")
        if self.arrival_rate_tps <= 0:
            raise ConfigurationError("arrival_rate_tps must be positive")
        if self.sim_clocks <= 0:
            raise ConfigurationError("sim_clocks must be positive")
        for name in ("startup_time", "commit_time", "dd_time", "chain_time",
                     "kwtpg_time", "keep_time", "admission_time"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.retry_delay <= 0:
            # Zero would make a blocked transaction re-request forever at
            # one instant: the simulation clock could never advance.
            raise ConfigurationError("retry_delay must be positive")
        if self.k_conflicts < 0:
            raise ConfigurationError("k_conflicts must be non-negative")

    @property
    def mean_interarrival_clocks(self) -> float:
        """Mean time between arrivals in clocks (1000 / TPS)."""
        return 1000.0 / self.arrival_rate_tps

    def node_of_partition(self, partition: int) -> int:
        """The paper's placement rule: node = partition mod NumNodes."""
        if not 0 <= partition < self.num_partitions:
            raise ConfigurationError(
                f"partition {partition} outside [0, {self.num_partitions})")
        return partition % self.num_nodes

    def with_overrides(self, **kwargs) -> "SimulationParameters":
        """A copy with some fields replaced (dataclasses.replace)."""
        return replace(self, **kwargs)

    def to_json(self) -> str:
        """Serialise every field as JSON (for experiment manifests)."""
        import json
        from dataclasses import asdict
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SimulationParameters":
        """Parse parameters from :meth:`to_json` output (validating)."""
        import json
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigurationError("parameter JSON must be an object")
        declared = {f.name: f.type for f in fields(cls)}
        unknown = set(raw) - set(declared)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter fields: {sorted(unknown)}")
        return cls(**{name: json_value(f"parameter {name!r}",
                                       str(declared[name]), value)
                      for name, value in raw.items()})

    def scheduler_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for the configured scheduler."""
        name = self.scheduler.upper()
        if name == "CHAIN":
            return {"chaintime": self.chain_time, "keeptime": self.keep_time,
                    "admission_time": self.admission_time}
        if name in ("K2", "KWTPG"):
            kwargs = {"kwtpgtime": self.kwtpg_time,
                      "keeptime": self.keep_time,
                      "admission_time": self.admission_time}
            if name == "KWTPG":
                kwargs["k"] = self.k_conflicts
            return kwargs
        if name in ("C2PL", "CHAIN-C2PL", "K2-C2PL"):
            return {"ddtime": self.dd_time,
                    "admission_time": self.admission_time}
        if name in ("2PL", "WAIT-DIE"):
            return {"ddtime": self.dd_time}
        if name == "ASL":
            return {"admission_time": self.admission_time}
        return {}

    def table1(self) -> Dict[str, str]:
        """The parameter listing in the shape of the paper's Table 1."""
        return {
            "NumNodes": str(self.num_nodes),
            "NumParts": str(self.num_partitions),
            "ObjTime": f"{self.obj_time:g} ms",
            "CPUspeed": "~1 MIPS (implied by control times)",
            "startuptime": f"{self.startup_time:g} ms",
            "committime": f"{self.commit_time:g} ms",
            "ddtime": f"{self.dd_time:g} ms",
            "chaintime": f"{self.chain_time:g} ms",
            "kwtpgtime": f"{self.kwtpg_time:g} ms",
            "keeptime (period of control-saving)": f"{self.keep_time:g} ms",
            "retry delay": f"{self.retry_delay:g} ms",
            "arrival rate": f"{self.arrival_rate_tps:g} TPS (exponential)",
            "simulation length": f"{self.sim_clocks:g} clocks (1 clock = 1 ms)",
            "multiprogramming level": "infinity",
        }
