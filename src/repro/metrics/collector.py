"""Per-run metric collection and the summary it produces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.transaction import TransactionRuntime


@dataclass
class RunMetrics:
    """Summary of one simulation run."""

    scheduler: str
    arrival_rate_tps: float
    sim_clocks: float
    arrivals: int
    commits: int
    mean_response_time: float      # clocks
    max_response_time: float       # clocks
    throughput_tps: float
    mean_attempts: float           # admission attempts per committed txn
    dn_utilization: float          # mean over data nodes
    cn_utilization: float
    weight_messages: int
    lock_retries: int              # blocked/delayed request re-submissions
    aborts: int = 0                # all mid-flight aborts (any cause)
    wasted_objects: float = 0.0    # bulk work discarded by those aborts
    fault_aborts: int = 0          # injected assassinations (repro.faults)
    crash_aborts: int = 0          # victims of data-node crashes
    cascade_aborts: int = 0        # precedence-successor cascade victims
    restarts: int = 0              # aborted transactions re-admitted
    node_crashes: int = 0          # injected node crash events
    void_cascades: int = 0         # cascade dooms that found no victim
    cn_crashes: int = 0            # injected control-node crash events
    cn_recoveries: int = 0         # control-node log replays completed
    twopc_rounds: int = 0          # cross-shard prepare/commit rounds
    recovery_records: int = 0      # log end LSNs recovered to, summed
    recovery_clocks: float = 0.0   # total simulated CN downtime
    fault_timeline: List[Dict[str, object]] = field(default_factory=list)
    scheduler_stats: Dict[str, float] = field(default_factory=dict)
    response_time_by_label: Dict[str, float] = field(default_factory=dict)
    cn_utilizations: List[float] = field(default_factory=list)

    @property
    def mean_response_time_seconds(self) -> float:
        return self.mean_response_time / 1000.0

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


class MetricsCollector:
    """Accumulates events during a run; produces a :class:`RunMetrics`."""

    def __init__(self) -> None:
        self.arrivals = 0
        self.lock_retries = 0
        self.aborts = 0
        self.wasted_objects = 0.0
        self.fault_aborts = 0
        self.crash_aborts = 0
        self.cascade_aborts = 0
        self.restarts = 0
        self.node_crashes = 0
        self.void_cascades = 0
        self.cn_crashes = 0
        self.cn_recoveries = 0
        self.twopc_rounds = 0
        self.recovery_records = 0
        self.recovery_clocks = 0.0
        self.fault_timeline: List[Dict[str, object]] = []
        # Running aggregates over committed transactions, so a run's
        # memory does not grow with its commits.
        self._commits = 0
        self._rt_sum = 0.0
        self._rt_max = float("-inf")
        self._attempts_sum = 0
        self._by_label: Dict[str, List[float]] = {}  # label -> [sum, count]

    def record_arrival(self) -> None:
        self.arrivals += 1

    def record_lock_retry(self, retries: int = 1) -> None:
        self.lock_retries += retries

    def record_abort(self, txn: TransactionRuntime,
                     cause: str = "deadlock", now: float = 0.0) -> None:
        """A mid-flight abort: its work so far is wasted.

        ``cause`` is ``"deadlock"`` (the legacy 2PL/WAIT-DIE restart),
        ``"injected"``, ``"crash"``, ``"cn_crash"`` or ``"cascade"``;
        fault-induced causes additionally land on the fault timeline.
        """
        self.aborts += 1
        self.wasted_objects += txn.objects_done
        if cause == "deadlock":
            return
        if cause == "injected":
            self.fault_aborts += 1
        elif cause in ("crash", "cn_crash"):
            self.crash_aborts += 1
        elif cause == "cascade":
            self.cascade_aborts += 1
        self.fault_timeline.append({
            "time": now, "kind": "abort", "tid": txn.tid, "cause": cause,
            "step": txn.current_step,
            "wasted_objects": txn.objects_done})

    def record_restart(self) -> None:
        """An aborted transaction made it back through admission."""
        self.restarts += 1

    def record_void_cascade(self) -> None:
        """A cascade doom that found its victim not running (void)."""
        self.void_cascades += 1

    def record_2pc_round(self, rounds: int = 1) -> None:
        """``rounds`` cross-shard prepare/commit message rounds ran."""
        self.twopc_rounds += rounds

    def record_recovery(self, records: int, downtime: float) -> None:
        """A crashed control node finished replaying its dependency log."""
        self.cn_recoveries += 1
        self.recovery_records += records
        self.recovery_clocks += downtime

    def record_fault(self, kind: str, now: float, **detail: object) -> None:
        """A machine-level fault event (crash/recovery/slowdown window)."""
        if kind == "node_crash":
            self.node_crashes += 1
        elif kind == "cn_crash":
            self.cn_crashes += 1
        entry: Dict[str, object] = {"time": now, "kind": kind}
        entry.update(detail)
        self.fault_timeline.append(entry)

    def record_commit(self, txn: TransactionRuntime, now: float) -> None:
        response_time = now - txn.arrival_time
        self._commits += 1
        self._rt_sum += response_time
        if response_time > self._rt_max:
            self._rt_max = response_time
        self._attempts_sum += txn.attempts + 1
        label = getattr(txn.spec, "label", "")
        if label:
            entry = self._by_label.setdefault(label, [0.0, 0])
            entry[0] += response_time
            entry[1] += 1

    @property
    def commits(self) -> int:
        return self._commits

    def mean_response_time_by_label(self) -> Dict[str, float]:
        """Per-class mean RT (only classes with at least one commit)."""
        return {label: total / count
                for label, (total, count) in self._by_label.items()}

    def summarise(self, scheduler: str, arrival_rate_tps: float,
                  sim_clocks: float, dn_utilization: float,
                  cn_utilization: float, weight_messages: int,
                  scheduler_stats: Optional[Dict[str, float]] = None,
                  cn_utilizations: Optional[List[float]] = None,
                  ) -> RunMetrics:
        commits = self._commits
        mean_rt = self._rt_sum / commits if commits else float("inf")
        max_rt = self._rt_max if commits else float("inf")
        mean_attempts = self._attempts_sum / commits if commits else 0.0
        return RunMetrics(
            scheduler=scheduler,
            arrival_rate_tps=arrival_rate_tps,
            sim_clocks=sim_clocks,
            arrivals=self.arrivals,
            commits=self._commits,
            mean_response_time=mean_rt,
            max_response_time=max_rt,
            throughput_tps=self._commits / (sim_clocks / 1000.0),
            mean_attempts=mean_attempts,
            dn_utilization=dn_utilization,
            cn_utilization=cn_utilization,
            weight_messages=weight_messages,
            lock_retries=self.lock_retries,
            aborts=self.aborts,
            wasted_objects=self.wasted_objects,
            fault_aborts=self.fault_aborts,
            crash_aborts=self.crash_aborts,
            cascade_aborts=self.cascade_aborts,
            restarts=self.restarts,
            node_crashes=self.node_crashes,
            void_cascades=self.void_cascades,
            cn_crashes=self.cn_crashes,
            cn_recoveries=self.cn_recoveries,
            twopc_rounds=self.twopc_rounds,
            recovery_records=self.recovery_records,
            recovery_clocks=self.recovery_clocks,
            fault_timeline=list(self.fault_timeline),
            scheduler_stats=dict(scheduler_stats or {}),
            response_time_by_label=self.mean_response_time_by_label(),
            cn_utilizations=(list(cn_utilizations)
                             if cn_utilizations is not None
                             else [cn_utilization]),
        )
