"""The benchmark's workloads: how to build one simulation of each.

Every workload is run the way ``repro.experiments`` runs a point: no
history, no tracer, ``node_mode="batched"`` (the default).  The one
exception is ``scan_window``, which attaches ``Tracer(sample_rate=0.01)``
-- the scale-run observability recipe of EXPERIMENTS.md.

A benchmark run is a fixed list of *replications*: independent
simulations of one workload whose seeds derive from the run's
``--seed``.  Pooling replications is what makes the figures steady
across seeds: one long run of a contended workload is dominated by its
few worst congestion episodes, so its p99 response time and its host
time per commit swing by a factor of two to four from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.config import SimulationParameters
from repro.core.transaction import Step, TransactionSpec
from repro.engine import RandomStreams
from repro.faults import ControlCrash, FaultPlan
from repro.machine.cluster import Cluster
from repro.machine.trace import Tracer
from repro.workloads import (bulk_scan_catalog, pattern1, pattern1_catalog,
                             pattern2, pattern2_catalog)

#: Replication seeds are ``seed * SEED_STRIDE + index``, so two run
#: seeds never share a replication while a run has fewer replications.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``build(rep_seed, check)`` returns a ready-to-run :class:`Cluster`;
    ``check=True`` builds the correctness-check twin of the timed run:
    the same simulation with a recorded history and a full tracer.
    ``rep_host_s`` is the host time of one replication at reference
    speed (``calibrate.py``).  It converts ``--seconds`` into a
    replication count without a live measurement, so the same arguments
    always simulate the same replications.
    """

    name: str
    build: Callable[[int, bool], Cluster]
    rep_host_s: float

    def rep_seeds(self, seed: int, seconds: float) -> List[int]:
        count = max(2, round(seconds / self.rep_host_s))
        if count >= SEED_STRIDE:
            raise ValueError(f"{self.name}: {count} replications exceed "
                             f"the seed stride {SEED_STRIDE}")
        return [seed * SEED_STRIDE + index for index in range(count)]


def _tracer(check: bool, sample_rate: Optional[float]) -> Optional[Tracer]:
    if check:
        return Tracer()
    return None if sample_rate is None else Tracer(sample_rate=sample_rate)


# -- scan_window --------------------------------------------------------------

SCAN_NODES = 64
SCAN_TPS = 0.002
SCAN_BATS = 500
SCAN_OBJECTS = (256.0, 768.0)
SCAN_PARTITIONS = tuple(range(SCAN_NODES))


def scan_bat(tid: int, streams: RandomStreams) -> TransactionSpec:
    """``bulk_scan``'s BAT with a uniform scan length of mean 512 objects.

    With the fixed 512-object scan every BAT of this light load runs
    alone, so every response time is exactly 10.355 s: a constant that
    says nothing about the run.  A varying length keeps the regime and
    the mean work, and makes the response time a distribution.
    """
    partition = streams.choice("bulk-scan-partition", SCAN_PARTITIONS)
    objects = streams.uniform("bulk-scan-length", *SCAN_OBJECTS)
    return TransactionSpec(tid, [Step.read(partition, objects),
                                 Step.write(partition, 1.0)])


def _scan_window(rep_seed: int, check: bool) -> Cluster:
    params = SimulationParameters(
        scheduler="K2", arrival_rate_tps=SCAN_TPS,
        sim_clocks=SCAN_BATS * 1000.0 / SCAN_TPS, seed=rep_seed,
        num_nodes=SCAN_NODES, num_partitions=SCAN_NODES, obj_time=20.0)
    return Cluster(params, scan_bat,
                   catalog=bulk_scan_catalog(num_partitions=SCAN_NODES,
                                             num_nodes=SCAN_NODES),
                   record_history=check, tracer=_tracer(check, 0.01))


# -- hotset_k2 ----------------------------------------------------------------

HOTSET_TPS = 0.45
HOTSET_CLOCKS = 500_000.0
NUM_HOTS = 8


def _hotset_k2(rep_seed: int, check: bool) -> Cluster:
    params = SimulationParameters(
        scheduler="K2", arrival_rate_tps=HOTSET_TPS,
        sim_clocks=HOTSET_CLOCKS, seed=rep_seed,
        num_partitions=8 + NUM_HOTS)
    return Cluster(params, pattern2(num_hots=NUM_HOTS),
                   catalog=pattern2_catalog(num_hots=NUM_HOTS),
                   record_history=check, tracer=_tracer(check, None))


# -- shard_recovery -----------------------------------------------------------

RECOVERY_TPS = 0.2
RECOVERY_CLOCKS = 500_000.0
CRASH_EVERY = 25_000.0
DOWNTIME = 5_000.0


def crash_plan(sim_clocks: float) -> FaultPlan:
    """CN ``i mod 2`` crashes every CRASH_EVERY clocks, down for DOWNTIME."""
    crashes = []
    at = CRASH_EVERY
    while at + DOWNTIME < sim_clocks:
        crashes.append(ControlCrash(cn=len(crashes) % 2, at=at,
                                    recover_at=at + DOWNTIME))
        at += CRASH_EVERY
    return FaultPlan(control_crashes=tuple(crashes))


def _shard_recovery(rep_seed: int, check: bool) -> Cluster:
    params = SimulationParameters(
        scheduler="CHAIN", arrival_rate_tps=RECOVERY_TPS,
        sim_clocks=RECOVERY_CLOCKS, seed=rep_seed, num_partitions=16,
        num_control_nodes=2)
    return Cluster(params, pattern1(16), catalog=pattern1_catalog(),
                   record_history=check, tracer=_tracer(check, None),
                   fault_plan=crash_plan(RECOVERY_CLOCKS))


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("scan_window", _scan_window, rep_host_s=0.25),
        Workload("hotset_k2", _hotset_k2, rep_host_s=0.18),
        Workload("shard_recovery", _shard_recovery, rep_host_s=0.19),
    )
}
