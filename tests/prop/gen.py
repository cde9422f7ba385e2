"""Generators for the property-based harness (stdlib random only).

Every generated case is a pure function of ``MASTER_SEED`` (overridable
via the ``REPRO_PROP_SEED`` environment variable, which is how CI pins
it) and the case name, derived through the same SHA-256 seed-splitting
the simulator itself uses — no ``hypothesis``, no ambient randomness, so
a failing case replays from its name alone.
"""

import os
import random
from typing import Callable, Optional

from repro.config import SimulationParameters
from repro.core.transaction import Step, TransactionSpec
from repro.engine.rng import RandomStreams, derive_seed
from repro.faults import (ControlCrash, FaultPlan, NodeCrash,
                          PartitionSlowdown, StepAbort)
from repro.workloads.errors import declare_with_error

MASTER_SEED = int(os.environ.get("REPRO_PROP_SEED", "20260806"))

# Tiny machines: the invariants are structural, not throughput-bound,
# so each run only needs a handful of overlapping transactions.
NUM_NODES = 4
NUM_PARTITIONS = 8
SIM_CLOCKS = 2_500.0
OBJ_TIME = 20.0


def case_rng(name: str) -> random.Random:
    """A stdlib PRNG reproducibly derived from the master seed."""
    return random.Random(derive_seed(MASTER_SEED, name))


def make_workload(rng: random.Random) -> Callable[[int, RandomStreams],
                                                  TransactionSpec]:
    """A random BAT workload: shape parameters fixed per case."""
    max_steps = rng.randint(1, 4)
    write_prob = rng.uniform(0.3, 0.9)
    max_cost = rng.randint(1, 5)

    def workload(tid: int, streams: RandomStreams) -> TransactionSpec:
        n = streams.randint("prop-wl", 1, max_steps)
        steps = []
        for _ in range(n):
            partition = streams.randint("prop-wl", 0, NUM_PARTITIONS - 1)
            cost = float(streams.randint("prop-wl", 1, max_cost))
            if streams.uniform("prop-wl", 0.0, 1.0) < write_prob:
                steps.append(Step.write(partition, cost))
            else:
                steps.append(Step.read(partition, cost))
        return TransactionSpec(tid, steps)

    return workload


def with_declared_error(rng: random.Random,
                        workload: Callable[[int, RandomStreams],
                                           TransactionSpec],
                        ) -> Callable[[int, RandomStreams], TransactionSpec]:
    """``workload`` with a per-case declared-cost error.

    Experiment 4's relative normal error (sigma) and a systematic factor
    (below 1 under-declares) are drawn per case; actual costs stay the
    truth, so the schedulers run on wrong weights.
    """
    sigma = rng.uniform(0.0, 1.0) if rng.random() < 0.3 else 0.0
    factor = rng.uniform(0.5, 2.0) if rng.random() < 0.2 else 1.0
    if sigma == 0.0 and factor == 1.0:
        return workload

    def declared(tid: int, streams: RandomStreams) -> TransactionSpec:
        steps = declare_with_error(workload(tid, streams).steps, streams,
                                   sigma)
        return TransactionSpec(tid, [
            Step(step.partition, step.mode, step.cost,
                 declared_cost=step.declared_cost * factor)
            for step in steps])

    return declared


def make_fault_plan(rng: random.Random) -> Optional[FaultPlan]:
    """A random fault plan; None ~30% of the time (fault-free control)."""
    if rng.random() < 0.3:
        return None
    crashes = []
    if rng.random() < 0.4:
        at = rng.uniform(100.0, SIM_CLOCKS * 0.6)
        recover = (at + rng.uniform(50.0, SIM_CLOCKS * 0.3)
                   if rng.random() < 0.7 else None)
        crashes.append(NodeCrash(rng.randrange(NUM_NODES), at,
                                 recover_at=recover))
    step_aborts = []
    if rng.random() < 0.4:
        for tid in rng.sample(range(1, 8), rng.randint(1, 3)):
            step_aborts.append(StepAbort(tid, rng.randint(0, 4),
                                         attempt=rng.randint(1, 2)))
    slowdowns = []
    if rng.random() < 0.3:
        at = rng.uniform(0.0, SIM_CLOCKS * 0.5)
        slowdowns.append(PartitionSlowdown(
            rng.randrange(NUM_PARTITIONS), rng.uniform(1.5, 4.0),
            at, at + rng.uniform(100.0, SIM_CLOCKS * 0.4)))
    return FaultPlan(
        crashes=tuple(crashes), step_aborts=tuple(step_aborts),
        slowdowns=tuple(slowdowns),
        abort_rate=rng.uniform(0.0, 0.4) if rng.random() < 0.6 else 0.0,
        cascade=rng.random() < 0.3)


def is_control_case(name: str) -> bool:
    """Control-plane cases (sharded CNs, CN crashes) dispatch by name,
    preserving the replay-from-name-alone property."""
    return "-cn-" in name


def make_control_params(rng: random.Random,
                        scheduler: str) -> SimulationParameters:
    """Sharded-plane parameters: :func:`make_params` plus 2-4 CNs."""
    return make_params(rng, scheduler).with_overrides(
        num_control_nodes=rng.choice((2, 3, 4)))


def make_control_fault_plan(rng: random.Random,
                            num_control_nodes: int) -> FaultPlan:
    """A fault plan that always kills control nodes mid-run.

    At most one crash per CN — the injector runs one crash/recovery
    process per plan entry, and a recovery racing a second crash of the
    same shard is not a machine state the model defines.  ~80% of
    crashes recover, so most runs also exercise dependency-log replay;
    workload-level faults (step aborts, abort rate, cascades) ride along
    at make_fault_plan's rates.
    """
    cns = rng.sample(range(num_control_nodes),
                     rng.randint(1, min(2, num_control_nodes)))
    crashes = []
    for cn in sorted(cns):
        at = rng.uniform(100.0, SIM_CLOCKS * 0.6)
        recover = (at + rng.uniform(50.0, SIM_CLOCKS * 0.35)
                   if rng.random() < 0.8 else None)
        crashes.append(ControlCrash(cn, at, recover_at=recover))
    step_aborts = []
    if rng.random() < 0.3:
        for tid in rng.sample(range(1, 8), rng.randint(1, 2)):
            step_aborts.append(StepAbort(tid, rng.randint(0, 4),
                                         attempt=rng.randint(1, 2)))
    return FaultPlan(
        control_crashes=tuple(crashes), step_aborts=tuple(step_aborts),
        abort_rate=rng.uniform(0.0, 0.3) if rng.random() < 0.5 else 0.0,
        cascade=rng.random() < 0.3)


def make_params(rng: random.Random, scheduler: str) -> SimulationParameters:
    return SimulationParameters(
        scheduler=scheduler, num_nodes=NUM_NODES,
        num_partitions=NUM_PARTITIONS, obj_time=OBJ_TIME,
        sim_clocks=SIM_CLOCKS,
        arrival_rate_tps=rng.uniform(3.0, 8.0),
        seed=rng.randrange(1, 2**31),
        startup_time=1.0, commit_time=1.0, dd_time=0.5, chain_time=1.0,
        kwtpg_time=0.5, keep_time=rng.choice((100.0, 400.0)),
        admission_time=0.5, retry_delay=rng.uniform(5.0, 40.0))
