"""Seeded bugs of the retired typestate rules, caught by their runtime twins.

* RL006 (lock lifecycle): a CHAIN scheduler that registers a BAT before
  its chain-form verdict leaves every rejected BAT registered in the
  lock table but not in the WTPG.  Invariant 1 of
  :mod:`repro.core.invariants` ("node set == registered set") reports
  the leak, and a validated run fails with a :class:`SchedulerError`
  (in a full run the rejected BAT's retry re-registers it first, which
  the lock table refuses).
* RL013 (BAT lifecycle): mutants of the control plane's real lifecycle
  raise :class:`LifecycleError` from the run.

Each test also runs the unmutated code on the same input and sees it pass.
"""

import types
from pathlib import Path

import pytest

import repro.machine.shard as shard_module
from repro import SimulationParameters
from repro.core import Step, TransactionRuntime, TransactionSpec, builder
from repro.core.history import History
from repro.core.invariants import find_violations
from repro.core.schedulers import ChainScheduler, make_scheduler
from repro.core.schedulers.base import AdmissionResponse
from repro.engine import Environment
from repro.errors import LifecycleError, SchedulerError
from repro.machine import Catalog, Cluster, DataNode
from repro.metrics import MetricsCollector
from repro.workloads import pattern1, pattern1_catalog


class RegisterFirstChain(ChainScheduler):
    """CHAIN with the registration moved above the chain-form verdict."""

    def _admit(self, txn, now):
        spec, table = txn.spec, self.table
        own = table.declare(spec)
        table.register(spec, own)
        partners = builder.partner_conflicts(table, spec, own)
        reason = self._admission_constraint(txn, partners, now)
        if reason is None:
            builder.add_transaction(self.wtpg, table, spec, partners)
            self._after_admit(txn, now)
            return AdmissionResponse(True, cpu_cost=self._admission_cost())
        return AdmissionResponse(False, cpu_cost=self._admission_cost(),
                                 reason=reason)


def run_chain(factory):
    params = SimulationParameters(scheduler="CHAIN", arrival_rate_tps=0.9,
                                  sim_clocks=60_000, seed=4,
                                  num_partitions=16)
    result = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                     scheduler_factory=factory).run()
    result.validate()
    return result


def test_rl006_registering_before_the_verdict_fails_the_validated_run():
    result = run_chain(ChainScheduler)
    # The input does reach the chain-form reject path.
    assert result.metrics.scheduler_stats["admission_rejects"] > 0
    with pytest.raises(SchedulerError):
        run_chain(RegisterFirstChain)


def test_rl006_twin_is_invariant_1():
    """The leaked registration is what invariant 1 reports."""
    sched = RegisterFirstChain()
    runtimes = [TransactionRuntime(TransactionSpec(
        tid, [Step.write(0, 1)])) for tid in (1, 2, 3)]
    # A third writer of one partition closes a cycle: not chain-form.
    verdicts = [sched.admit(txn).admitted for txn in runtimes]
    assert verdicts == [True, True, False]
    [problem] = find_violations(sched.table, sched.wtpg)
    assert problem == "node set [1, 2] != registered [1, 2, 3]"


# -- RL013: mutants of machine/shard.py ----------------------------------------

SHARD_SOURCE = Path(shard_module.__file__).read_text(encoding="utf-8")

#: name -> (committed text, mutated text, expected error).
MUTANTS = {
    # Roll a refused admission back twice on a shard that admitted.
    "double-rollback": (
        "                            self._excise(txn.tid, sid, subs[sid])\n",
        "                            self._excise(txn.tid, sid, subs[sid])\n"
        "                            self._excise(txn.tid, sid, subs[sid])\n",
        "T2: abort while aborted"),
    # Roll back the shards that refused, too.
    "rollback-the-refusers": (
        "                        if responses[sid].admitted:\n"
        "                            self._excise(",
        "                        if True:\n"
        "                            self._excise(",
        "T2: abort while rejected"),
    # Restart the coordinator's runtime without ending its attempt.
    "restart-while-active": (
        "            txn.mark_aborted()\n", "",
        "T1: restart while active"),
}


def mutant_plane(name):
    committed, mutated, _ = MUTANTS[name]
    assert SHARD_SOURCE.count(committed) == 1, f"{name}: shard.py changed"
    module = types.ModuleType(f"shard_{name.replace('-', '_')}")
    exec(compile(SHARD_SOURCE.replace(committed, mutated), module.__name__,
                 "exec"), module.__dict__)
    return module.ControlPlane


def drive(plane_class, name):
    """Two CNs under K-WTPG with K=0.  T1 writes partition 1 (CN 1).
    T2 writes partitions 0 and 1: CN 0 admits it and CN 1 refuses it,
    so the plane rolls CN 0 back.  ``restart-while-active`` instead
    dooms T1 once it runs."""
    params = SimulationParameters(scheduler="KWTPG", k_conflicts=0,
                                  num_control_nodes=2, num_partitions=8)
    env = Environment()
    nodes = [DataNode(env, i, params.obj_time)
             for i in range(params.num_nodes)]
    plane = plane_class(
        env, params,
        lambda: make_scheduler("KWTPG", **params.scheduler_kwargs()),
        Catalog.uniform(8, 5.0, params.num_nodes), nodes,
        MetricsCollector(), history=History())
    t1 = TransactionRuntime(TransactionSpec(1, [Step.write(1, 2)]))
    t2 = TransactionRuntime(TransactionSpec(
        2, [Step.write(0, 1), Step.write(1, 1)]))
    env.process(plane.transaction_process(t1))
    if name == "restart-while-active":
        env.run(until=100)
        assert plane.request_abort(1, "cascade")
    else:
        env.process(plane.transaction_process(t2))
    env.run()
    return t1, t2


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_rl013_shard_mutants_raise_lifecycle_error(name):
    t1, t2 = drive(shard_module.ControlPlane, name)
    assert t1.committed
    assert t2.committed or name == "restart-while-active"
    assert t1.attempts + t2.attempts > 0  # the mutated path ran
    with pytest.raises(LifecycleError, match=MUTANTS[name][2]):
        drive(mutant_plane(name), name)
