"""The data-node loop equals the literal oracle on perfbench's replications.

perfbench (``perfbench/workloads.py``) builds the benchmark's
simulations; here each replication runs twice, once with
:class:`repro.machine.DataNode` and once with every node the literal
:class:`tests.oracles.ReferenceDataNode`, and the two ``RunMetrics``
must be equal.  Tier-1 runs a pinned set: the ``hotset_k2``
replications whose metrics a stale completion bound once changed
(8 of the 67 of a 12-second seed-11 run), plus a few others.  With
``REPRO_NODE_ORACLE_SECONDS=S`` it checks every replication of an
``S``-second seed-11 run instead; CI does so for ``hotset_k2`` and
``shard_recovery`` at 12 seconds (67 + 63 replications).
"""

import os

import pytest

from perfbench.workloads import WORKLOADS
from tests.oracles import reference_data_nodes

SEED = 11

#: 0 runs the pinned replications; otherwise the length in seconds of
#: the seed-11 perfbench run whose every replication is compared.
SECONDS = float(os.environ.get("REPRO_NODE_ORACLE_SECONDS", "0"))

PINNED = {
    "hotset_k2": [11001, 11020, 11028, 11029, 11039, 11046, 11050, 11066,
                  11000, 11002],
    "shard_recovery": [11000, 11001, 11002],
    "scan_window": [11000],
}


def replications(name):
    if SECONDS:
        return WORKLOADS[name].rep_seeds(SEED, SECONDS)
    return PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_replications_equal_the_literal_oracle(name):
    workload = WORKLOADS[name]
    differ = []
    for rep in replications(name):
        batched = workload.build(rep, False).run().metrics.as_dict()
        with reference_data_nodes():
            literal = workload.build(rep, False)
        if literal.run().metrics.as_dict() != batched:
            differ.append(rep)
    assert differ == [], f"{name}: RunMetrics differ from the oracle's"
