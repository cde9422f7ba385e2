"""K-WTPG's E(q) shortcuts equal the full rule on perfbench's replications.

perfbench (``perfbench/workloads.py``) builds the benchmark's
simulations; here each ``hotset_k2`` replication runs twice, once as
shipped and once under :func:`tests.oracles.reference_estimator`, which
evaluates every E(q) on a deep copy of the WTPG and sends every
decision down the paper's full rule (no cycle-check grant for an empty
``C(q)``, no dominated-rivals grant).  The two ``RunMetrics`` must be
equal, ``scheduler_stats`` included.  Tier-1 runs a pinned set.  With
``REPRO_ESTIMATOR_ORACLE_SECONDS=S`` it checks every replication of an
``S``-second seed-11 run instead; CI does so at 12 seconds (67
replications).
"""

import os

from perfbench.workloads import WORKLOADS
from tests.oracles import reference_estimator

SEED = 11

#: 0 runs the pinned replications; otherwise the length in seconds of
#: the seed-11 perfbench run whose every replication is compared.
SECONDS = float(os.environ.get("REPRO_ESTIMATOR_ORACLE_SECONDS", "0"))

PINNED = [11000, 11001, 11002]


def test_hotset_replications_equal_the_full_rule():
    workload = WORKLOADS["hotset_k2"]
    reps = workload.rep_seeds(SEED, SECONDS) if SECONDS else PINNED
    differ = []
    for rep in reps:
        shipped = workload.build(rep, False).run().metrics.as_dict()
        assert shipped["scheduler_stats"]["estimator_calls"] > 0
        with reference_estimator():
            full = workload.build(rep, False).run().metrics.as_dict()
        if full != shipped:
            differ.append(rep)
    assert differ == [], "hotset_k2: RunMetrics differ from the full rule's"
