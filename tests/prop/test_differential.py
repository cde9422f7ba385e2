"""Differential tests: production code vs independent reference models.

* CHAIN's optimised full SR-order ``W`` must achieve exactly the
  critical-path length the paper's appendix O(N^2) DP predicts, on 200
  random chain-form instances admitted through the real scheduler;
* the copy-free overlay E(q) estimator must stay value-identical to the
  deep-copy oracle (``tests.oracles.estimate_reference``) on graphs
  that lost nodes to aborts.
"""

import random

from repro.core import WTPG
from repro.core.chain import chain_components
from repro.core.chain_opt import ChainPair
from repro.core.estimator import estimate_contention
from repro.core.schedulers import make_scheduler
from repro.core.transaction import Step, TransactionRuntime, TransactionSpec
from repro.engine.rng import derive_seed
from tests.oracles import estimate_reference
from tests.oracles.appendix import appendix_shortest_critical_path, from_chain
from tests.prop.gen import MASTER_SEED

NUM_CHAIN_CASES = 200
NUM_ABORT_CASES = 200


def rt(tid, steps):
    return TransactionRuntime(TransactionSpec(tid, steps))


class TestChainWMatchesAppendix:
    """CHAIN's W vs the appendix DP, end to end through the scheduler."""

    def chain_instance(self, rng):
        """N transactions forming one chain: T_i and T_{i+1} share
        partition i.  Integer costs keep float comparisons exact."""
        n = rng.randint(2, 8)
        txns = [rt(1, [Step.write(1, float(rng.randint(1, 9)))])]
        for i in range(2, n + 1):
            txns.append(rt(i, [
                Step.write(i - 1, float(rng.randint(1, 9))),
                Step.write(i, float(rng.randint(1, 9)))]))
        return txns

    def appendix_length(self, wtpg):
        """The DP's optimum over every (fully free) chain component."""
        best = 0.0
        for component in chain_components(wtpg):
            if len(component) < 2:
                best = max(best, wtpg.source_weight(component[0]))
                continue
            sources = [wtpg.source_weight(tid) for tid in component]
            pairs = []
            for left, right in zip(component, component[1:]):
                edge = wtpg.pair(left, right)
                pairs.append(ChainPair(down=edge.weight_to(right),
                                       up=edge.weight_to(left)))
            best = max(best,
                       appendix_shortest_critical_path(*from_chain(sources,
                                                                   pairs)))
        return best

    def resolved_length(self, wtpg, w_order):
        """Critical path of a copy resolved exactly as W dictates."""
        resolved = wtpg.copy()
        for pair_key, successor in w_order.items():
            (predecessor,) = set(pair_key) - {successor}
            edge = resolved.pair(predecessor, successor)
            if edge is not None and not edge.resolved:
                resolved.resolve(predecessor, successor)
        assert not resolved.has_precedence_cycle()
        return resolved.critical_path_length()

    def test_chain_w_achieves_the_appendix_optimum(self):
        rng = random.Random(derive_seed(MASTER_SEED, "chain-vs-appendix"))
        checked = 0
        for case in range(NUM_CHAIN_CASES):
            sched = make_scheduler("CHAIN")
            txns = self.chain_instance(rng)
            for txn in txns:
                assert sched.admit(txn).admitted, (
                    f"case {case}: chain construction must be chain-form")
            expected = self.appendix_length(sched.wtpg)
            achieved = self.resolved_length(sched.wtpg,
                                            sched.current_w(0.0))
            assert achieved == expected, (
                f"case {case}: W achieves {achieved}, appendix says "
                f"{expected} for {len(txns)} transactions")
            checked += 1
        assert checked == NUM_CHAIN_CASES


class TestOverlayEqualsReferenceAfterAborts:
    """Overlay vs reference E(q) on post-abort (node-removal) graphs."""

    def random_graph(self, rng):
        """Like the estimator-equivalence corpus: mixed resolution
        states, occasional zero weights."""
        n = rng.randint(3, 10)
        g = WTPG()
        for tid in range(1, n + 1):
            weight = (round(rng.uniform(0, 15), 3)
                      if rng.random() < 0.8 else 0.0)
            g.add_transaction(tid, weight)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if rng.random() >= 0.4:
                    continue
                edge = g.ensure_pair(a, b)
                edge.raise_weight_to(b, round(rng.uniform(0, 8), 3))
                edge.raise_weight_to(a, round(rng.uniform(0, 8), 3))
                if rng.random() < 0.3:
                    g.resolve(a, b)
        return g

    def test_overlay_equals_reference_after_node_removals(self):
        rng = random.Random(derive_seed(MASTER_SEED, "estimator-post-abort"))
        compared = 0
        for case in range(NUM_ABORT_CASES):
            g = self.random_graph(rng)
            # The abort path: excise 1-3 nodes, edges and all.
            victims = rng.sample(sorted(g.transactions),
                                 rng.randint(1, min(3, len(g) - 1)))
            for victim in victims:
                g.remove_transaction(victim)
            assert g.cache_violations() == [], f"case {case}"
            survivors = sorted(g.transactions)
            requester = rng.choice(survivors)
            implied = []
            for other in survivors:
                if other == requester:
                    continue
                pair = g.pair(requester, other)
                if pair is not None and not pair.resolved \
                        and rng.random() < 0.6:
                    implied.append((other, requester)
                                   if rng.random() < 0.7
                                   else (requester, other))
            overlay = estimate_contention(g, requester, implied)
            reference = estimate_reference(g, requester, implied)
            assert overlay == reference, (
                f"case {case}: overlay={overlay} reference={reference} "
                f"victims={victims} requester={requester} "
                f"implied={implied}")
            compared += 1
        assert compared == NUM_ABORT_CASES

    def test_scheduler_abort_then_estimates_agree(self):
        """Same property driven through the real K2 abort path."""
        rng = random.Random(derive_seed(MASTER_SEED, "k2-post-abort"))
        for case in range(60):
            sched = make_scheduler("K2")
            admitted = []
            for tid in range(1, rng.randint(4, 9)):
                steps = [Step.write(rng.randrange(6),
                                    float(rng.randint(1, 5)))
                         for _ in range(rng.randint(1, 3))]
                txn = rt(tid, steps)
                if sched.admit(txn).admitted:
                    admitted.append(txn)
            for txn in admitted:
                if rng.random() < 0.4:
                    sched.request_lock(txn)
            victims = [t for t in admitted if rng.random() < 0.4]
            for txn in victims:
                sched.abort_transaction(txn)
            g = sched.wtpg
            assert g.cache_violations() == [], f"case {case}"
            for txn in admitted:
                if txn in victims or txn.tid not in g:
                    continue
                assert estimate_contention(g, txn.tid, []) == \
                    estimate_reference(g, txn.tid, []), (
                        f"case {case}: T{txn.tid}")
