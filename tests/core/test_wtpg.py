"""Unit tests for the WTPG, anchored on the paper's Figure 2 example."""

import pytest

from repro.core import WTPG
from repro.errors import WTPGError


def figure2_wtpg():
    """The WTPG of Figure 2-(a): T1, T2, T3 just started.

    w(T0->T1)=5, w(T0->T2)=2, w(T0->T3)=4; pair (T1,T2) with
    w(T1->T2)=1, w(T2->T1)=1; pair (T2,T3) with w(T2->T3)=4, w(T3->T2)=2.
    """
    g = WTPG()
    g.add_transaction(1, 5)
    g.add_transaction(2, 2)
    g.add_transaction(3, 4)
    e12 = g.ensure_pair(1, 2)
    e12.raise_weight_to(2, 1)
    e12.raise_weight_to(1, 1)
    e23 = g.ensure_pair(2, 3)
    e23.raise_weight_to(3, 4)
    e23.raise_weight_to(2, 2)
    return g


class TestNodes:
    def test_add_and_contains(self):
        g = WTPG()
        g.add_transaction(7, 3.0)
        assert 7 in g
        assert len(g) == 1
        assert g.source_weight(7) == 3.0

    def test_duplicate_node_rejected(self):
        g = WTPG()
        g.add_transaction(1, 1)
        with pytest.raises(WTPGError):
            g.add_transaction(1, 2)

    def test_negative_weight_rejected(self):
        g = WTPG()
        with pytest.raises(WTPGError):
            g.add_transaction(1, -1)

    def test_remove_drops_pairs(self):
        g = figure2_wtpg()
        g.remove_transaction(2)
        assert 2 not in g
        assert g.conflict_neighbors(1) == set()
        assert g.conflict_neighbors(3) == set()

    def test_remove_unknown_rejected(self):
        with pytest.raises(WTPGError):
            WTPG().remove_transaction(5)

    @pytest.mark.parametrize("touch", [
        lambda g: g.ensure_pair(2, 1),
        lambda g: g.ensure_pair(1, 2),
        lambda g: g.resolve(2, 1),
        lambda g: g.resolve(1, 2),
        lambda g: g.source_weight(2),
        lambda g: g.set_source_weight(2, 1.0),
        lambda g: g.decrement_source(2),
        lambda g: g.conflict_neighbors(2),
        lambda g: g.remove_transaction(2),
    ], ids=["ensure_pair-first", "ensure_pair-second", "resolve-pred",
            "resolve-succ", "source_weight", "set_source_weight",
            "decrement_source", "conflict_neighbors", "remove_transaction"])
    def test_excised_node_refuses_every_operation(self, touch):
        # The node lifecycle's runtime guard: nothing may touch a node
        # after remove_transaction (a weight-adjustment message for an
        # excised node must be dropped, not applied).  resolve fails on
        # the pair edge the excision dropped, the rest in _require.
        g = figure2_wtpg()
        g.remove_transaction(2)
        with pytest.raises(WTPGError):
            touch(g)

    def test_decrement_source_clamps_at_zero(self):
        g = WTPG()
        g.add_transaction(1, 1.5)
        g.decrement_source(1)
        assert g.source_weight(1) == 0.5
        g.decrement_source(1)
        assert g.source_weight(1) == 0.0


class TestPairEdges:
    def test_ensure_pair_idempotent(self):
        g = figure2_wtpg()
        edge = g.ensure_pair(1, 2)
        assert edge is g.pair(2, 1)

    def test_self_pair_rejected(self):
        g = WTPG()
        g.add_transaction(1, 1)
        with pytest.raises(WTPGError):
            g.ensure_pair(1, 1)
        # Every pair lookup refuses a self-pair, not only creation.
        for lookup in (g.pair, g.orientation, g.resolve):
            with pytest.raises(WTPGError, match="cannot conflict with itself"):
                lookup(1, 1)

    def test_weights_take_max(self):
        g = figure2_wtpg()
        edge = g.pair(2, 3)
        edge.raise_weight_to(3, 2)   # smaller: ignored
        assert edge.weight_to(3) == 4
        edge.raise_weight_to(3, 9)   # larger: adopted
        assert edge.weight_to(3) == 9

    def test_figure2_weights(self):
        g = figure2_wtpg()
        assert g.pair(2, 3).weight_to(3) == 4
        assert g.pair(2, 3).weight_to(2) == 2
        assert g.pair(1, 2).weight_to(2) == 1

    def test_conflict_neighbors(self):
        g = figure2_wtpg()
        assert g.conflict_neighbors(2) == {1, 3}
        assert g.conflict_neighbors(1) == {2}


class TestResolution:
    def test_resolve_sets_orientation(self):
        g = figure2_wtpg()
        g.resolve(1, 2)
        assert g.orientation(1, 2) == (1, 2)
        assert g.orientation(2, 1) == (1, 2)

    def test_resolve_idempotent_same_direction(self):
        g = figure2_wtpg()
        g.resolve(1, 2)
        g.resolve(1, 2)  # no error
        assert g.orientation(1, 2) == (1, 2)

    def test_resolve_flip_rejected(self):
        g = figure2_wtpg()
        g.resolve(1, 2)
        with pytest.raises(WTPGError):
            g.resolve(2, 1)

    def test_resolve_without_pair_rejected(self):
        g = figure2_wtpg()
        with pytest.raises(WTPGError):
            g.resolve(1, 3)  # no conflicting edge between T1 and T3

    def test_predecessors_successors(self):
        g = figure2_wtpg()
        g.resolve(1, 2)
        g.resolve(3, 2)
        assert g.predecessors(2) == {1, 3}
        assert g.successors(1) == {2}
        assert g.successors(2) == set()

    def test_ancestors_descendants_transitive(self):
        g = WTPG()
        for tid in (1, 2, 3, 4):
            g.add_transaction(tid, 0)
        for a, b in ((1, 2), (2, 3), (3, 4)):
            g.ensure_pair(a, b)
            g.resolve(a, b)
        assert g.ancestors(4) == {1, 2, 3}
        assert g.descendants(1) == {2, 3, 4}
        assert g.ancestors(1) == set()


class TestCycles:
    def make_triangle(self):
        g = WTPG()
        for tid in (1, 2, 3):
            g.add_transaction(tid, 1)
        for a, b in ((1, 2), (2, 3), (1, 3)):
            g.ensure_pair(a, b)
        return g

    def test_no_cycle_initially(self):
        assert not self.make_triangle().has_precedence_cycle()

    def test_cycle_detected(self):
        g = self.make_triangle()
        g.resolve(1, 2)
        g.resolve(2, 3)
        g.resolve(3, 1)
        assert g.has_precedence_cycle()

    def test_acyclic_triangle(self):
        g = self.make_triangle()
        g.resolve(1, 2)
        g.resolve(2, 3)
        g.resolve(1, 3)
        assert not g.has_precedence_cycle()

    def test_critical_path_of_cycle_raises(self):
        g = self.make_triangle()
        g.resolve(1, 2)
        g.resolve(2, 3)
        g.resolve(3, 1)
        with pytest.raises(WTPGError):
            g.critical_path_length()


class TestCriticalPath:
    def test_empty_graph(self):
        assert WTPG().critical_path_length() == 0.0

    def test_isolated_nodes_take_max_source(self):
        g = WTPG()
        g.add_transaction(1, 3)
        g.add_transaction(2, 8)
        assert g.critical_path_length() == 8

    def test_figure2_b_optimal_resolution_length_6(self):
        # W = {T1->T2, T3->T2}: critical path T0->T1->T2 of length 6.
        g = figure2_wtpg()
        g.resolve(1, 2)
        g.resolve(3, 2)
        length, path = g.critical_path()
        assert length == 6
        assert path == [1, 2]

    def test_figure2_c_chain_of_blocking_length_10(self):
        # {T1->T2->T3}: critical path length 10 (the bad schedule).
        g = figure2_wtpg()
        g.resolve(1, 2)
        g.resolve(2, 3)
        assert g.critical_path_length() == 10

    def test_unresolved_pairs_are_ignored(self):
        g = figure2_wtpg()
        # Nothing resolved: only source weights count.
        assert g.critical_path_length() == 5

    def test_matches_networkx_longest_path(self):
        import networkx as nx

        g = WTPG()
        weights = {1: 5, 2: 2, 3: 4, 4: 7, 5: 1}
        for tid, w in weights.items():
            g.add_transaction(tid, w)
        edges = [(1, 2, 3.0), (2, 4, 2.5), (3, 4, 6.0), (1, 5, 0.5)]
        for a, b, w in edges:
            pair = g.ensure_pair(a, b)
            pair.raise_weight_to(b, w)
            g.resolve(a, b)

        dag = nx.DiGraph()
        dag.add_node("T0")
        dag.add_node("Tf")
        for tid, w in weights.items():
            dag.add_edge("T0", tid, weight=w)
            dag.add_edge(tid, "Tf", weight=0.0)
        for a, b, w in edges:
            dag.add_edge(a, b, weight=w)
        expected = nx.dag_longest_path_length(dag, weight="weight")
        assert g.critical_path_length() == pytest.approx(expected)


class TestCopy:
    def test_copy_is_independent(self):
        g = figure2_wtpg()
        clone = g.copy()
        clone.resolve(1, 2)
        clone.decrement_source(1, 5)
        clone.remove_transaction(3)
        assert g.orientation(1, 2) is None
        assert g.source_weight(1) == 5
        assert 3 in g

    def test_copy_preserves_weights_and_resolutions(self):
        g = figure2_wtpg()
        g.resolve(3, 2)
        clone = g.copy()
        assert clone.orientation(2, 3) == (3, 2)
        assert clone.pair(1, 2).weight_to(2) == 1
        assert clone.critical_path_length() == g.critical_path_length()

    def test_resolving_in_a_copy_leaves_the_original_unresolved(self):
        g = figure2_wtpg()
        unresolved = [(e.a, e.b) for e in g.unresolved_pairs()]
        clone = g.copy()
        clone.resolve(1, 2)
        clone.resolve(3, 2)
        assert [(e.a, e.b) for e in g.unresolved_pairs()] == unresolved
        assert clone.unresolved_pairs() == ()
        # The clone indexes its own edges, none of the original's.
        assert not set(clone.pairs()) & set(g.pairs())
        assert g.cache_violations() == [] and clone.cache_violations() == []

    def test_repr_smoke(self):
        g = figure2_wtpg()
        g.resolve(1, 2)
        text = repr(g)
        assert "T1->T2" in text and "(T2,T3)" in text


class TestIndexIntegrity:
    """``cache_violations`` checks the pair-edge indexes against
    ``_pairs``, the graph's list of its edges."""

    def test_healthy_graph_reports_nothing(self):
        g = figure2_wtpg()
        g.resolve(1, 2)
        assert g.cache_violations() == []

    def test_one_sided_neighbour_entry(self):
        g = figure2_wtpg()
        del g._neighbors[3][2]
        assert "neighbour index not symmetric for T2,T3" in (
            g.cache_violations())

    def test_neighbour_entry_holding_a_foreign_edge(self):
        g = figure2_wtpg()
        stranger = figure2_wtpg().pair(1, 2)
        g._neighbors[1][2] = g._neighbors[2][1] = stranger
        assert "neighbour index holds other edges than _pairs" in (
            g.cache_violations())

    def test_edge_filed_under_the_wrong_ends(self):
        g = figure2_wtpg()
        g._neighbors[1][2] = g._neighbors[2][1] = g.pair(2, 3)
        assert "neighbour index files (2,3) under T1,T2" in (
            g.cache_violations())

    def test_unresolved_index_missing_an_edge(self):
        g = figure2_wtpg()
        del g._unresolved[g.pair(2, 3)]
        assert "unresolved-pair index out of sync" in g.cache_violations()

    def test_unresolved_index_keeping_a_resolved_edge(self):
        g = figure2_wtpg()
        edge = g.pair(1, 2)
        g.resolve(1, 2)
        g._unresolved[edge] = None
        assert "unresolved-pair index out of sync" in g.cache_violations()
