"""Fixture tests for the flow-sensitive rule RL007, and the
stream-escape fixtures RL001 now answers.

Same pattern as test_rules.py: in-memory sources impersonate production
modules through ``logical`` so each rule's applicability and verdict are
unit-tested without touching the real tree.
"""

import textwrap

from repro.lint import LintRunner


def lint(source, logical):
    runner = LintRunner()
    return runner.check_source(textwrap.dedent(source),
                               display="<fixture>", logical=logical)


def rule_ids(violations):
    return [v.rule_id for v in violations]


# -- RL007: unguarded cache reads ----------------------------------------------

RL007_BAD = """\
    class WTPG:
        def critical_path_length(self):
            dist = self._cp_dist
            if self._cp_gen == self._structure_gen and dist is not None:
                return max(dist)
            return 0.0
"""

RL007_GOOD = """\
    class WTPG:
        def critical_path_length(self):
            if (self._cp_gen == self._structure_gen
                    and self._cp_dist is not None):
                return max(self._cp_dist)
            return 0.0
"""


def test_rl007_flags_the_read_before_the_guard():
    violations = lint(RL007_BAD, "repro/core/wtpg.py")
    assert rule_ids(violations) == ["RL007"]
    [v] = violations
    assert v.line == 3
    assert "_cp_dist" in v.message and "critical-path" in v.message


def test_rl007_guard_first_is_clean():
    assert lint(RL007_GOOD, "repro/core/wtpg.py") == []


def test_rl007_mutation_after_guard_re_dirties_the_caches():
    source = """\
        class WTPG:
            def add_edge(self, u, v):
                self._ensure_topo()
                self._generation += 1
                self._succ[u].add(v)
                return self._topo_order
    """
    violations = lint(source, "repro/core/wtpg.py")
    # RL003 stays quiet (the write is bumped first); RL007 flags the read
    # because neither the bump nor the write re-certifies the memo.
    assert rule_ids(violations) == ["RL007"]
    assert "_topo_order" in violations[0].message


def test_rl007_fresh_store_certifies_that_field():
    source = """\
        class WTPG:
            def _rebuild(self):
                self._cp_dist = self._compute()
                return self._cp_dist
    """
    assert lint(source, "repro/core/wtpg.py") == []


def test_rl007_exempt_maintenance_methods():
    source = """\
        class WTPG:
            def cache_violations(self):
                return self._cp_dist
    """
    assert lint(source, "repro/core/wtpg.py") == []


def test_rl007_inplace_maintenance_on_the_cache_is_not_a_read():
    source = """\
        class WTPG:
            def _drop(self, tid):
                self._anc_cache.pop(tid, None)
    """
    assert lint(source, "repro/core/wtpg.py") == []


def test_rl007_only_applies_to_modules_with_declared_families():
    # (RL004 may still fire there — the comparison names look like
    # critical-path floats — but the cache-read rule must not.)
    found = rule_ids(lint(RL007_BAD, "repro/core/schedulers/asl_scheduler.py"))
    assert "RL007" not in found


def test_rl007_estimator_family_guards():
    bad = """\
        class Estimator:
            def peek(self):
                return self._base_dist
    """
    good = """\
        class Estimator:
            def peek(self):
                self._prime()
                return self._base_dist
    """
    assert rule_ids(lint(bad, "repro/core/estimator.py")) == ["RL007"]
    assert lint(good, "repro/core/estimator.py") == []


# -- RNG stream escape (RL001) ------------------------------------------------
#
# These fixtures were written for RL008, and later run by RL011; they keep
# their names.  RandomStreams now hands out no generator, so each bad
# fixture reaches for the private ``_stream`` (or builds a RandomStreams
# where it may not) and RL001 flags that access at its line.

def test_rl008_flags_a_stream_cached_in_an_innocuous_attribute():
    source = """\
        class Thing:
            def __init__(self, streams):
                self._rng = streams._stream("arrivals")
    """
    violations = lint(source, "repro/core/example.py")
    assert [(v.rule_id, v.line) for v in violations] == [("RL001", 3)]


def test_rl008_stream_named_attribute_is_clean():
    source = """\
        class Thing:
            def __init__(self, streams):
                self._arrival_streams = streams

            def next_gap(self):
                return self._arrival_streams.exponential("arrivals", 5.0)
    """
    assert lint(source, "repro/core/example.py") == []


def test_rl008_flags_module_scope_streams():
    source = """\
        from repro.engine import RandomStreams

        STREAMS = RandomStreams(42)
    """
    violations = lint(source, "repro/workloads/example.py")
    assert [(v.rule_id, v.line) for v in violations] == [("RL001", 3)]


def test_rl008_taint_propagates_through_locals_to_a_public_return():
    source = """\
        def make(streams):
            s = streams._stream("x")
            return s
    """
    violations = lint(source, "repro/core/example.py")
    assert [(v.rule_id, v.line) for v in violations] == [("RL001", 2)]


def test_rl008_container_store_needs_a_stream_named_root():
    bad = """\
        class C:
            def reg(self, streams):
                self._table["x"] = streams._stream("x")
    """
    good = """\
        class C:
            def reg(self, streams):
                self._streams_by_name["x"] = streams
    """
    violations = lint(bad, "repro/core/example.py")
    assert [(v.rule_id, v.line) for v in violations] == [("RL001", 3)]
    assert lint(good, "repro/core/example.py") == []
