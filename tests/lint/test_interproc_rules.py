"""Fixture tests for the interprocedural rules RL009 and RL012, and for
the RL010 fixtures that RL003 now answers.

Single-file fixtures go through ``check_source`` (which builds a
one-file project); cross-module facts go through ``check_sources`` so
both files land in the same call graph.  The teeth tests lint
deliberately-broken copies of the *real* machine-layer sources — the
committed suppressions stripped — to prove the rules fire on production
code shapes, not just on minimal fixtures.
"""

import ast
import re
import textwrap
from pathlib import Path

from repro.lint import LintRunner
from repro.lint.rules import watched_mutations

REPO = Path(__file__).resolve().parents[2]


def lint(source, logical):
    runner = LintRunner()
    return runner.check_source(textwrap.dedent(source),
                               display="<fixture>", logical=logical)


def lint_many(*entries):
    """Lint ``(logical, source)`` pairs as one project."""
    runner = LintRunner()
    return runner.check_sources([
        (f"<fixture:{logical}>", logical, textwrap.dedent(source))
        for logical, source in entries])


def rule_ids(violations):
    return [v.rule_id for v in violations]


# -- RL009: stale snapshots across yield points --------------------------------

RL009_BAD_DIRECT = """\
    class Node:
        def run(self, env):
            response = self.scheduler.admit(1)
            yield env.timeout(1)
            if response.admitted:
                return True
"""

RL009_BAD_VIA_CALL = """\
    class Node:
        def pause(self, env):
            yield env.timeout(1)

        def run(self, env):
            item = self._queue.popleft()
            self.pause(env)
            return item.remaining
"""

RL009_GOOD_REREAD = """\
    class Node:
        def run(self, env):
            response = self.scheduler.admit(1)
            yield env.timeout(1)
            response = self.scheduler.admit(1)
            if response.admitted:
                return True
"""

RL009_GOOD_GUARDED = """\
    class Node:
        def run(self, env):
            gen = self.scheduler.generation
            plan = self.scheduler.admit(1)
            yield env.timeout(1)
            if self.scheduler.generation == gen and plan.admitted:
                return True
"""

RL009_GOOD_READ_BEFORE_YIELD = """\
    class Node:
        def run(self, env):
            item = self._queue.popleft()
            quantum = min(1.0, item.remaining)
            yield env.timeout(quantum)
            self.busy_time += quantum
"""


def test_rl009_flags_direct_yield_snapshot():
    violations = lint(RL009_BAD_DIRECT, "repro/machine/node.py")
    assert rule_ids(violations) == ["RL009"]
    assert "response" in violations[0].message
    assert violations[0].line == 5


def test_rl009_flags_snapshot_across_may_yield_call():
    violations = lint(RL009_BAD_VIA_CALL, "repro/machine/node.py")
    assert rule_ids(violations) == ["RL009"]
    assert "item" in violations[0].message


def test_rl009_one_finding_per_snapshot():
    source = RL009_BAD_DIRECT + """\

        def twice(self, env):
            response = self.scheduler.admit(1)
            yield env.timeout(1)
            first = response.admitted
            second = response.reason
            return first, second
    """
    violations = lint(source, "repro/machine/node.py")
    # One per snapshot — the textually first stale read — not one per read.
    assert rule_ids(violations) == ["RL009", "RL009"]


def test_rl009_clean_shapes():
    for source in (RL009_GOOD_REREAD, RL009_GOOD_GUARDED,
                   RL009_GOOD_READ_BEFORE_YIELD):
        assert lint(source, "repro/machine/node.py") == []


def test_rl009_only_applies_to_machine_layer():
    assert lint(RL009_BAD_DIRECT, "repro/core/helpers.py") == []


def test_rl009_cross_module_may_yield_call():
    violations = lint_many(
        ("repro/machine/waits.py", """\
            def settle(env):
                yield env.timeout(1)
        """),
        ("repro/machine/node.py", """\
            from repro.machine.waits import settle

            class Node:
                def run(self, env):
                    item = self._queue.popleft()
                    settle(env)
                    return item.remaining
        """))
    assert rule_ids(violations) == ["RL009"]
    assert violations[0].file == "<fixture:repro/machine/node.py>"


# -- RL010 fixtures, answered by RL003 -----------------------------------------
#
# RL010 tracked a watched-container mutation to the next yield point or
# WTPG method exit without a generation bump.  Writes now happen only in
# core/wtpg.py, whose methods bump first and never suspend; RL003 flags
# any other write at the write itself, with or without a yield after it.
# The fixtures keep their names.

RL010_BAD_DIRECT = """\
    class Builder:
        def flow(self, env, key):
            self._pairs[key] = 1.0
            yield env.timeout(1)
            self._generation += 1
"""

RL010_BAD_VIA_CALL = """\
    class Builder:
        def raw(self, key):
            self._pairs[key] = 1.0

        def flow(self, env, key):
            self.raw(key)
            yield env.timeout(1)
            self._generation += 1
"""


def test_rl010_flags_mutation_reaching_yield():
    violations = lint(RL010_BAD_DIRECT, "repro/machine/builder.py")
    assert rule_ids(violations) == ["RL003"]
    assert (violations[0].line, violations[0].col) == (3, 8)


def test_rl010_flags_unbumped_callee_mutation():
    violations = lint(RL010_BAD_VIA_CALL, "repro/machine/builder.py")
    assert rule_ids(violations) == ["RL003"]
    # Reported in the callee, where the write is, not at the call.
    assert (violations[0].line, violations[0].col) == (3, 8)
    assert "'_pairs' outside core/wtpg.py" in violations[0].message


def test_rl010_applies_to_core_too():
    assert rule_ids(lint(RL010_BAD_DIRECT, "repro/core/builder.py")) == [
        "RL003"]


# -- RL010 on the WTPG's own methods, answered by RL003 bump-first -------------
#
# A ``self``-rooted watched write in a WTPG method must follow a bump in
# its own block or an enclosing one.  Every bump-last shape below is a
# finding, including the two the former exit analysis also caught
# (``loop_leak``, ``with_return``); ``BUMP_FIRST_ZOO`` shows the block
# scoping that makes a bump count.

WTPG_SOURCE = (REPO / "src" / "repro" / "core" / "wtpg.py").read_text()

CONTROL_FLOW_ZOO = """\
    class WTPG:
        def loops(self, tids):
            for tid in tids:
                self._succ[tid].add(tid)
            self._generation += 1

        def loop_leak(self, tids):
            while tids:
                self._pairs[tids.pop()] = 1.0

        def try_paths(self, tid):
            try:
                self._source[tid] = 1.0
            except KeyError:
                self._generation += 1
            self._note_edge_weight(tid)

        def with_return(self, tid, guard):
            with guard:
                self._sink[tid] = 2.0
                return tid

        def nested(self, tid, flag):
            if flag:
                if tid:
                    self._pred[tid] = ()
                else:
                    self._generation += 1
                    return tid
            self._structure_gen += 1
"""

BUMP_FIRST_ZOO = """\
    class WTPG:
        def enclosing(self, tids):
            self._generation += 1
            for tid in tids:
                if tid:
                    self._succ[tid].add(tid)

        def helper(self, tid):
            self._note_edge_weight(tid)
            self._source[tid] = 1.0

        def sibling(self, tid, flag):
            if flag:
                self._generation += 1
                self._pred[tid] = ()
            else:
                self._pred[tid] = ()

        def handler(self, tid):
            try:
                self._structure_gen += 1
            except KeyError:
                self._sink[tid] = 0.0
            finally:
                self._sink.pop(tid)

        def closure(self, tid):
            self._generation += 1

            def later():
                self._unresolved.clear()
            return later

        def copy(self):
            clone = WTPG()
            clone._pairs = dict(self._pairs)
            return clone
"""

CONTINUE_SKIPS_THE_BUMP = """\
    class WTPG:
        def poke(self, flags):
            for flag in flags:
                if flag:
                    self._unresolved.add(flag)
                    continue
                self._generation += 1
"""

BREAK_BYPASSES_THE_ELSE = """\
    class WTPG:
        def poke(self, items):
            while items:
                self._succ[0].add(1)
                break
            else:
                self._generation += 1
"""


def wtpg_findings(source):
    """(line, col) of RL003's findings on a wtpg.py fixture."""
    violations = LintRunner().check_source(
        textwrap.dedent(source), display="<fixture>",
        logical="repro/core/wtpg.py")
    assert all(v.rule_id == "RL003" for v in violations)
    return [(v.line, v.col) for v in violations]


def test_rl010_wtpg_corpus_matches_former_rl002():
    assert wtpg_findings(CONTROL_FLOW_ZOO) == [
        (4, 12), (9, 12), (13, 12), (20, 12), (26, 16)]
    violations = lint(CONTROL_FLOW_ZOO, "repro/core/wtpg.py")
    assert violations[1].message == (
        "WTPG.loop_leak writes self._pairs before bumping the generation: "
        "put self._generation / self._structure_gen += 1 (or "
        "self._note_edge_weight) first, in this block or an enclosing one")


def test_rl003_bump_counts_in_its_own_and_enclosing_blocks_only():
    # sibling's else branch, the except and finally bodies (the try body
    # may raise before its bump) and a nested def (it runs later) are
    # not covered; copy() fills a fresh clone, not self.
    assert wtpg_findings(BUMP_FIRST_ZOO) == [
        (17, 12), (23, 12), (25, 12), (31, 12)]


def test_rl010_continue_skipping_the_bump_is_a_leak():
    violations = lint(CONTINUE_SKIPS_THE_BUMP, "repro/core/wtpg.py")
    assert [(v.line, v.col) for v in violations] == [(5, 16)]
    assert violations[0].message.startswith(
        "WTPG.poke writes self._unresolved before bumping")


def test_rl010_break_bypassing_the_loop_else_is_a_leak():
    violations = lint(BREAK_BYPASSES_THE_ELSE, "repro/core/wtpg.py")
    assert [(v.line, v.col) for v in violations] == [(4, 12)]
    assert "self._succ" in violations[0].message


def test_rl010_real_wtpg_is_clean_and_copy_stays_silent():
    """``WTPG.copy()`` fills a fresh clone's containers without a bump;
    the bump-first check is ``self``-rooted and stays silent on it."""
    assert wtpg_findings(WTPG_SOURCE) == []
    tree = ast.parse(WTPG_SOURCE)
    [copy] = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "copy"]
    writes = [write for stmt in ast.walk(copy) if isinstance(stmt, ast.stmt)
              for write in watched_mutations(stmt)]
    assert len(writes) == 9
    assert not any(write.on_self for write in writes)


# Line numbers are those of the committed core/wtpg.py: an edit there
# that moves these methods re-pins the two lists below.

def test_rl010_real_wtpg_with_generation_bumps_stripped_matches_rl002():
    """Where a ``_structure_gen`` bump still leads, the writes stay
    covered; the weight setters and ``ensure_pair`` bump only
    ``_generation``."""
    stripped = re.sub(r"^(\s*)self\._generation \+= 1$", r"\1pass",
                      WTPG_SOURCE, flags=re.MULTILINE)
    assert stripped != WTPG_SOURCE
    assert wtpg_findings(stripped) == [
        (251, 12), (260, 12), (277, 12), (278, 12), (279, 12), (280, 12)]


def test_rl010_real_wtpg_with_all_bumps_stripped():
    """Every write site of the mutators, including the ``for other, edge
    in self._neighbors.pop(tid).items()`` header of
    ``remove_transaction`` (218, 27)."""
    stripped = WTPG_SOURCE.replace("self._generation += 1", "pass").replace(
        "self._structure_gen += 1", "pass")
    assert wtpg_findings(stripped) == [
        (200, 8), (201, 8), (202, 8), (203, 8), (204, 8),
        (216, 8), (217, 8), (218, 27), (219, 12), (220, 12), (221, 12),
        (222, 12), (223, 12), (224, 8), (225, 8), (251, 12), (260, 12),
        (277, 12), (278, 12), (279, 12), (280, 12), (328, 8), (329, 8),
        (330, 8)]


# -- RL011 fixtures, answered by RL001 -----------------------------------------
#
# RL011 tracked a generator from ``RandomStreams.stream()`` through calls.
# RandomStreams now hands out none: the only ways to get one are the
# private ``_stream``/``_streams`` (or a RandomStreams of one's own), and
# RL001 flags each at its line, so no call-graph taint is needed.

RL011_BAD_RETURNED_STREAM_STORED = """\
    def make(streams):
        return streams._stream("noise")

    class Model:
        def setup(self, streams):
            source = make(streams)
            self.noise = source
"""

RL011_BAD_ESCAPING_PARAM = """\
    def stash(sink, value_stream):
        sink.noise = value_stream

    class Model:
        def setup(self, streams):
            source = streams._stream("noise")
            stash(self, source)
"""

RL011_BAD_MODULE_SCOPE = """\
    def make():
        return 7

    NOISE = RandomStreams(make())
"""

RL011_GOOD_STREAM_NAMED = """\
    class Model:
        def setup(self, streams):
            self._noise_streams = streams

        def noise(self):
            return self._noise_streams.normal("noise", 0.0, 1.0)
"""


def findings(violations):
    return [(v.rule_id, v.line) for v in violations]


def test_rl011_flags_store_of_call_returned_stream():
    violations = lint(RL011_BAD_RETURNED_STREAM_STORED,
                      "repro/core/model.py")
    # Flagged where the generator is obtained, not where it is stored.
    assert findings(violations) == [("RL001", 2)]


def test_rl011_flags_argument_to_escaping_param():
    violations = lint(RL011_BAD_ESCAPING_PARAM, "repro/core/model.py")
    assert findings(violations) == [("RL001", 6)]


def test_rl011_flags_module_scope_stream_binding():
    violations = lint(RL011_BAD_MODULE_SCOPE, "repro/core/model.py")
    assert findings(violations) == [("RL001", 4)]
    assert "constructed outside its owners" in violations[0].message


def test_rl011_does_not_duplicate_rl008_findings():
    """A generator stored in a plain attribute is reported exactly once."""
    source = """\
        class Model:
            def setup(self, streams):
                self.noise = streams._stream("x")
    """
    violations = lint(source, "repro/core/model.py")
    assert findings(violations) == [("RL001", 3)]


def test_rl011_clean_when_stream_named():
    assert lint(RL011_GOOD_STREAM_NAMED, "repro/core/model.py") == []


def test_rl011_cross_module_returned_stream():
    violations = lint_many(
        ("repro/core/factory.py", """\
            def make(streams):
                return streams._stream("noise")
        """),
        ("repro/core/model.py", """\
            from repro.core.factory import make

            class Model:
                def setup(self, streams):
                    self.noise = make(streams)
        """))
    assert [(v.file, v.rule_id, v.line) for v in violations] == [
        ("<fixture:repro/core/factory.py>", "RL001", 2)]


# -- RL012: schedulers stay synchronous ----------------------------------------

RL012_BAD_YIELD = """\
    class Sched:
        def admit(self, txn, now):
            yield 1
"""

RL012_BAD_CALL_CHAIN = """\
    def settle(env):
        yield env.timeout(1)

    class Sched:
        def admit(self, txn, env):
            settle(env)
            return True
"""

RL012_GOOD_SYNCHRONOUS = """\
    class Sched:
        def admit(self, txn, now):
            self.table.register(txn)
            self.table.unregister(txn)
            return True
"""

RL012_GOOD_UNKNOWN_CALL = """\
    class Sched:
        def admit(self, txn, env):
            env.process(txn)
            return True
"""


def test_rl012_flags_yield_in_scheduler():
    violations = lint(RL012_BAD_YIELD, "repro/core/schedulers/s.py")
    assert "RL012" in rule_ids(violations)


def test_rl012_flags_resolved_call_into_may_yield():
    violations = lint(RL012_BAD_CALL_CHAIN, "repro/core/schedulers/s.py")
    ids = rule_ids(violations)
    # One for settle's own yield, one for the call reaching it.
    assert ids.count("RL012") == 2


def test_rl012_silent_on_unknown_calls_and_clean_schedulers():
    assert lint(RL012_GOOD_SYNCHRONOUS, "repro/core/schedulers/s.py") == []
    assert lint(RL012_GOOD_UNKNOWN_CALL, "repro/core/schedulers/s.py") == []


def test_rl012_only_applies_to_schedulers():
    assert "RL012" not in rule_ids(
        lint(RL012_BAD_YIELD, "repro/machine/node.py"))


def test_rl012_cross_module_call_chain():
    violations = lint_many(
        ("repro/machine/waits.py", """\
            def settle(env):
                yield env.timeout(1)
        """),
        ("repro/core/schedulers/s.py", """\
            from repro.machine.waits import settle

            class Sched:
                def admit(self, txn, env):
                    settle(env)
                    return True
        """))
    in_scheduler = [v for v in violations if v.rule_id == "RL012"]
    assert len(in_scheduler) == 1
    assert in_scheduler[0].file == "<fixture:repro/core/schedulers/s.py>"


# -- teeth: the rules fire on broken copies of the real sources ----------------

def _without_suppressions(path):
    source = path.read_text(encoding="utf-8")
    return re.sub(r"#\s*repro-lint:[^\n]*", "", source)


def test_rl009_teeth_on_real_control_plane():
    source = _without_suppressions(REPO / "src/repro/machine/shard.py")
    runner = LintRunner()
    violations = runner.check_source(
        source, display="<broken shard>",
        logical="repro/machine/shard.py")
    rl009 = [v for v in violations if v.rule_id == "RL009"]
    # The lock-grant response is held across the CPU-cost yield; with
    # its justified suppression stripped, the rule must find exactly
    # that snapshot.
    assert len(rl009) == 1
    assert "response" in rl009[0].message


def test_rl009_teeth_on_real_data_node():
    source = _without_suppressions(REPO / "src/repro/machine/data_node.py")
    runner = LintRunner()
    violations = runner.check_source(
        source, display="<broken data_node>",
        logical="repro/machine/data_node.py")
    rl009 = [v for v in violations if v.rule_id == "RL009"]
    # The server loop holds the popped work item across the quantum
    # yield.
    assert len(rl009) == 1
    assert all("item" in v.message for v in rl009)


def test_real_tree_is_clean():
    runner = LintRunner()
    violations = runner.check_paths([REPO / "src" / "repro" / "machine"])
    assert violations == []
