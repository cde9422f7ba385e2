"""Fixture tests for the interprocedural rules RL009–RL012.

Single-file fixtures go through ``check_source`` (which builds a
one-file project); cross-module facts go through ``check_sources`` so
both files land in the same call graph.  The teeth tests lint
deliberately-broken copies of the *real* machine-layer sources — the
committed suppressions stripped — to prove the rules fire on production
code shapes, not just on minimal fixtures.
"""

import re
import textwrap
from pathlib import Path

from repro.lint import LintRunner

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


# -- RL010: un-bumped watched mutation across a yield --------------------------

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

RL010_GOOD_BUMP_FIRST = """\
    class Builder:
        def flow(self, env, key):
            self._pairs[key] = 1.0
            self._generation += 1
            yield env.timeout(1)
"""

RL010_GOOD_MUST_BUMP_CALLEE = """\
    class Builder:
        def raw(self, key):
            self._pairs[key] = 1.0
            self._generation += 1

        def flow(self, env, key):
            self.raw(key)
            yield env.timeout(1)
"""


def test_rl010_flags_mutation_reaching_yield():
    violations = lint(RL010_BAD_DIRECT, "repro/machine/builder.py")
    assert rule_ids(violations) == ["RL010"]
    assert violations[0].line == 3  # reported at the mutation site


def test_rl010_flags_unbumped_callee_mutation():
    violations = lint(RL010_BAD_VIA_CALL, "repro/machine/builder.py")
    assert rule_ids(violations) == ["RL010"]
    assert "Builder.raw()" in violations[0].message


def test_rl010_clean_shapes():
    for source in (RL010_GOOD_BUMP_FIRST, RL010_GOOD_MUST_BUMP_CALLEE):
        assert lint(source, "repro/machine/builder.py") == []


def test_rl010_applies_to_core_too():
    assert "RL010" in rule_ids(
        lint(RL010_BAD_DIRECT, "repro/core/builder.py"))


# -- RL011: interprocedural RNG-stream escape ----------------------------------

RL011_BAD_RETURNED_STREAM_STORED = """\
    def make(streams):
        return streams.stream("noise")

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
            source = streams.stream("noise")
            stash(self, source)
"""

RL011_BAD_MODULE_SCOPE = """\
    def make():
        return RandomStreams(7).stream("ambient")

    NOISE = make()
"""

RL011_GOOD_STREAM_NAMED = """\
    def make(streams):
        return streams.stream("noise")

    class Model:
        def setup(self, streams):
            self._noise_stream = make(streams)
"""


def test_rl011_flags_store_of_call_returned_stream():
    violations = lint(RL011_BAD_RETURNED_STREAM_STORED,
                      "repro/core/model.py")
    # `make` also trips RL008's public-return check — the intra fallback.
    assert "RL011" in rule_ids(violations)
    rl011 = [v for v in violations if v.rule_id == "RL011"]
    assert len(rl011) == 1 and "'noise'" in rl011[0].message


def test_rl011_flags_argument_to_escaping_param():
    violations = lint(RL011_BAD_ESCAPING_PARAM, "repro/core/model.py")
    # RL008 (intra fallback) flags the store inside stash itself; RL011
    # adds the call-site hand-off the intraprocedural rule cannot see.
    assert rule_ids(violations) == ["RL008", "RL011"]
    rl011 = violations[1]
    assert "'value_stream'" in rl011.message
    assert "stash" in rl011.message


def test_rl011_flags_module_scope_stream_binding():
    violations = lint(RL011_BAD_MODULE_SCOPE, "repro/core/model.py")
    # RL008 flags the public return intra-procedurally; RL011 adds the
    # module-scope binding it cannot see.
    assert rule_ids(violations) == ["RL008", "RL011"]
    assert violations[1].line == 4


def test_rl011_does_not_duplicate_rl008_findings():
    source = """\
        class Model:
            def setup(self, streams):
                self.noise = streams.stream("x")
    """
    violations = lint(source, "repro/core/model.py")
    assert rule_ids(violations) == ["RL008"]


def test_rl011_clean_when_stream_named():
    violations = lint(RL011_GOOD_STREAM_NAMED, "repro/core/model.py")
    assert "RL011" not in rule_ids(violations)


def test_rl011_silent_in_engine_and_faults():
    assert lint(RL011_BAD_ESCAPING_PARAM, "repro/engine/model.py") == []
    assert lint(RL011_BAD_ESCAPING_PARAM, "repro/faults/model.py") == []


def test_rl011_cross_module_returned_stream():
    violations = lint_many(
        ("repro/core/factory.py", """\
            def make(streams):
                return streams.stream("noise")
        """),
        ("repro/core/model.py", """\
            from repro.core.factory import make

            class Model:
                def setup(self, streams):
                    self.noise = make(streams)
        """))
    by_file = [v for v in violations
               if v.rule_id == "RL011"
               and v.file == "<fixture:repro/core/model.py>"]
    assert len(by_file) == 1


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
    # Both service loops (reference and batched) hold the popped work
    # item across the quantum yield.
    assert len(rl009) == 2
    assert all("item" in v.message for v in rl009)


def test_real_tree_is_clean():
    runner = LintRunner()
    violations = runner.check_paths([REPO / "src" / "repro" / "machine"])
    assert violations == []
