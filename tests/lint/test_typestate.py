"""Tests for the declarative typestate layer (RL013–RL016).

Three tiers, mirroring the framework's own layering:

* golden framework tests drive a minimal protocol spec straight through
  :func:`check_protocol`, pinning the evaluator's semantics — creator
  narrowing, error-state cascade suppression, the must-violation policy
  at joins, opaque rebinding, aliasing, escape semantics, and the
  interprocedural transition-relation lift;
* per-rule fixture tests run the shipped specs over small sources that
  impersonate in-scope modules (the same convention as the RL009–RL012
  tests);
* teeth tests strip the committed suppressions from (or re-seed the
  historical bug into) the *real* sources to prove each rule fires on
  production code shapes, plus a clean sweep over the real scopes.
"""

import ast
import re
import textwrap
from dataclasses import replace
from pathlib import Path

from repro.lint import LintRunner
from repro.lint.model import FileContext
from repro.lint.project import Project
from repro.lint.typestate import (ARG, CALL, WRITE, Creator, Operation,
                                  ProtocolSpec, _t, check_protocol,
                                  render_table, transition_relation)

REPO = Path(__file__).resolve().parents[2]


# -- golden framework tests on a minimal spec ----------------------------------

MINI = ProtocolSpec(
    name="mini-file",
    states=("open", "closed"),
    error_state="broken",
    creators=(Creator("open_file", "open"),),
    operations=(
        Operation(CALL, "read", _t(open=("open",))),
        Operation(CALL, "close", _t(open=("closed",))),
        Operation(WRITE, "raw", {}),
    ),
    tracked_types=frozenset({"Handle"}),
)


def analyze(spec, source, logical="repro/core/mod.py"):
    src = textwrap.dedent(source)
    ctx = FileContext(display="<golden>", logical=logical, source=src,
                      tree=ast.parse(src))
    return check_protocol(spec, Project([ctx]), ctx)


def project_of(source, logical="repro/core/mod.py"):
    src = textwrap.dedent(source)
    ctx = FileContext(display="<golden>", logical=logical, source=src,
                      tree=ast.parse(src))
    return Project([ctx]), ctx


def test_use_after_close_flags():
    findings = analyze(MINI, """\
        def run():
            f = open_file()
            f.close()
            f.read()
    """)
    assert len(findings) == 1
    line, _col, message = findings[0]
    assert line == 4
    assert ".read()" in message and "closed" in message


def test_error_state_reports_once_not_a_cascade():
    findings = analyze(MINI, """\
        def run():
            f = open_file()
            f.close()
            f.read()
            f.read()
            f.read()
    """)
    # The first illegal read pushes f into the error state; the error
    # state is silent, so the two later reads do not pile on.
    assert [line for line, _c, _m in findings] == [4]


def test_forbidden_write_flags_from_any_state():
    findings = analyze(MINI, """\
        def run():
            f = open_file()
            f.raw = b""
    """)
    assert len(findings) == 1
    assert "forbidden" in findings[0][2]


def test_annotated_param_starts_in_every_state():
    # Nothing is known about the caller, so one read is fine...
    assert analyze(MINI, """\
        def run(f: Handle):
            f.read()
    """) == []
    # ...but after a close the state is known, and a second close flags.
    findings = analyze(MINI, """\
        def run(f: Handle):
            f.close()
            f.close()
    """)
    assert len(findings) == 1
    assert ".close()" in findings[0][2]


def test_must_policy_is_silent_when_one_join_arm_is_legal():
    assert analyze(MINI, """\
        def run(cond):
            f = open_file()
            if cond:
                f.close()
            f.read()
    """) == []


def test_must_policy_flags_when_every_join_arm_is_illegal():
    findings = analyze(MINI, """\
        def run(cond):
            f = open_file()
            if cond:
                f.close()
            else:
                f.close()
            f.read()
    """)
    assert len(findings) == 1
    assert findings[0][0] == 7


def test_opaque_rebinding_resets_to_all_states():
    assert analyze(MINI, """\
        def run():
            f = open_file()
            f.close()
            f = reopen_somehow()
            f.read()
    """) == []


def test_alias_copies_the_source_state():
    assert analyze(MINI, """\
        def run():
            f = open_file()
            g = f
            g.read()
    """) == []
    findings = analyze(MINI, """\
        def run():
            f = open_file()
            f.close()
            g = f
            g.read()
    """)
    assert len(findings) == 1
    assert "'g'" in findings[0][2]


def test_del_resets_tracking():
    assert analyze(MINI, """\
        def run():
            f = open_file()
            f.close()
            del f
            f.read()
    """) == []


def test_escape_semantics_ignore_vs_reset():
    source = """\
        def run():
            f = open_file()
            f.close()
            mystery(f)
            f.read()
    """
    # ignore: unknown calls cannot advance the object, so the read is
    # still a use-after-close.
    assert len(analyze(MINI, source)) == 1
    # reset: unknown code may have reopened it.
    assert analyze(replace(MINI, on_escape="reset"), source) == []


def test_tuple_unpack_creator_narrows_the_named_element():
    spec = replace(MINI, creators=(Creator("load", "open", result_index=1),))
    assert analyze(spec, """\
        def run():
            meta, f = load()
            f.read()
            f.close()
    """) == []
    findings = analyze(spec, """\
        def run():
            meta, f = load()
            f.close()
            f.close()
    """)
    assert len(findings) == 1


def test_interprocedural_relation_advances_caller_state():
    findings = analyze(MINI, """\
        def shutdown(h):
            h.close()

        def run():
            f = open_file()
            shutdown(f)
            f.read()
    """)
    # shutdown() contributes open -> {closed}; the read then flags.
    assert len(findings) == 1
    assert findings[0][0] == 7


def test_interprocedural_call_site_must_violation():
    findings = analyze(MINI, """\
        def finish(h):
            h.close()

        def run():
            f = open_file()
            f.close()
            finish(f)
    """)
    assert len(findings) == 1
    assert "finish" in findings[0][2]
    assert "cannot complete legally" in findings[0][2]


def test_transition_relation_values_and_memoisation():
    project, ctx = project_of("""\
        def shutdown(h):
            h.close()
    """)
    fid = project.functions_of(ctx.logical)[0].fid
    relation = transition_relation(project, MINI, fid, "h")
    assert relation == {"open": frozenset({"closed"}),
                       "closed": frozenset({"broken"})}
    assert transition_relation(project, MINI, fid, "h") is relation
    assert transition_relation(project, MINI, fid, "nope") is None


def test_render_table_lists_states_and_transitions():
    table = render_table(MINI)
    assert "protocol: mini-file" in table
    assert "states: open, closed (+ broken)" in table
    assert "creator: open_file(...) -> open" in table
    assert "(forbidden)" in table
    lines = table.splitlines()
    assert any(line.startswith(".close()") and "open" in line
               and "closed" in line for line in lines)


# -- per-rule fixtures ---------------------------------------------------------

def lint(source, logical):
    runner = LintRunner()
    return runner.check_source(textwrap.dedent(source),
                               display="<fixture>", logical=logical)


def of_rule(violations, rule_id):
    return [v for v in violations if v.rule_id == rule_id]


def test_rl013_flags_commit_after_abort():
    violations = lint("""\
        def drive(sched, txn: TransactionRuntime, now):
            sched.abort_transaction(txn, now)
            sched.commit(txn, now)
    """, "repro/core/schedulers/sched.py")
    rl013 = of_rule(violations, "RL013")
    assert len(rl013) == 1
    assert "commit" in rl013[0].message
    assert "no commit after a doom or abort" in rl013[0].message


def test_rl013_flags_double_abort_and_bad_restart():
    violations = lint("""\
        def stop(sched, txn: TransactionRuntime, now):
            sched.abort_transaction(txn, now)
            sched.abort_transaction(txn, now)

        def finish(sched, txn: TransactionRuntime, now):
            sched.commit(txn, now)
            txn.reset_for_retry()
    """, "repro/core/schedulers/sched.py")
    rl013 = of_rule(violations, "RL013")
    assert len(rl013) == 2
    assert "no double abort" in rl013[0].message
    assert "restart only from aborted" in rl013[1].message


def test_rl013_clean_on_the_full_lifecycle():
    violations = lint("""\
        def run(sched, spec, now):
            txn = TransactionRuntime(spec)
            sched.admit(txn, now)
            txn.start_time = now
            sched.request_lock(txn, now)
            txn.advance_step()
            sched.commit(txn, now)
    """, "repro/core/schedulers/sched.py")
    assert of_rule(violations, "RL013") == []


def test_rl013_out_of_scope_is_silent():
    violations = lint("""\
        def drive(sched, txn: TransactionRuntime, now):
            sched.abort_transaction(txn, now)
            sched.commit(txn, now)
    """, "repro/metrics/collector.py")
    assert of_rule(violations, "RL013") == []


def test_rl014_flags_double_trigger_and_value_write():
    violations = lint("""\
        def run(env):
            e = Event(env)
            e.succeed()
            e.fail()

        def poke(env):
            e = Event(env)
            e._value = 1
    """, "repro/engine/helpers.py")
    rl014 = of_rule(violations, "RL014")
    assert len(rl014) == 2
    assert "at most once" in rl014[0].message
    assert "_value" in rl014[1].message


def test_rl014_defuse_and_unschedule_need_the_right_state():
    violations = lint("""\
        def good(env):
            e = Event(env)
            env.unschedule(e)
            t = Timeout(env, 3)
            t.fail()
            t._defused = True

        def bad(env):
            e = Event(env)
            e._defused = True
            t = Timeout(env, 3)
            t.succeed()
            env.unschedule(t)
    """, "repro/engine/helpers.py")
    rl014 = of_rule(violations, "RL014")
    assert len(rl014) == 2
    assert "_defused" in rl014[0].message
    assert "unschedule" in rl014[1].message


def test_rl015_flags_touch_after_excision():
    violations = lint("""\
        def drop(wtpg, tid):
            wtpg.remove_transaction(tid)
            wtpg.decrement_source(tid)
    """, "repro/core/wtpg.py")
    rl015 = of_rule(violations, "RL015")
    assert len(rl015) == 1
    assert "decrement_source" in rl015[0].message
    assert "excised" in rl015[0].message


def test_rl015_flags_double_insertion():
    violations = lint("""\
        def insert(wtpg, tid, weight):
            wtpg.add_transaction(tid, weight)
            wtpg.add_transaction(tid, weight)
    """, "repro/core/wtpg.py")
    rl015 = of_rule(violations, "RL015")
    assert len(rl015) == 1
    assert "exactly once" in rl015[0].message


def test_rl015_clean_on_the_full_node_life():
    violations = lint("""\
        def life(wtpg, tid, other, weight):
            wtpg.add_transaction(tid, weight)
            wtpg.ensure_pair(tid, other)
            wtpg.resolve(other, tid)
            wtpg.decrement_source(tid)
            wtpg.remove_transaction(tid)
    """, "repro/core/wtpg.py")
    assert of_rule(violations, "RL015") == []


def test_rl016_flags_merge_without_validation():
    violations = lint("""\
        def resume(done, path):
            header, recorded = read_checkpoint(path)
            done.update(recorded)
    """, "repro/experiments/parallel.py")
    rl016 = of_rule(violations, "RL016")
    assert len(rl016) == 1
    assert "update" in rl016[0].message
    assert "validated" in rl016[0].message


def test_rl016_flags_double_merge_but_not_the_valid_sequence():
    good = lint("""\
        def resume(done, path, fingerprint, expected):
            header, recorded = read_checkpoint(path)
            _validate_checkpoint(header, recorded, fingerprint,
                                 expected, path)
            done.update(recorded)
    """, "repro/experiments/parallel.py")
    assert of_rule(good, "RL016") == []
    bad = lint("""\
        def resume(done, path, fingerprint, expected):
            header, recorded = read_checkpoint(path)
            _validate_checkpoint(header, recorded, fingerprint,
                                 expected, path)
            done.update(recorded)
            done.update(recorded)
    """, "repro/experiments/parallel.py")
    rl016 = of_rule(bad, "RL016")
    assert len(rl016) == 1
    assert "exactly once" in rl016[0].message


# -- teeth: the rules fire on (re-broken) real sources -------------------------

def _without_suppressions(path):
    source = path.read_text(encoding="utf-8")
    return re.sub(r"#\s*repro-lint:[^\n]*", "", source)


def test_rl013_teeth_on_real_control_plane():
    source = _without_suppressions(REPO / "src/repro/machine/shard.py")
    violations = LintRunner().check_source(
        source, display="<broken shard>",
        logical="repro/machine/shard.py")
    rl013 = of_rule(violations, "RL013")
    # The coordinator aborts and commits each participant's runtime,
    # which the analysis cannot tie to the global one; with the two
    # justified suppressions stripped, the restart after an abort and
    # the committed-only response_time() read must flag exactly.
    assert len(rl013) == 2
    assert "reset_for_retry" in rl013[0].message
    assert "response_time" in rl013[1].message


def test_rl014_teeth_on_real_engine_core():
    source = _without_suppressions(REPO / "src/repro/engine/core.py")
    violations = LintRunner().check_source(
        source, display="<broken engine core>",
        logical="repro/engine/core.py")
    rl014 = of_rule(violations, "RL014")
    # interrupt() and the timeout_until() heap fast path both construct
    # born-triggered events by writing _value directly; stripped of
    # their justifications, both writes must flag.
    assert len(rl014) == 2
    assert all("_value" in v.message for v in rl014)


def test_rl015_teeth_on_reseeded_builder_bug():
    source = (REPO / "src/repro/core/builder.py").read_text(
        encoding="utf-8")
    broken = source.replace(
        "    wtpg.remove_transaction(tid)\n    table.unregister(tid)",
        "    wtpg.remove_transaction(tid)\n"
        "    wtpg.decrement_source(tid)\n"
        "    table.unregister(tid)")
    assert broken != source, "builder.remove_transaction changed shape"
    violations = LintRunner().check_source(
        broken, display="<broken builder>",
        logical="repro/core/builder.py")
    rl015 = of_rule(violations, "RL015")
    # The paper's WA-message race: a weight adjustment applied to a
    # node that was just excised.
    assert len(rl015) == 1
    assert "decrement_source" in rl015[0].message


def test_rl016_teeth_on_unvalidated_resume():
    source = (REPO / "src/repro/experiments/parallel.py").read_text(
        encoding="utf-8")
    broken = re.sub(
        r"_validate_checkpoint\(header, recorded, fingerprint,"
        r"\s*\n\s*expected, path\)",
        "pass", source)
    assert broken != source, "run_sweep's validation call changed shape"
    violations = LintRunner().check_source(
        broken, display="<broken parallel>",
        logical="repro/experiments/parallel.py")
    rl016 = of_rule(violations, "RL016")
    assert len(rl016) == 1
    assert "update" in rl016[0].message


def test_real_scopes_are_clean():
    runner = LintRunner()
    violations = runner.check_paths([
        REPO / "src" / "repro" / "engine",
        REPO / "src" / "repro" / "core",
        REPO / "src" / "repro" / "experiments",
        REPO / "src" / "repro" / "faults",
    ])
    assert violations == []
