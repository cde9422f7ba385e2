"""Tests for the declarative typestate layer (RL006, RL013, RL014).

Three tiers, mirroring the framework's own layering:

* golden framework tests drive a minimal protocol spec straight through
  :func:`check_protocol`, pinning the evaluator's semantics — creator
  narrowing, error-state cascade suppression, the must-violation policy
  at joins, opaque rebinding, aliasing, escape semantics, attribute
  operands, the exit obligation, and the interprocedural
  transition-relation lift;
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


def test_tuple_target_resets_every_element():
    # A creator's result bound through a tuple target is not tracked; a
    # tracked name inside one is opaquely rebound to the start states.
    spec = replace(MINI, creators=(Creator("load", "open"),))
    assert analyze(spec, """\
        def run():
            meta, f = load()
            f.close()
            f.close()
    """) == []
    assert analyze(MINI, """\
        def run():
            f = open_file()
            f.close()
            meta, f = reload()
            f.read()
    """) == []
    findings = analyze(MINI, """\
        def run():
            f = open_file()
            meta, f = reload()
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


MINI_LEASE = ProtocolSpec(
    name="mini-lease",
    states=("idle", "leased"),
    error_state="broken",
    creators=(),
    operations=(
        Operation(ARG, "take", _t(idle=("leased",)), introduces=True),
        Operation(ARG, "give_back", _t(leased=("idle",))),
    ),
    must_not_exit=frozenset({"leased"}),
)


def test_attribute_operand_stands_for_its_base_name():
    assert analyze(MINI_LEASE, """\
        def run(pool, job):
            pool.take(job)
            pool.give_back(job.key)
    """) == []
    findings = analyze(MINI_LEASE, """\
        def run(pool, job):
            pool.take(job)
            pool.give_back(job.key)
            pool.give_back(job.key)
    """)
    assert len(findings) == 1 and "give_back" in findings[0][2]


def test_exit_obligation_reports_at_the_acquire_site():
    findings = analyze(MINI_LEASE, """\
        def run(pool, job):
            pool.take(job)
            if job.bad():
                raise ValueError(job)
            pool.give_back(job.key)
    """)
    assert [f[0] for f in findings] == [2]
    assert "take() of 'job' in run" in findings[0][2]
    assert "still leased" in findings[0][2]


def test_exit_obligation_exempts_acquire_only_functions():
    assert analyze(MINI_LEASE, """\
        def hand_on(pool, job):
            pool.take(job)
    """) == []
    assert "must not reach a function exit: leased" in render_table(
        MINI_LEASE)


def test_tracked_names_start_outside_the_obligation():
    source = """\
        def run(pool, job):
            pool.give_back(job)
            pool.take(job)
    """
    [finding] = analyze(MINI_LEASE, source)
    assert "give_back" in finding[2] and "(idle)" in finding[2]
    # Without the obligation a name starts in every state, leased too.
    assert analyze(replace(MINI_LEASE, must_not_exit=frozenset()),
                   source) == []


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


def test_rl014_defuse_needs_a_triggered_event():
    violations = lint("""\
        def good(env):
            t = Timeout(env, 3)
            t.fail()
            t._defused = True

        def bad(env):
            e = Event(env)
            e._defused = True
    """, "repro/engine/helpers.py")
    rl014 = of_rule(violations, "RL014")
    assert len(rl014) == 1
    assert "_defused" in rl014[0].message


# -- teeth: the rules fire on (re-broken) real sources -------------------------

def _without_suppressions(path):
    source = path.read_text(encoding="utf-8")
    return re.sub(r"#\s*repro-lint:[^\n]*", "", source)


def test_rl006_teeth_on_real_scheduler_admit():
    """Admission registers only an admitted BAT.  Moved above the
    partner-map constraint, the registration is held on that
    constraint's reject path, which has nothing to unregister."""
    path = REPO / "src/repro/core/schedulers/base.py"
    source = path.read_text(encoding="utf-8")
    register = re.compile(r"\n( *)table\.register\(spec, own\)")
    declare = "own = table.declare(spec)"
    assert len(register.findall(source)) == 1 and declare in source, (
        "WTPGScheduler._admit changed shape")
    broken = register.sub("", source).replace(
        declare, declare + "\n            table.register(spec, own)")
    violations = LintRunner().check_source(
        broken, display="<broken scheduler base>",
        logical="repro/core/schedulers/base.py")
    rl006 = of_rule(violations, "RL006")
    # The reject path now returns with the declaration still registered;
    # the accept path hands it to the WTPG, so the name is judged.
    register_line = next(
        number for number, line in enumerate(broken.splitlines(), 1)
        if "table.register(spec, own)" in line)
    assert [v.line for v in rl006] == [register_line]
    assert "register()" in rl006[0].message
    assert "_admit" in rl006[0].message
    # As committed, nothing is registered before the verdict.
    assert of_rule(LintRunner().check_source(
        source, display=str(path),
        logical="repro/core/schedulers/base.py"), "RL006") == []


def test_rl013_teeth_on_real_control_plane():
    source = _without_suppressions(REPO / "src/repro/machine/shard.py")
    violations = LintRunner().check_source(
        source, display="<broken shard>",
        logical="repro/machine/shard.py")
    rl013 = of_rule(violations, "RL013")
    # The coordinator aborts each participant's sub-runtime, which the
    # analysis cannot tie to the global one; with the justified
    # suppression stripped, the restart after an abort must flag
    # exactly.  The committed-only response_time() read sits after the
    # attempt loop, which the CFG lets fall through from its `while
    # True` header, so `txn` may be in any state there and it does not
    # flag.
    assert len(rl013) == 1
    assert "reset_for_retry" in rl013[0].message


def test_rl014_teeth_on_real_engine_core():
    source = _without_suppressions(REPO / "src/repro/engine/core.py")
    violations = LintRunner().check_source(
        source, display="<broken engine core>",
        logical="repro/engine/core.py")
    rl014 = of_rule(violations, "RL014")
    # The timeout_until() heap fast path constructs a born-triggered
    # event by writing _value directly; stripped of its justification,
    # the write must flag.
    assert len(rl014) == 1
    assert "_value" in rl014[0].message


def test_real_scopes_are_clean():
    runner = LintRunner()
    violations = runner.check_paths([
        REPO / "src" / "repro" / "engine",
        REPO / "src" / "repro" / "core",
        REPO / "src" / "repro" / "experiments",
        REPO / "src" / "repro" / "faults",
    ])
    assert violations == []
