"""repro-lint — project-specific static analysis for the WTPG core.

The reproduction's correctness rests on conventions a general-purpose
linter cannot know: all randomness flows through
:mod:`repro.engine.rng`, every mutation of the WTPG's derived-state
containers bumps a generation counter (runtime invariant 7 of
:mod:`repro.core.invariants`), the estimator is the *only* friend module
allowed inside :class:`~repro.core.wtpg.WTPG`'s private state, only
:mod:`repro.engine.core` triggers an engine event, and critical-path
floats are never compared with ``==`` in scheduler code.
This package turns those conventions into machine-checked rules so a
regression is caught at lint time instead of as a silently wrong
schedule.  Single-pass AST matchers handle the per-node contracts,
including the WTPG's bump-before-write barrier and the engine Event
write barrier (RL003); the *path*
contract RL007 runs on an intraprocedural CFG (:mod:`repro.lint.cfg`)
with a worklist fixpoint solver (:mod:`repro.lint.dataflow`); the
*interprocedural* contracts (RL009 and RL012: yield-point atomicity)
additionally consult a whole-program call graph
(:mod:`repro.lint.callgraph`) and may-yield function summaries
(:mod:`repro.lint.summaries`), so a yield point hidden behind a helper
call is still seen.  Lifecycles are checked at run time instead: a
BAT's by its :class:`~repro.core.transaction.Phase`, the lock table's
against the WTPG by invariant 1 of :mod:`repro.core.invariants`, and an
engine event's by the single-trigger guard of ``succeed()``/``fail()``.

Usage::

    PYTHONPATH=src python -m repro.lint src/          # or: repro-lint src/
    repro-lint --json src/                            # machine-readable
    repro-lint --sarif report.sarif src/              # SARIF 2.1.0
    repro-lint --select RL009,RL012 src/              # or --ignore RLxxx
    repro-lint --list-rules                           # rule catalogue
    repro-lint --explain RL009                        # one catalogue entry

Rules (see ``docs/lint.md`` for the full catalogue and rationale):

========  ==============================================================
RL001     determinism: no ambient randomness/clocks outside engine/rng.py,
          no ``_stream``/``_streams`` access there either (so no code
          holds a generator), ``RandomStreams(...)`` built only by
          ``Cluster.__init__`` and ``record_workload``; no iteration
          over unordered set expressions in core/ and engine/
RL003     encapsulation and cache coherence (static invariant 7): no
          ``wtpg._*`` access outside core/wtpg.py (read-only allowlist
          for the estimator overlay) and no write to a watched WTPG
          container there; in core/wtpg.py every such write follows a
          generation bump, and nothing yields or imports engine/machine;
          no ``._value``/``._defused`` write outside engine/core.py
RL004     float equality: no ``==``/``!=`` on critical-path/weight floats
          in core/schedulers/ (the infinity sentinel is exempt)
RL005     exception hygiene: no blind ``except Exception: pass`` swallows
          (other bare excepts are ruff ``E722``)
RL007     guarded caches: memoized fields are read only behind their
          generation-guard check (the static face of invariant 7's reads)
RL009     stale snapshot: a machine/ local holding shared simulation
          state is not read again after a yield point (direct or via a
          may-yield callee) without re-reading or a generation guard
RL012     synchronous schedulers: nothing in core/schedulers/ yields or
          (transitively) calls a function that may yield
RL000     lint hygiene: unparseable files and suppression comments
          without a justification
========  ==============================================================

Suppressions: append ``# repro-lint: disable=RL001 -- <justification>``
to the offending line.  The justification text after ``--`` is
mandatory; a suppression without one is itself an RL000 violation.
There is no baseline: a new rule lands together with the fix (or the
justified suppression) for every finding it raises.
"""

from repro.lint.engine import LintRunner, lint_paths
from repro.lint.model import FileContext, Rule, Violation, all_rules

__all__ = [
    "FileContext",
    "LintRunner",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
]
