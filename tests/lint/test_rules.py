"""Each rule RL001-RL005 fires on its bad fixture and stays silent on
the good one.

Fixtures are in-memory sources checked through
:meth:`repro.lint.LintRunner.check_source`, whose explicit ``logical``
path lets a fixture impersonate any production module (rules decide
applicability from the logical path, not the on-disk location).
"""

import textwrap
from pathlib import Path

from repro.lint import LintRunner

REPO = Path(__file__).resolve().parents[2]


def lint(source, logical):
    runner = LintRunner()
    return runner.check_source(textwrap.dedent(source),
                               display="<fixture>", logical=logical)


def rule_ids(violations):
    return [v.rule_id for v in violations]


# -- RL001: determinism -------------------------------------------------------

RL001_BAD = """\
    import random
    import time

    def jitter():
        return time.time()

    def collect():
        out = []
        for tid in {3, 1, 2}:
            out.append(tid)
        return out
"""

RL001_GOOD = """\
    def collect(pending):
        total = sum(x for x in {1, 2, 3})
        out = []
        for tid in sorted({3, 1, 2}):
            out.append(tid + total)
        return out
"""


def test_rl001_fires_on_randomness_clock_and_set_iteration():
    found = rule_ids(lint(RL001_BAD, "repro/core/example.py"))
    assert found.count("RL001") == 3
    assert set(found) == {"RL001"}


def test_rl001_silent_on_good_fixture():
    assert lint(RL001_GOOD, "repro/core/example.py") == []


def test_rl001_set_iteration_only_checked_in_core_and_engine():
    source = """\
        def collect():
            return [tid for tid in {3, 1, 2}]
    """
    assert lint(source, "repro/core/example.py") != []
    assert lint(source, "repro/engine/example.py") != []
    assert lint(source, "repro/workloads/example.py") == []


def test_rl001_rng_module_itself_is_exempt():
    assert lint("import random\n", "repro/engine/rng.py") == []
    assert lint("import random\n", "repro/engine/example.py") != []


def test_rl001_flags_every_generator_access_outside_the_rng_module():
    source = """\
        def draw(streams):
            a = streams._stream("x").random()
            return a, len(streams._streams)
    """
    violations = lint(source, "repro/core/example.py")
    assert [(v.rule_id, v.line) for v in violations] == [
        ("RL001", 2), ("RL001", 3)]
    assert "RandomStreams._stream" in violations[0].message
    assert lint(source, "repro/engine/rng.py") == []
    assert lint(source, "repro/faults/example.py") != []


def test_rl001_named_draws_are_clean():
    source = """\
        def draw(streams):
            return streams.random("x"), streams.randint("x", 0, 3)
    """
    assert lint(source, "repro/faults/example.py") == []


def test_rl001_random_streams_built_only_by_its_owners():
    def construction(logical, source):
        return [(v.rule_id, v.line) for v in lint(source, logical)]

    owner = """\
        class Cluster:
            def __init__(self, params):
                self.streams = RandomStreams(params.seed)
    """
    assert construction("repro/machine/cluster.py", owner) == []
    assert construction("repro/machine/other.py", owner) == [("RL001", 3)]
    helper = """\
        def record_workload(workload, count, seed=0):
            streams = RandomStreams(seed)
            return [workload(t, streams) for t in range(count)]

        def elsewhere(seed):
            return engine.RandomStreams(seed)
    """
    assert construction("repro/workloads/tracefile.py", helper) == [
        ("RL001", 6)]
    # Module and class scope of an owner module are not owners.
    scopes = """\
        STREAMS = RandomStreams(1)

        class Cluster:
            SHARED = RandomStreams(2)
    """
    assert construction("repro/machine/cluster.py", scopes) == [
        ("RL001", 1), ("RL001", 4)]


def _real_source(relative):
    return (REPO / "src" / "repro" / relative).read_text(encoding="utf-8")


def test_rl001_teeth_on_real_fault_injector():
    """Reading the aborts generator directly in the real injector is one
    finding, at the edited line."""
    source = _real_source("faults/injector.py")
    named = "self.streams.random(STREAM_ABORTS)"
    assert source.count(named) == 1
    broken = source.replace(named,
                            "self.streams._stream(STREAM_ABORTS).random()")
    violations = lint(broken, "repro/faults/injector.py")
    line = broken[:broken.index("._stream(")].count("\n") + 1
    assert [(v.rule_id, v.line) for v in violations] == [("RL001", line)]


def test_rl001_teeth_on_real_cluster():
    """A module-scope RandomStreams in the real owner module is one
    finding; its construction in Cluster.__init__ stays clean."""
    source = _real_source("machine/cluster.py")
    assert lint(source, "repro/machine/cluster.py") == []
    broken = source + "\n_AMBIENT = RandomStreams(0)\n"
    violations = lint(broken, "repro/machine/cluster.py")
    line = len(broken.splitlines())
    assert [(v.rule_id, v.line) for v in violations] == [("RL001", line)]


# -- RL002 fixtures, answered by RL003's bump-first check ----------------------
#
# RL002 (then RL010) required a generation bump on every path to a
# WTPG method's exit.  The WTPG now bumps *before* it writes, and RL003
# checks that syntactically; these fixtures keep their names.

RL002_BAD = """\
    class WTPG:
        def __init__(self):
            self._source = {}
            self._generation = 0

        def add_transaction(self, tid, weight):
            self._source[tid] = weight

        def resolve(self, tid):
            self._succ[tid].add(tid)
            if tid > 0:
                self._generation += 1
            return tid
"""

RL002_GOOD = """\
    class WTPG:
        def __init__(self):
            self._source = {}
            self._generation = 0

        def add_transaction(self, tid, weight):
            self._generation += 1
            self._source[tid] = weight

        def remove_transaction(self, tid):
            if tid not in self._source:
                raise KeyError(tid)
            self._note_edge_weight(tid)
            del self._source[tid]

        def peek(self, tid):
            return self._source[tid]
"""


def test_rl002_fires_on_unbumped_mutations():
    violations = lint(RL002_BAD, "repro/core/wtpg.py")
    assert rule_ids(violations) == ["RL003", "RL003"]
    # Both writes come before any bump; ``__init__`` builds, so its
    # writes are exempt.
    assert [(v.line, v.col) for v in violations] == [(7, 8), (10, 8)]
    assert "WTPG.add_transaction writes self._source" in violations[0].message
    assert "WTPG.resolve writes self._succ" in violations[1].message


def test_rl002_silent_when_every_path_bumps_or_raises():
    assert lint(RL002_GOOD, "repro/core/wtpg.py") == []


def test_rl002_only_applies_to_the_real_wtpg_module():
    """Outside core/wtpg.py there is no bump-first check to pass: every
    watched write is a finding, ``__init__`` and bumps included."""
    violations = lint(RL002_GOOD, "repro/core/other.py")
    assert [(v.rule_id, v.line) for v in violations] == [
        ("RL003", 3), ("RL003", 8), ("RL003", 14)]
    assert all("outside core/wtpg.py" in v.message for v in violations)


# -- RL003: encapsulation -----------------------------------------------------

RL003_BAD = """\
    from repro.core.wtpg import _pair

    def peek(wtpg):
        return wtpg._cp_dist
"""

RL003_GOOD = """\
    def peek(wtpg):
        return wtpg.critical_path_length()
"""


def test_rl003_fires_on_private_access_and_import():
    found = rule_ids(lint(RL003_BAD, "repro/core/schedulers/example.py"))
    assert found == ["RL003", "RL003"]


def test_rl003_silent_on_public_api():
    assert lint(RL003_GOOD, "repro/core/schedulers/example.py") == []


def test_rl003_estimator_allowlist():
    allowed = """\
        from repro.core.wtpg import WTPG, PairEdge

        def read(wtpg):
            return (wtpg._cp_dist, wtpg._succ, wtpg._pred, wtpg._neighbors,
                    wtpg._unresolved)
    """
    assert lint(allowed, "repro/core/estimator.py") == []
    # The allowlist is attribute-exact: anything beyond it still fires,
    # and no private name may be imported.
    beyond = """\
        from repro.core.wtpg import _pair

        def read(wtpg):
            return wtpg._pairs
    """
    assert rule_ids(lint(beyond, "repro/core/estimator.py")) == [
        "RL003", "RL003"]


def test_rl003_estimator_allowlist_is_read_only():
    """An allowlisted attribute may be read, never written, even in a
    function with no yield point."""
    source = """\
        def poke(wtpg, a, b):
            wtpg._succ[a].add(b)
            wtpg._source[a] = 0.0
            del wtpg._neighbors[a]
    """
    violations = lint(source, "repro/core/estimator.py")
    assert [(v.rule_id, v.line, v.col) for v in violations] == [
        ("RL003", 2, 4), ("RL003", 3, 4), ("RL003", 4, 4)]
    assert "write to WTPG container '_succ'" in violations[0].message


def test_rl003_flags_writes_through_any_receiver_and_tuple_targets():
    source = """\
        class Helper:
            def fill(self, plane, a, b):
                plane.graph._neighbors[a].discard(b)
                self._pred, other = {}, {}
                return self._succ.get(a)
    """
    violations = lint(source, "repro/machine/helper.py")
    assert [(v.line, v.col) for v in violations] == [(3, 8), (4, 8)]


def test_rl003_teeth_on_a_real_wtpg_bump_moved_below_its_writes():
    source = (REPO / "src/repro/core/wtpg.py").read_text(encoding="utf-8")
    first = ("        if value != self._source[tid]:\n"
             "            self._generation += 1\n"
             "            self._source[tid] = value\n")
    last = ("        if value != self._source[tid]:\n"
            "            self._source[tid] = value\n"
            "            self._generation += 1\n")
    assert source.count(first) == 2, "expected bump-first weight setters"
    broken = source.replace(first, last, 1)
    violations = lint(broken, "repro/core/wtpg.py")
    line = broken.splitlines().index("            self._source[tid] = value")
    assert [(v.rule_id, v.line) for v in violations] == [("RL003", line + 1)]
    assert "WTPG.set_source_weight writes self._source" in violations[0].message


def test_rl003_wtpg_must_not_suspend():
    yields = """\
        class WTPG:
            def drain(self):
                yield self._generation
    """
    violations = lint(yields, "repro/core/wtpg.py")
    assert [(v.rule_id, v.line) for v in violations] == [("RL003", 3)]
    assert "suspension point" in violations[0].message
    imports = """\
        from repro.engine import Environment
        from ..machine import shard
        import repro.engine.core
        from repro import engine
        from repro.errors import WTPGError
    """
    violations = lint(imports, "repro/core/wtpg.py")
    assert [(v.rule_id, v.line) for v in violations] == [
        ("RL003", 1), ("RL003", 2), ("RL003", 3), ("RL003", 4)]
    assert "import of repro.machine in core/wtpg.py" in violations[1].message
    # Elsewhere, yields and engine imports are none of RL003's business.
    assert lint(yields.replace("self._generation", "1"),
                "repro/core/other.py") == []


# -- RL004: float equality ----------------------------------------------------

RL004_BAD = """\
    def decide(e_q, e_rival, peak, best_peak):
        if e_q == e_rival:
            return "tie"
        return peak != best_peak
"""

RL004_GOOD = """\
    def decide(e_q, e_rival, count, mode):
        if e_q == INFINITE_CONTENTION:
            return False
        if count == 3 and mode == "overlay":
            return True
        return e_q <= e_rival
"""


def test_rl004_fires_on_float_equality():
    found = rule_ids(lint(RL004_BAD, "repro/core/schedulers/example.py"))
    assert found == ["RL004", "RL004"]


def test_rl004_allows_sentinel_ordering_and_nonfloat_equality():
    assert lint(RL004_GOOD, "repro/core/schedulers/example.py") == []


def test_rl004_scoped_to_schedulers():
    assert lint(RL004_BAD, "repro/core/estimator.py") == []


# -- RL005: exception hygiene -------------------------------------------------

RL005_BAD = """\
    def run(task):
        try:
            task()
        except:
            pass
        try:
            task()
        except Exception:
            pass
"""

RL005_GOOD = """\
    def run(task, log):
        try:
            task()
        except ValueError:
            return None
        try:
            task()
        except Exception as exc:
            log(exc)
            raise
"""


def test_rl005_fires_on_bare_and_blind_excepts():
    found = rule_ids(lint(RL005_BAD, "repro/machine/example.py"))
    assert found == ["RL005", "RL005"]


def test_rl005_silent_on_narrow_or_reraising_handlers():
    assert lint(RL005_GOOD, "repro/machine/example.py") == []


def test_rl005_leaves_bare_excepts_with_a_body_to_ruff():
    # Bare excepts in general are ruff E722; RL005 keeps only the
    # silent-swallow half.
    source = """\
        def run(task, log):
            try:
                task()
            except:
                log()
                raise
    """
    assert lint(source, "repro/machine/example.py") == []
