"""The parallel property harness equals the serial one, verdict for verdict.

Satellite of the deterministic-sweep work: ``REPRO_PROP_JOBS=N`` must
change wall-clock only.  Each case is a pure function of the master seed
and its name, so the per-case verdicts (including the derived simulation
seeds) are bit-identical for every jobs value and come back in input
order.
"""

import pytest

from tests.prop import harness

# A reduced grid — enough to cross scheduler families and hit both
# fault-free and faulty generated plans, small enough for CI.
REDUCED = [(scheduler, f"{scheduler}-case-{i}")
           for scheduler in ("CHAIN", "K2", "C2PL", "2PL")
           for i in range(3)]


def test_parallel_verdicts_match_serial():
    serial = harness.check_cases(REDUCED, jobs=1)
    parallel = harness.check_cases(REDUCED, jobs=2)
    assert serial == parallel
    # Order is input order, seeds are the derived per-case seeds.
    assert [v.name for v in parallel] == [name for _, name in REDUCED]
    assert all(v.ok for v in parallel), [v.error for v in parallel if not v.ok]
    assert all(v.case_seed > 0 for v in parallel)


def test_parallel_shuffled_input_same_verdicts():
    """Verdicts depend on case identity, not on submission order."""
    shuffled = list(reversed(REDUCED))
    forward = {v.name: v for v in harness.check_cases(REDUCED, jobs=2)}
    backward = {v.name: v for v in harness.check_cases(shuffled, jobs=2)}
    assert forward == backward


def test_prop_jobs_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_PROP_JOBS", raising=False)
    assert harness.prop_jobs() == 1
    monkeypatch.setenv("REPRO_PROP_JOBS", "4")
    assert harness.prop_jobs() == 4
    monkeypatch.setenv("REPRO_PROP_JOBS", "0")
    assert harness.prop_jobs() == 1
    monkeypatch.setenv("REPRO_PROP_JOBS", "not-a-number")
    assert harness.prop_jobs() == 1


def test_failing_case_becomes_verdict(monkeypatch):
    """Assertion failures are captured, not raised, so one bad case in a
    parallel batch cannot mask the verdicts of the others."""
    def explode(result, name):
        raise AssertionError(f"{name}: injected failure")

    monkeypatch.setattr(harness, "assert_invariants", explode)
    verdicts = harness.check_cases(
        [("CHAIN", "CHAIN-case-0"), ("K2", "K2-case-0")], jobs=1)
    assert [v.ok for v in verdicts] == [False, False]
    assert "injected failure" in verdicts[0].error
    assert verdicts[0].case_seed > 0


def test_raising_case_propagates_without_a_rerun(monkeypatch):
    """A case's own ValueError is not mistaken for a missing pool: it
    surfaces from the worker, and no case is run again in-process."""
    in_process = []
    check_case = harness.check_case

    def recorded(scheduler, name):
        in_process.append(name)
        return check_case(scheduler, name)

    monkeypatch.setattr(harness, "check_case", recorded)
    pairs = [("CHAIN", "CHAIN-case-0"), ("NOPE", "NOPE-case-0")]
    with pytest.raises(ValueError, match="unknown scheduler") as raised:
        harness.check_cases(pairs, jobs=2)
    # The pool attaches the worker's traceback as the cause; an
    # in-process re-run would raise without one.
    assert raised.value.__cause__ is not None
    assert in_process == []


def test_single_case_stays_serial(monkeypatch):
    """A 1-element batch never pays pool startup, whatever jobs says."""
    def no_pool(*args, **kwargs):
        raise AssertionError("pool should not be created for one case")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    verdicts = harness.check_cases([("CHAIN", "CHAIN-case-0")], jobs=8)
    assert len(verdicts) == 1 and verdicts[0].ok
