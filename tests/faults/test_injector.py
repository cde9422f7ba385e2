"""FaultInjector unit behaviour: assassination and its determinism."""

from repro.core.transaction import Step, TransactionRuntime, TransactionSpec
from repro.engine import RandomStreams
from repro.faults import FaultInjector, FaultPlan, StepAbort


def spec(tid=1, n_steps=4):
    return TransactionSpec(tid, [Step.write(p, 5.0) for p in range(n_steps)],
                           label="bat")


class TestPlanAbort:
    def test_explicit_step_abort_fires_on_its_attempt(self):
        plan = FaultPlan(step_aborts=(StepAbort(1, 2, attempt=1),
                                      StepAbort(1, 0, attempt=2)))
        injector = FaultInjector(plan, RandomStreams(1))
        txn = TransactionRuntime(spec(tid=1))
        assert injector.plan_abort(txn) == 2          # attempt 1
        txn.reset_for_retry()
        assert injector.plan_abort(txn) == 0          # attempt 2
        txn.reset_for_retry()
        assert injector.plan_abort(txn) is None       # attempt 3: no entry

    def test_explicit_abort_clamped_to_step_count(self):
        plan = FaultPlan(step_aborts=(StepAbort(1, 99),))
        injector = FaultInjector(plan, RandomStreams(1))
        txn = TransactionRuntime(spec(tid=1, n_steps=3))
        assert injector.plan_abort(txn) == 3          # pre-commit abort

    def test_explicit_abort_consumes_no_randomness(self):
        plan = FaultPlan(step_aborts=(StepAbort(1, 0),), abort_rate=0.5)
        streams = RandomStreams(7)
        injector = FaultInjector(plan, streams)
        injector.plan_abort(TransactionRuntime(spec(tid=1)))
        # The "faults-aborts" stream is untouched: a fresh copy of the
        # same seed agrees on the next draw.
        from repro.faults.injector import STREAM_ABORTS
        fresh = RandomStreams(7)
        assert streams.random(STREAM_ABORTS) == fresh.random(STREAM_ABORTS)

    def test_zero_rate_never_aborts(self):
        injector = FaultInjector(FaultPlan(cascade=True), RandomStreams(1))
        for tid in range(1, 50):
            assert injector.plan_abort(
                TransactionRuntime(spec(tid=tid))) is None

    def test_unit_rate_always_aborts_within_bounds(self):
        injector = FaultInjector(FaultPlan(abort_rate=1.0), RandomStreams(1))
        for tid in range(1, 50):
            step = injector.plan_abort(TransactionRuntime(spec(tid=tid)))
            assert step is not None
            assert 0 <= step <= 4

    def test_rate_draws_are_seed_deterministic(self):
        plan = FaultPlan(abort_rate=0.3)
        def schedule(seed):
            injector = FaultInjector(plan, RandomStreams(seed))
            return [injector.plan_abort(TransactionRuntime(spec(tid=t)))
                    for t in range(1, 100)]
        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_rate_roughly_matches_frequency(self):
        injector = FaultInjector(FaultPlan(abort_rate=0.3), RandomStreams(5))
        hits = sum(1 for t in range(1, 1001)
                   if injector.plan_abort(
                       TransactionRuntime(spec(tid=t))) is not None)
        assert 200 < hits < 400
