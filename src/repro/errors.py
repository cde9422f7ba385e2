"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Submodules add
their own, more specific subclasses here rather than defining them locally:
keeping the hierarchy in one file makes the public failure surface easy to
audit.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """An inconsistency was detected inside the discrete-event engine."""


class EngineStateError(SimulationError):
    """An engine object was used in a state that does not permit it.

    Examples: triggering an event twice, running an environment that has
    already finished, or waiting on an event from a foreign environment.
    """


class SchedulerError(ReproError):
    """A concurrency-control scheduler reached an inconsistent state."""


class LockTableError(SchedulerError):
    """The partition lock table was driven through an illegal transition."""


class WTPGError(SchedulerError):
    """The weighted transaction precedence graph is inconsistent."""


class LifecycleError(SchedulerError):
    """A BAT runtime was driven through a move its phase does not allow.

    The §3 lifecycle: admit only a pending runtime; request locks for and
    commit only an active one; abort an active one once; restart one
    that was rejected, aborted or never started.  See
    :class:`repro.core.transaction.Phase`.
    """


class NotChainFormError(WTPGError):
    """A WTPG expected to be chain-form (Definition 2 of the paper) is not."""


class SerializationViolationError(SchedulerError):
    """The produced schedule violates conflict serializability.

    This is raised by the validation layer (``repro.core.history``) and by
    scheduler self-checks; a correct scheduler never triggers it, so seeing
    one in tests means a bug in the scheduler under test (or, for NODC,
    expected behaviour — NODC intentionally ignores conflicts).
    """


class FaultError(SimulationError):
    """An injected fault hit a transaction's in-flight work.

    Raised through the engine when a data node crashes under a dispatched
    step, or when a transaction is cancelled (cascade abort, explicit
    injection).  ``kind`` names the fault class — ``"crash"``,
    ``"cascade"`` or ``"injected"`` — and becomes the abort cause in the
    metrics and trace.
    """

    def __init__(self, message: str, kind: str = "injected") -> None:
        super().__init__(message)
        self.kind = kind


class ConfigurationError(ReproError):
    """Simulation or experiment parameters are invalid or inconsistent."""


class FaultPlanError(ConfigurationError):
    """A fault-injection plan is malformed or inconsistent."""


class WorkloadError(ReproError):
    """A workload pattern or generator was specified incorrectly."""


class ExperimentError(ReproError):
    """An experiment run could not be completed or analysed."""
