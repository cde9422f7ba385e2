"""Transaction model of Section 2.2.

A Bulk Access Transaction (BAT) is a *sequential* execution of steps, each
reading or writing exactly one partition.  At its start a transaction
declares every step and its I/O demand in *objects* (the unit of bulk data
processing — e.g. ~50 disk tracks).  The paper's cost model:

* reading ``a%`` of partition ``P`` costs ``a * |P|`` objects;
* updating ``a%`` costs ``2 * a * |P|`` (bulk updates read before writing);
* ``due(s_i)`` — the objects a transaction must still access from the start
  of step ``s_i`` until its commit — is the suffix sum of declared costs.

Declared and actual demands are kept separately so that Experiment 4
(erroneous declarations) falls out naturally: schedulers only ever see
declared values, the data nodes execute actual ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import LifecycleError, WorkloadError
from repro.records import record


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) partition lock."""

    SHARED = "S"
    EXCLUSIVE = "X"

    def conflicts_with(self, other: "LockMode") -> bool:
        """X conflicts with both S and X; S conflicts only with X."""
        return self is LockMode.EXCLUSIVE or other is LockMode.EXCLUSIVE

    def __str__(self) -> str:
        return self.value


@record
class Step:
    """One read/write access of a BAT to a single partition.

    ``cost`` is the actual I/O demand in objects; ``declared_cost`` is what
    the transaction declares to the scheduler (defaults to the actual cost;
    differs in Experiment 4).  Costs may be fractional (e.g. ``w(F1:0.2)``
    in Pattern1 is a 0.2-object bulk write).
    """

    partition: int
    mode: LockMode
    cost: float
    declared_cost: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise WorkloadError(f"step cost must be non-negative: {self.cost}")
        if self.declared_cost is None:
            object.__setattr__(self, "declared_cost", self.cost)
        elif self.declared_cost < 0:
            raise WorkloadError(
                f"declared cost must be non-negative: {self.declared_cost}")

    @staticmethod
    def read(partition: int, cost: float,
             declared_cost: Optional[float] = None) -> "Step":
        """A shared-lock step, paper notation ``r(P:C)``."""
        return Step(partition, LockMode.SHARED, cost, declared_cost)

    @staticmethod
    def write(partition: int, cost: float,
              declared_cost: Optional[float] = None) -> "Step":
        """An exclusive-lock step, paper notation ``w(P:C)``."""
        return Step(partition, LockMode.EXCLUSIVE, cost, declared_cost)

    def __str__(self) -> str:
        op = "r" if self.mode is LockMode.SHARED else "w"
        return f"{op}(P{self.partition}:{self.cost:g})"


class TransactionSpec:
    """The full pre-declared shape of a BAT: its ordered steps.

    Immutable; runtime progress lives in :class:`TransactionRuntime`.
    """

    def __init__(self, tid: int, steps: Sequence[Step],
                 label: str = "") -> None:
        if not steps:
            raise WorkloadError(f"transaction T{tid} must have at least one step")
        self.tid = tid
        self.steps: Tuple[Step, ...] = tuple(steps)
        self.label = label
        # declared_cost is never None after Step.__post_init__; the
        # fallback only narrows the type for strict checking.
        self._dues = self._suffix_sums(
            s.declared_cost if s.declared_cost is not None else s.cost
            for s in self.steps)
        self._actual_dues = self._suffix_sums(s.cost for s in self.steps)

    @staticmethod
    def _suffix_sums(costs: Iterable[float]) -> Tuple[float, ...]:
        values = list(costs)
        out: List[float] = [0.0] * len(values)
        running = 0.0
        for i in range(len(values) - 1, -1, -1):
            running += values[i]
            out[i] = running
        return tuple(out)

    def due(self, step_index: int) -> float:
        """``due(s_i)``: declared objects from the start of step i to commit.

        Defined in Section 3.1: ``due(s_N) = costof(s_N)`` and
        ``due(s_i) = costof(s_i) + due(s_{i+1})``.
        """
        return self._dues[step_index]

    def actual_due(self, step_index: int) -> float:
        """Like :meth:`due` but on actual (not declared) costs."""
        return self._actual_dues[step_index]

    @property
    def declared_total(self) -> float:
        """Total declared objects, ``due(s_0)``."""
        return self._dues[0]

    @property
    def actual_total(self) -> float:
        """Total actual objects the transaction will process."""
        return self._actual_dues[0]

    @property
    def partitions(self) -> Tuple[int, ...]:
        """Distinct partitions touched, in first-access order."""
        seen: List[int] = []
        for step in self.steps:
            if step.partition not in seen:
                seen.append(step.partition)
        return tuple(seen)

    def strongest_mode(self, partition: int) -> Optional[LockMode]:
        """The strongest lock mode declared on ``partition`` (or None)."""
        modes = [s.mode for s in self.steps if s.partition == partition]
        if not modes:
            return None
        if LockMode.EXCLUSIVE in modes:
            return LockMode.EXCLUSIVE
        return LockMode.SHARED

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        body = " -> ".join(str(s) for s in self.steps)
        return f"T{self.tid}: {body}"


class Phase(enum.Enum):
    """Where a :class:`TransactionRuntime` is in the §3 lifecycle.

    ``Scheduler.admit`` takes PENDING to ACTIVE or REJECTED;
    ``request_lock`` and ``commit`` need ACTIVE, and ``commit`` leaves
    COMMITTED; :meth:`TransactionRuntime.mark_aborted`, which the control
    plane calls before a scheduler's ``abort_transaction``, takes ACTIVE
    to ABORTED; ``reset_for_retry`` takes any phase but ACTIVE and
    COMMITTED back to PENDING.  Any other move raises
    :class:`LifecycleError`.
    """

    PENDING = "pending"
    REJECTED = "rejected"
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


# Module aliases: the checks run per lock request, and a global name is
# much cheaper to read than an enum class attribute.
PENDING = Phase.PENDING
REJECTED = Phase.REJECTED
ACTIVE = Phase.ACTIVE
COMMITTED = Phase.COMMITTED
ABORTED = Phase.ABORTED


def illegal_move(txn: "TransactionRuntime", move: str) -> LifecycleError:
    """The error for ``move`` attempted on ``txn`` in its current phase."""
    return LifecycleError(f"T{txn.tid}: {move} while {txn.phase.value}")


@dataclass
class TransactionRuntime:
    """Mutable execution state of a transaction instance.

    ``remaining_declared`` starts at ``due(s_0)`` and is decremented by one
    per processed object (clamped at zero — an erroneous under-declaration
    must not push a WTPG weight negative).  This mirrors the paper's
    per-object adjustment messages to the control node.  ``phase`` is
    its place in the lifecycle (:class:`Phase`).
    """

    spec: TransactionSpec
    arrival_time: float = 0.0
    current_step: int = 0
    remaining_declared: float = field(default=0.0)
    attempts: int = 0
    start_time: Optional[float] = None
    commit_time: Optional[float] = None
    objects_done: float = 0.0      # bulk work of the current attempt
    wasted_objects: float = 0.0    # work thrown away by aborts (2PL)
    phase: Phase = field(default=PENDING, init=False, compare=False)
    # The spec's tid, copied once: the hot path reads it many times per BAT.
    tid: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.remaining_declared = self.spec.declared_total
        self.tid = self.spec.tid

    @property
    def committed(self) -> bool:
        return self.commit_time is not None

    @property
    def finished_all_steps(self) -> bool:
        return self.current_step >= len(self.spec.steps)

    def step(self) -> Step:
        """The step currently being (or about to be) executed."""
        return self.spec.steps[self.current_step]

    def note_object_processed(self, objects: float = 1.0) -> None:
        """Account ``objects`` of bulk work done (weight-adjust message)."""
        self.remaining_declared = max(0.0, self.remaining_declared - objects)
        self.objects_done += objects

    def note_objects_batch(self, full_quanta: int) -> None:
        """Account ``full_quanta`` whole objects in one call.

        Bit-identical to ``full_quanta`` calls of
        :meth:`note_object_processed` with ``objects=1.0``:

        * ``remaining_declared`` — subtracting an exactly representable
          positive integer from a positive double is exact (the result
          stays a multiple of the source's ulp with < 2**53 of them), so
          one clamped subtraction of ``float(full_quanta)`` equals the
          chain of clamped unit subtractions; once a chained step clamps
          to zero every later step stays zero, as does the single
          subtraction.
        * ``objects_done`` — integer-valued floats add exactly, so the
          coalesced add is used only on that fast path; a fractional
          accumulator (e.g. after a 0.2-object write tail) replays the
          unit adds, whose roundings the coalesced form would not match.
        """
        self.remaining_declared = max(
            0.0, self.remaining_declared - full_quanta)
        done = self.objects_done
        if done.is_integer():
            self.objects_done = done + full_quanta
        else:
            for _ in range(full_quanta):
                done += 1.0
            self.objects_done = done

    def advance_step(self) -> None:
        """Mark the current step finished and move to the next."""
        if self.finished_all_steps:
            raise WorkloadError(f"T{self.tid} has no further steps to advance")
        self.current_step += 1

    def mark_aborted(self) -> None:
        """End an active attempt as aborted; a second abort raises."""
        if self.phase is not ACTIVE:
            raise illegal_move(self, "abort")
        self.phase = ABORTED

    def reset_for_retry(self) -> None:
        """Reset progress after an admission abort or deadlock restart.

        Legal unless the attempt is still active or has committed; a
        rejected admission may reset the coordinator's own runtime, which
        no scheduler admitted (a never-started attempt)."""
        if self.phase is ACTIVE or self.phase is COMMITTED:
            raise illegal_move(self, "restart")
        self.phase = PENDING
        self.current_step = 0
        self.remaining_declared = self.spec.declared_total
        self.wasted_objects += self.objects_done
        self.objects_done = 0.0
        self.attempts += 1

    def response_time(self) -> float:
        """Completion latency (commit - arrival); raises if not committed."""
        if self.commit_time is None:
            raise WorkloadError(f"T{self.tid} has not committed")
        return self.commit_time - self.arrival_time

    def __repr__(self) -> str:
        return (f"<TxnRuntime T{self.tid} step={self.current_step}/"
                f"{len(self.spec.steps)} remaining={self.remaining_declared:g}>")
