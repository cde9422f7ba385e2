"""Deterministic parallel sweep runner with checkpoint/resume.

The paper's results are all parameter sweeps (arrival rate, NumHots,
declared-cost error, abort rate) over independent simulation runs, and
every run is a pure function of its :class:`~repro.experiments.runner.
PointSpec` and a seed.  That makes sweeps embarrassingly parallel —
*provided* parallelism cannot perturb the results.  This module makes
that guarantee structural:

**Seed derivation.**  Each task's simulation seed is a stable hash of
the sweep's root seed and the task's key (:func:`task_seed`, built on
the same SHA-256 splitter — :func:`repro.engine.rng.derive_seed` — that
the simulator uses for its named streams).  A task's seed therefore
depends only on *what* the task is, never on which worker ran it, how
many workers there were, or in what order tasks were submitted: serial
and parallel execution are bit-identical by construction, and the
equivalence is regression-tested in
``tests/experiments/test_parallel_runner.py``.

**Checkpointing.**  With ``checkpoint=<path>``, every completed task is
appended to a JSONL grid file as it finishes.  An interrupted sweep
resumes by re-running :func:`run_sweep` with the same arguments:
finished tasks are loaded, pending ones executed.  The file's header
carries a fingerprint of the sweep definition *and* of the simulator's
source (:func:`code_fingerprint`), so a checkpoint written by a
different grid — or by different code — is rejected loudly
(:class:`~repro.errors.CheckpointError`) instead of silently merging
incomparable results.

**Merging.**  Replications of one point are summarised on the parent
with the Student-t confidence intervals of
:func:`repro.metrics.stats.mean_confidence_interval`;
:meth:`SweepResult.grid` is the merged per-point table.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple, Union)

from repro.engine.rng import derive_seed
from repro.errors import CheckpointError, ExperimentError, SweepInterrupted
from repro.experiments.runner import PointSpec
from repro.machine import run_simulation
from repro.metrics.collector import RunMetrics

#: Bumped whenever the checkpoint layout changes incompatibly.
CHECKPOINT_FORMAT = 1

#: Stream-name prefix under which task seeds are derived from the root
#: seed (see repro.engine.rng.derive_seed — the named-stream splitter).
TASK_SEED_STREAM = "sweep-task"

ProgressFn = Callable[[str], None]


# ---------------------------------------------------------------------------
# Task model
# ---------------------------------------------------------------------------

def point_key(spec: PointSpec) -> str:
    """A stable, human-greppable identity for one grid point.

    Every field except ``seed`` participates (the sweep runner derives
    the simulation seed itself, so two specs differing only in ``seed``
    denote the same point).  The encoding is canonical JSON, so the key
    is independent of field declaration order and process hash seeds.
    """
    raw = asdict(spec)
    raw.pop("seed", None)
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def task_seed(root_seed: int, key: str) -> int:
    """The derived simulation seed for task ``key`` under ``root_seed``.

    A pure function of its arguments — worker scheduling, pool size and
    submission order cannot influence it.
    """
    return derive_seed(root_seed, f"{TASK_SEED_STREAM}:{key}")


@dataclass(frozen=True)
class SweepTask:
    """One unit of work: a point spec, a replication index, a seed."""

    spec: PointSpec
    replication: int
    key: str
    seed: int


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: grid points x replications under one seed."""

    points: Tuple[PointSpec, ...]
    root_seed: int = 1
    replications: int = 1

    def __post_init__(self) -> None:
        if not self.points:
            raise ExperimentError("a sweep needs at least one point")
        if self.replications < 1:
            raise ExperimentError("replications must be >= 1")
        keys = [point_key(p) for p in self.points]
        if len(set(keys)) != len(keys):
            raise ExperimentError(
                "duplicate sweep points (seed does not distinguish points; "
                "the runner derives per-task seeds itself)")

    def tasks(self) -> List[SweepTask]:
        """Every task, in definition order (replications innermost)."""
        out: List[SweepTask] = []
        for spec in self.points:
            base = point_key(spec)
            for r in range(self.replications):
                key = f"{base}#r{r}"
                out.append(SweepTask(spec=spec, replication=r, key=key,
                                     seed=task_seed(self.root_seed, key)))
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "points": [asdict(p) for p in self.points],
            "root_seed": self.root_seed,
            "replications": self.replications,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SweepSpec":
        try:
            points = tuple(PointSpec(**p) for p in raw["points"])
            return cls(points=points, root_seed=int(raw["root_seed"]),
                       replications=int(raw["replications"]))
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"malformed sweep definition: {exc}") from exc


# ---------------------------------------------------------------------------
# Fingerprints: reject stale checkpoints loudly
# ---------------------------------------------------------------------------

#: Sub-packages of repro whose source participates in the code
#: fingerprint — exactly the layers that determine simulation results.
#: Tooling (lint/), reporting (analysis/) and the CLI are excluded so a
#: docs or linter change does not invalidate half-finished grids.
_FINGERPRINTED = ("config.py", "errors.py", "core", "engine", "machine",
                  "faults", "workloads", "metrics", "experiments")

_code_fingerprint_memo: Dict[str, str] = {}


def code_fingerprint() -> str:
    """SHA-256 over the simulator's own source files (sorted walk).

    Any change to result-bearing code yields a new fingerprint, which
    invalidates outstanding checkpoints: resuming a grid across a code
    change would otherwise merge runs from two different simulators.
    """
    if "value" in _code_fingerprint_memo:
        return _code_fingerprint_memo["value"]
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for entry in _FINGERPRINTED:
        path = package_root / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for source in files:
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(b"\x00")
            digest.update(source.read_bytes())
            digest.update(b"\x00")
    value = digest.hexdigest()
    _code_fingerprint_memo["value"] = value
    return value


def sweep_fingerprint(sweep: SweepSpec) -> str:
    """Identity of (sweep definition, checkpoint format, code)."""
    payload = json.dumps(
        {"format": CHECKPOINT_FORMAT, "sweep": sweep.as_dict(),
         "code": code_fingerprint()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Checkpoint file (JSONL): one header line, one line per finished task
# ---------------------------------------------------------------------------

def _header_line(sweep: SweepSpec, fingerprint: str) -> str:
    return json.dumps({
        "kind": "header", "format": CHECKPOINT_FORMAT,
        "fingerprint": fingerprint, "total_tasks": len(sweep.tasks()),
        "sweep": sweep.as_dict(),
    }, sort_keys=True)


def _result_line(task: SweepTask, metrics: RunMetrics) -> str:
    return json.dumps({
        "kind": "result", "key": task.key, "seed": task.seed,
        "metrics": metrics.as_dict(),
    }, sort_keys=True)


def _metrics_from_dict(raw: Mapping[str, Any]) -> RunMetrics:
    try:
        return RunMetrics(**raw)
    except TypeError as exc:
        raise CheckpointError(
            f"unreadable metrics in checkpoint: {exc}") from exc


def read_checkpoint(path: Union[str, Path],
                    ) -> Tuple[Dict[str, Any], Dict[str, RunMetrics]]:
    """Parse a checkpoint file into (header, results-by-task-key).

    A truncated *final* line is dropped silently — that is the normal
    debris of a kill mid-append, and the task it described simply re-runs.
    Corruption anywhere else, a missing header, or duplicate task keys
    raise :class:`CheckpointError`: those mean the file is not the
    append-only log this runner writes.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise CheckpointError(f"checkpoint {path} is empty")
    records: List[Dict[str, Any]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1:
                break  # interrupted mid-append; the task will re-run
            raise CheckpointError(
                f"corrupt checkpoint {path}: line {index + 1} is not "
                f"JSON ({exc})") from exc
    if not records or records[0].get("kind") != "header":
        raise CheckpointError(
            f"checkpoint {path} does not start with a header line")
    header = records[0]
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {header.get('format')!r}; "
            f"this runner writes format {CHECKPOINT_FORMAT}")
    results: Dict[str, RunMetrics] = {}
    for index, record in enumerate(records[1:], start=2):
        if record.get("kind") != "result":
            raise CheckpointError(
                f"corrupt checkpoint {path}: line {index} has kind "
                f"{record.get('kind')!r}")
        key = record.get("key")
        if not isinstance(key, str):
            raise CheckpointError(
                f"corrupt checkpoint {path}: line {index} lacks a task key")
        if key in results:
            raise CheckpointError(
                f"corrupt checkpoint {path}: task {key!r} recorded twice")
        results[key] = _metrics_from_dict(record.get("metrics", {}))
    return header, results


def sweep_status(path: Union[str, Path]) -> Dict[str, Any]:
    """Inspect a checkpoint: progress, and whether it is still fresh.

    ``stale`` is True when the sweep definition recorded in the header
    no longer fingerprints to the header's value — i.e. the simulator's
    code changed since the checkpoint was written and a resume would be
    rejected.
    """
    header, results = read_checkpoint(path)
    sweep = SweepSpec.from_dict(header["sweep"])
    expected = {t.key for t in sweep.tasks()}
    fingerprint = header.get("fingerprint", "")
    return {
        "path": str(path),
        "total_tasks": len(expected),
        "done_tasks": len([k for k in results if k in expected]),
        "points": len(sweep.points),
        "replications": sweep.replications,
        "root_seed": sweep.root_seed,
        "fingerprint": fingerprint,
        "stale": sweep_fingerprint(sweep) != fingerprint,
    }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _execute_task(task: SweepTask) -> Tuple[str, RunMetrics]:
    """Run one task (top-level so it pickles for pool workers)."""
    workload, catalog, params = task.spec.build()
    params = params.with_overrides(seed=task.seed)
    metrics = run_simulation(params, workload, catalog=catalog,
                             fault_plan=task.spec.fault_plan()).metrics
    return task.key, metrics


def resolve_workers(max_workers: Optional[int], tasks: int) -> int:
    """Effective worker count: clamp to the task count, None = all cores."""
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if max_workers < 1:
        raise ExperimentError(f"max_workers must be >= 1, got {max_workers}")
    return min(max_workers, tasks) if tasks else 1


def run_tasks(tasks: Sequence[SweepTask],
              max_workers: Optional[int] = 1,
              on_result: Optional[Callable[[SweepTask, RunMetrics],
                                           None]] = None,
              ) -> Dict[str, RunMetrics]:
    """Execute tasks, optionally across a process pool.

    Returns results keyed by task key, in *task definition order*
    regardless of completion order, so callers see identical structures
    for every worker count.  ``on_result`` fires as each task finishes
    (checkpoint appends, progress lines); in pool mode its invocation
    order follows completion and is the only thing scheduling may vary.

    If a pool cannot be created (restricted platforms), execution
    degrades to in-process — results are identical by construction.
    """
    tasks = list(tasks)
    if not tasks:
        return {}
    by_key = {t.key: t for t in tasks}
    workers = resolve_workers(max_workers, len(tasks))
    done: Dict[str, RunMetrics] = {}
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor, as_completed
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_execute_task, t) for t in tasks]
                for future in as_completed(futures):
                    key, metrics = future.result()
                    done[key] = metrics
                    if on_result is not None:
                        on_result(by_key[key], metrics)
        except (OSError, ValueError, ImportError):
            done.clear()  # pool unavailable: degrade to in-process
    if len(done) < len(tasks):
        for task in tasks:
            if task.key in done:
                continue
            key, metrics = _execute_task(task)
            done[key] = metrics
            if on_result is not None:
                on_result(task, metrics)
    return {t.key: done[t.key] for t in tasks}


@dataclass
class SweepResult:
    """A completed sweep: per-task metrics plus merged per-point rows."""

    sweep: SweepSpec
    results: Dict[str, RunMetrics]   # task key -> metrics, task order
    reused: int = 0                  # tasks loaded from the checkpoint
    executed: int = 0                # tasks actually run by this call
    checkpoint: Optional[str] = None
    _tasks: List[SweepTask] = field(default_factory=list, repr=False)

    def tasks(self) -> List[SweepTask]:
        if not self._tasks:
            self._tasks = self.sweep.tasks()
        return self._tasks

    def point_runs(self, spec: PointSpec) -> List[RunMetrics]:
        """All replications of one point, in replication order."""
        base = point_key(spec)
        return [self.results[t.key] for t in self.tasks()
                if point_key(t.spec) == base]

    def point_summary(self, spec: PointSpec) -> Dict[str, float]:
        """Merged metrics for one point: mean and 95% CI half-width."""
        runs = self.point_runs(spec)
        if not runs:
            raise ExperimentError(f"no runs for point {point_key(spec)}")
        summary: Dict[str, float] = {"replications": float(len(runs))}
        for name in ("throughput_tps", "mean_response_time"):
            values = [float(getattr(run, name)) for run in runs]
            if len(values) >= 2:
                from repro.metrics.stats import mean_confidence_interval
                mean, half = mean_confidence_interval(values)
            else:
                mean, half = values[0], 0.0
            summary[name] = mean
            summary[f"{name}_ci"] = half
        summary["commits"] = float(sum(run.commits for run in runs))
        return summary

    def grid(self) -> List[Dict[str, object]]:
        """One merged row per point, in sweep definition order."""
        rows: List[Dict[str, object]] = []
        for spec in self.sweep.points:
            row: Dict[str, object] = {
                "workload": spec.workload, "scheduler": spec.scheduler,
                "arrival_rate_tps": spec.arrival_rate_tps,
            }
            row.update(self.point_summary(spec))
            rows.append(row)
        return rows


def _validate_checkpoint(header: Dict[str, Any],
                         recorded: Dict[str, RunMetrics],
                         fingerprint: str,
                         expected: Set[str],
                         path: Path) -> None:
    """Reject a loaded checkpoint unless it belongs to exactly this sweep.

    Split out of :func:`run_sweep` so the loaded -> validated -> merged
    protocol is a visible call sequence (RL016 checks it): results from
    :func:`read_checkpoint` must pass through here before they may be
    merged into the sweep's ``done`` map.
    """
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"stale checkpoint {path}: it was written for a "
            "different sweep, configuration or code version "
            "(fingerprint mismatch); delete it to start over")
    unknown = set(recorded) - expected
    if unknown:
        raise CheckpointError(
            f"checkpoint {path} contains {len(unknown)} task(s) "
            "not in this sweep")


def run_sweep(sweep: SweepSpec,
              max_workers: Optional[int] = 1,
              checkpoint: Optional[Union[str, Path]] = None,
              progress: Optional[ProgressFn] = None,
              task_budget: Optional[int] = None) -> SweepResult:
    """Run (or resume) a sweep; the one-call entry point.

    * ``max_workers`` — process-pool width; 1 runs in-process.  Results
      are bit-identical for every value (per-task derived seeds).
    * ``checkpoint`` — JSONL grid file.  If it exists it must carry this
      sweep's fingerprint (else :class:`CheckpointError`); finished
      tasks are loaded and only pending ones run.
    * ``task_budget`` — stop after that many *newly executed* tasks and
      raise :class:`SweepInterrupted` (tests and smoke runs use this to
      simulate a mid-grid kill; the checkpoint stays resumable).
    """
    tasks = sweep.tasks()
    fingerprint = sweep_fingerprint(sweep)
    done: Dict[str, RunMetrics] = {}
    handle = None
    if checkpoint is not None:
        path = Path(checkpoint)
        if path.exists():
            header, recorded = read_checkpoint(path)
            expected = {t.key for t in tasks}
            _validate_checkpoint(header, recorded, fingerprint,
                                 expected, path)
            done.update(recorded)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(_header_line(sweep, fingerprint) + "\n")
        handle = path.open("a")
    reused = len(done)
    pending = [t for t in tasks if t.key not in done]
    interrupted = (task_budget is not None and task_budget < len(pending))
    if interrupted:
        assert task_budget is not None
        pending = pending[:task_budget]

    def on_result(task: SweepTask, metrics: RunMetrics) -> None:
        if handle is not None:
            handle.write(_result_line(task, metrics) + "\n")
            handle.flush()
        if progress is not None:
            progress(f"{task.spec.scheduler} "
                     f"λ={task.spec.arrival_rate_tps:.2f} r{task.replication}"
                     f": TPS={metrics.throughput_tps:.3f}")

    try:
        done.update(run_tasks(pending, max_workers=max_workers,
                              on_result=on_result))
    finally:
        if handle is not None:
            handle.close()
    if interrupted:
        raise SweepInterrupted(
            f"sweep stopped by task budget: {len(done)}/{len(tasks)} tasks "
            f"checkpointed{' to ' + str(checkpoint) if checkpoint else ''}; "
            "re-run with the same checkpoint to resume")
    ordered = {t.key: done[t.key] for t in tasks}
    return SweepResult(sweep=sweep, results=ordered, reused=reused,
                       executed=len(pending),
                       checkpoint=None if checkpoint is None
                       else str(checkpoint))
