"""The repository's benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload hotset_k2 --seed 1 --seconds 12 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
A run simulates a fixed list of replications of the workload (see
``workloads.py``) three ways:

* **timed** -- plain runs, nothing of the benchmark's inside them; they
  give ``bats_per_s`` (host seconds rescaled to reference machine speed,
  see ``calibrate.py``) and ``peak_rss_mb``;
* **check** -- the same simulations with a recorded history and a full
  ``Tracer``.  Each must pass ``SimulationResult.validate()`` and
  reproduce its timed twin's ``RunMetrics`` exactly; the simulated
  response times are read here, from the public commit path
  (``MetricsCollector.record_commit``);
* **traced** (``--trace 1`` only) -- the timed runs again with the layer
  spans of ``spans.py`` installed; they give the per-layer metrics and
  must also reproduce the timed runs' ``RunMetrics``.

``setup_s`` is the median of several cold set-ups, each in a fresh
interpreter (``setup_probe.py``).  A replication counts as a failed
operation if it raises, fails ``validate()`` or its simulated metrics
differ from its twins'.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of BENCHMARK.json under ``--trace 0`` and its per-layer metrics
under ``--trace 1``.  The line before it stamps the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from calibrate import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
#: Response-time percentiles need at least ten samples beyond p99.
MIN_COMMITS = 1000


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no simulator sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports repro from SRC

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds positive")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    Bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
          declared).run()


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: Any, seed: int, seconds: float, trace: int,
                 declared: Dict[str, Any]) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.rep_seeds: List[int] = workload.rep_seeds(seed, seconds)
        self.declared = declared
        self.attempted = 0
        self.failed = 0
        self.timed_clock = HostClock()

    # -- failure accounting --------------------------------------------------

    def _attempt(self, what: str, fn: Callable[[], Any]) -> Optional[Any]:
        """Run one operation; a raise counts it failed and returns None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # benchmark boundary: record, report, go on
            self.failed += 1
            print(f"perfbench: {what} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None

    # -- the three kinds of run ----------------------------------------------

    def _timed(self, rep_seed: int) -> Dict[str, Any]:
        cluster = self.workload.build(rep_seed, False)
        result = self.timed_clock.measure(cluster.run)
        result.validate()
        return result.metrics.as_dict()

    def _check(self, rep_seed: int, expected: Dict[str, Any]) -> List[float]:
        from repro.machine.trace import EventType
        cluster = self.workload.build(rep_seed, True)
        collector = cluster.metrics
        record_commit = collector.record_commit
        response_times: List[float] = []

        def capture(txn: Any, now: float) -> None:
            before = collector.commits
            record_commit(txn, now)
            if collector.commits > before:
                response_times.append(now - txn.arrival_time)

        collector.record_commit = capture  # type: ignore[method-assign]
        result = cluster.run()
        result.validate()
        metrics = result.metrics.as_dict()
        _same(metrics, expected, "check run")
        commits = metrics["commits"]
        traced = cluster.tracer.count(EventType.COMMITTED)
        if not len(response_times) == traced == commits:
            raise AssertionError(
                f"commits disagree: collector {commits}, commit path "
                f"{len(response_times)}, trace {traced}")
        mean = sum(response_times) / commits
        if mean != metrics["mean_response_time"]:
            raise AssertionError(
                f"mean response time from the commit path {mean} != "
                f"collector's {metrics['mean_response_time']}")
        return response_times

    def _traced(self, rep_seed: int, recorder: Any, clock: HostClock,
                expected: Dict[str, Any]) -> Dict[str, Any]:
        cluster = self.workload.build(rep_seed, False)
        recorder.watch_data_nodes(cluster.data_nodes)
        result = clock.measure(cluster.run)
        result.validate()
        metrics = result.metrics.as_dict()
        _same(metrics, expected, "traced run")
        metrics["dn_quanta"] = sum(node.messages_sent
                                   for node in cluster.data_nodes)
        return metrics

    # -- the run -------------------------------------------------------------

    def run(self) -> None:
        setup = ([] if self.trace else
                 [s for s in (self._attempt("set-up probe", self._setup_once)
                              for _ in range(SETUP_SAMPLES)) if s is not None])
        timed = {}
        for rep_seed in self.rep_seeds:
            done = self._attempt(f"timed replication {rep_seed}",
                                 lambda: self._timed(rep_seed))
            if done is not None:
                timed[rep_seed] = done
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        response_times: List[float] = []
        for rep_seed in timed:
            rts = self._attempt(
                f"check replication {rep_seed}",
                lambda: self._check(rep_seed, timed[rep_seed]))
            if rts is not None:
                response_times.extend(rts)
        if not timed:
            _fail("every timed replication failed")

        report: Dict[str, Any] = {
            "workload": self.workload.name, "seed": self.seed,
            "replications": len(self.rep_seeds),
            "rt_samples": len(response_times),
            "timed_raw_s": self.timed_clock.raw_s,
            "timed_scale": self.timed_clock.scale,
            "environment": environment(),
        }
        if self.trace:
            values, units = self._per_layer(timed, report)
        else:
            values = self._end_to_end(timed, response_times, setup,
                                      peak_rss_mb)
            units = {m["name"]: m["unit"]
                     for m in self.declared["end_to_end"]}
        if set(values) != set(units):
            raise AssertionError(
                f"metrics {sorted(set(values) ^ set(units))} are computed "
                "but not declared in BENCHMARK.json, or the reverse")
        commits = sum(m["commits"] for m in timed.values())
        correct = self.failed == 0 and commits >= MIN_COMMITS
        if commits < MIN_COMMITS:
            print(f"perfbench: only {commits} commits; p99 needs "
                  f"{MIN_COMMITS}", file=sys.stderr)
        print(json.dumps({"report": report}))
        print(json.dumps({
            "correct": correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}))

    def _setup_once(self) -> float:
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             self.workload.name, str(self.rep_seeds[0])],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S)
        return float(completed.stdout.strip().splitlines()[-1])

    def _end_to_end(self, timed: Dict[int, Dict[str, Any]],
                    response_times: List[float], setup: List[float],
                    peak_rss_mb: float) -> Dict[str, float]:
        runs = list(timed.values())
        commits = sum(m["commits"] for m in runs)
        aborts = sum(m["aborts"] for m in runs)
        sim_s = sum(m["sim_clocks"] for m in runs) / 1000.0
        if not response_times or not setup:
            _fail("no check replication or set-up probe succeeded")
        cuts = statistics.quantiles(response_times, n=100)
        return {
            "bats_per_s": commits / self.timed_clock.seconds,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "sim_tps": commits / sim_s,
            "sim_rt_p50_s": cuts[49] / 1000.0,
            "sim_rt_p99_s": cuts[98] / 1000.0,
            "sim_execs_per_commit": (commits + aborts) / commits,
        }

    def _per_layer(self, timed: Dict[int, Dict[str, Any]],
                   report: Dict[str, Any]) -> Any:
        from spans import SpanRecorder
        clock = HostClock()
        runs = []
        with SpanRecorder() as recorder:
            for rep_seed in timed:
                done = self._attempt(
                    f"traced replication {rep_seed}",
                    lambda: self._traced(rep_seed, recorder, clock,
                                         timed[rep_seed]))
                if done is not None:
                    runs.append(done)
        if not runs:
            _fail("every traced replication failed")
        values = recorder.per_layer(
            raw_s=clock.raw_s, scale=clock.scale,
            dn_quanta=sum(m["dn_quanta"] for m in runs),
            dn_util=statistics.fmean(m["dn_utilization"] for m in runs),
            cn_util=statistics.fmean(m["cn_utilization"] for m in runs),
            twopc_rounds=sum(m["twopc_rounds"] for m in runs))
        values["trace_overhead_ratio"] = (clock.seconds
                                          / self.timed_clock.seconds)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{self.workload.name}-{self.seed}.json"
        spans_file.write_text(json.dumps(recorder.dump()))
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        report["traced_raw_s"] = clock.raw_s
        report["traced_scale"] = clock.scale
        units = {m["name"]: m["unit"] for m in self.declared["per_layer"]}
        return values, units


def _same(got: Dict[str, Any], expected: Dict[str, Any], what: str) -> None:
    if got != expected:
        differ = sorted(k for k in set(got) | set(expected)
                        if got.get(k) != expected.get(k))
        raise AssertionError(f"{what}: simulated metrics differ from the "
                             f"timed run's in {differ}")


def environment() -> Dict[str, Any]:
    """Commit, source digest, Python, CPU count and model of this run."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model}


if __name__ == "__main__":
    main()
