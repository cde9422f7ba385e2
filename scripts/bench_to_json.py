#!/usr/bin/env python
"""Measure the WTPG/estimator micro-operations and write BENCH_wtpg.json.

Timings use ``time.perf_counter`` over repeated calls (best of several
rounds, so OS noise inflates nothing).  The "before" column is the legacy
copy-based path, which is kept as the estimator's test oracle
(``tests/oracles/estimator.py``) and as ``WTPG.copy()`` + full-Kahn
probes; the "after" column is the overlay/incremental path the
schedulers now use.  The headline acceptance number is the n=256
estimator speedup (must be >= 5x).

Run:  PYTHONPATH=src python scripts/bench_to_json.py
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT))  # the estimator oracle lives in tests/

from bench_wtpg import build_graph  # noqa: E402
from bench_estimator import candidate  # noqa: E402
from repro.core.estimator import estimate_contention  # noqa: E402
from tests.oracles import estimate_reference  # noqa: E402

SIZES = (16, 64, 256)
ROUNDS = 5


def best_time(fn, calls):
    """Seconds per call: best mean over ROUNDS rounds of ``calls`` calls."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = (time.perf_counter() - start) / calls
        if elapsed < best:
            best = elapsed
    return best


def calls_for(fn, target=0.05):
    """Enough calls per round to fill ~target seconds (min 5)."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    return max(5, int(target / max(once, 1e-7)))


def measure(fn):
    return best_time(fn, calls_for(fn))


def bench_graph_ops(n):
    g = build_graph(n)
    edge = g.unresolved_pairs()[0]
    out = {
        "copy_s": measure(g.copy),
        "cycle_probe_s": measure(
            lambda: g.creates_cycle_from(edge.a, [edge.b])),
    }
    # Critical path, cold vs incremental: the cold number rebuilds from
    # scratch each call (a fresh copy); the warm one re-uses the cached
    # order and recomputes only the dirtied suffix after a weight change.
    out["critical_path_cold_s"] = measure(
        lambda: g.copy().critical_path_length())

    def warm():
        g.decrement_source(n // 2, 0.0001)
        return g.critical_path_length()

    g.critical_path_length()  # prime the cache
    out["critical_path_warm_s"] = measure(warm)
    return out


def bench_estimator(n):
    g = build_graph(n)
    tid, implied = candidate(g)
    overlay = measure(lambda: estimate_contention(g, tid, implied))
    reference = measure(lambda: estimate_reference(g, tid, implied))
    return {
        "overlay_s": overlay,
        "reference_s": reference,
        "speedup": reference / overlay,
    }


def main():
    report = {
        "description": "WTPG/estimator microbenchmarks: legacy copy-based "
                       "paths (before) vs overlay/incremental paths (after)",
        "units": "seconds per call (best mean of %d rounds)" % ROUNDS,
        "sizes": list(SIZES),
        "graph_ops": {},
        "estimator": {},
    }
    for n in SIZES:
        print(f"n={n}: graph ops...", file=sys.stderr)
        report["graph_ops"][str(n)] = bench_graph_ops(n)
        print(f"n={n}: estimator...", file=sys.stderr)
        report["estimator"][str(n)] = bench_estimator(n)
    headline = report["estimator"]["256"]["speedup"]
    report["estimator_speedup_n256"] = round(headline, 2)
    out = ROOT / "BENCH_wtpg.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}; estimator speedup at n=256: {headline:.1f}x",
          file=sys.stderr)
    if headline < 5.0:
        print("WARNING: below the 5x acceptance bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
