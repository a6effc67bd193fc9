"""Benchmark of mahlerlab: one workload as a closed loop of fresh-interpreter passes.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports the package from ``src/``.  A
run starts passes one after another, each in a new interpreter, until the
next pass would end after S seconds.  Pass k of seed N always holds the same
items (see workloads.py).  Each item is checked against a known fact, and
the results of each pass against expected.json: a pass whose results differ
counts every item as failed.

--trace 0 pools the items of all passes and reports the end-to-end metrics.
--trace 1 alternates untraced and traced repeats of pass 0 and reports the
per-layer metrics of the traced repeats (medians), plus the tracing cost.
Every reported time is divided by its pass's host factor (reference.py).
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pass import digest, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"
PASS_TIMEOUT_S = 150
HARD_STOP_S = 120  # never start a pass this long after the run began


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, pass_no: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "bench_pass.py"), workload, str(seed), str(pass_no), str(int(trace))]
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        cmd.append(str(SPANS_DIR / f"spans_{workload}_seed{seed}.json"))
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set and dict order, so the same work, every pass
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassError(f"pass {pass_no} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def score(report: dict, expected: dict) -> int:
    """Failed items of one pass: all of them unless every result matches expected.json."""
    want = {key: h for key, (h, _) in expected["items"].items()}
    intact = digest(want) == expected["digest"]
    if intact and all(want.get(key) == h for key, _, h, _ in report["items"]):
        return 0
    return len(report["items"])


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(args, expected: dict) -> tuple[dict, int, int, list[str]]:
    start = time.perf_counter()
    reports, walls = [], []
    while True:
        t = time.perf_counter()
        reports.append(run_pass(args.workload, args.seed, len(reports), False))
        walls.append(time.perf_counter() - t)
        tail_pct = reports[0]["tail_pct"]
        elapsed = time.perf_counter() - start
        n_items = sum(len(r["items"]) for r in reports)
        tail_ok = n_items - math.ceil(tail_pct / 100 * n_items) >= 10
        if elapsed > HARD_STOP_S or (tail_ok and elapsed + statistics.median(walls) > args.seconds):
            break

    fails = [score(r, expected) for r in reports]
    failed = sum(fails)
    lat = [item[1] / r["host_factor"] for r in reports for item in r["items"]]
    attempted = len(lat)
    factors = [r["host_factor"] for r in reports]
    raw_s = sum(item[1] for r in reports for item in r["items"])
    lat.sort()
    beyond = attempted - math.ceil(tail_pct / 100 * attempted)
    metrics = {
        "items_per_s": metric((attempted - failed) / sum(lat), "1/s"),
        "item_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "item_tail_ms": metric(1000 * nearest_rank(lat, tail_pct), "ms"),
        "setup_s": metric(statistics.median(r["setup_s"] / r["host_factor"] for r in reports), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    }
    notes = [
        f"passes {len(reports)}, items {attempted}, results match expected.json on {fails.count(0)} of {len(reports)} passes",
        f"item_tail_ms is p{tail_pct} of {attempted} items ({beyond} beyond it)",
        f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} items failed)",
        f"host factor median {statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}; "
        f"unscaled items_per_s {(attempted - failed) / raw_s:.4g}",
    ]
    return metrics, attempted, failed, notes


def traced_run(args, expected: dict) -> tuple[dict, int, int, list[str]]:
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        plain.append(run_pass(args.workload, args.seed, 0, False))
        t = time.perf_counter()
        traced.append(run_pass(args.workload, args.seed, 0, True))
        wall = time.perf_counter() - t
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S or elapsed + 2 * wall > args.seconds:
            break

    failed = sum(score(r, expected) for r in plain + traced)
    attempted = sum(len(r["items"]) for r in plain + traced)
    item_s = [sum(item[1] for item in r["items"]) / r["host_factor"] for r in traced]
    plain_s = [sum(item[1] for item in r["items"]) / r["host_factor"] for r in plain]
    n_items = len(traced[0]["items"])
    metrics = {}
    for name in traced[0]["trace"]:
        if name.endswith("_ms"):
            metrics[name] = metric(statistics.median(r["trace"][name] / r["host_factor"] for r in traced), "ms")
        else:
            metrics[name] = metric(statistics.median(r["trace"][name] for r in traced), "count")
    for qual in traced[0]["cache"]:
        ratios = [h / (h + m) if h + m else 0.0 for h, m in (r["cache"][qual] for r in traced)]
        metrics[f"{qual}.cache_hit_ratio"] = metric(statistics.median(ratios), "ratio")
    metrics["trace.item_ms"] = metric(1000 * statistics.median(item_s), "ms")
    metrics["trace.traced_items_per_s"] = metric(n_items / statistics.median(item_s), "1/s")
    metrics["trace.untraced_items_per_s"] = metric(n_items / statistics.median(plain_s), "1/s")
    metrics["trace.overhead_ratio"] = metric(statistics.median(t / p for t, p in zip(item_s, plain_s)), "ratio")
    notes = [f"{len(traced)} traced and {len(plain)} untraced repeats of pass 0 ({n_items} items)"]
    return metrics, attempted, failed, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mahlerlab" / "__init__.py").is_file():
        print(f"no package at {ROOT / 'src' / 'mahlerlab'}: run from the root of a checkout", file=sys.stderr)
        return 2
    expected_all = load_expected()
    if args.workload not in expected_all:
        print(f"unknown workload {args.workload!r}; known: {', '.join(expected_all)}", file=sys.stderr)
        return 2
    expected = expected_all[args.workload]

    try:
        if args.trace:
            metrics, attempted, failed, notes = traced_run(args, expected)
        else:
            metrics, attempted, failed, notes = untraced_run(args, expected)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
