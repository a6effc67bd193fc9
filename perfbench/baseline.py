"""Record baseline.json: the benchmark's figures at one commit, with their noise.

Usage: python3 perfbench/baseline.py

Each of ROUNDS rounds runs every workload three times through run.py: on
seed 0, on seed 1 and on a seed of its own (100 + round), each run lasting
`run_seconds` of BENCHMARK.json.  The workload order rotates from round to
round, so slow spells of the host fall on every workload.  The end-to-end
figures are the median and quartiles over the rounds' own seeds; the noise
is the spread over the repeated seeds 0 and 1.  A traced run of each
workload gives the per-layer numbers and the tracing cost and checks which
layer the workload stresses.  Every run is kept in the file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pass import load_expected

HERE = Path(__file__).resolve().parent
WORKLOADS = ("hanner", "certificates", "perturb", "probe")
ROUNDS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": len(values)}


def callers(spans: dict, target: str) -> set[str]:
    """Every function with a span enclosing a span of `target`."""
    names, rows = spans["functions"], spans["spans"]
    parent_of = {r[0]: r for r in rows}
    out = set()
    for r in rows:
        if names[r[3]] == target:
            p = r[1]
            while p != -1:
                out.add(names[parent_of[p][3]])
                p = parent_of[p][1]
    return out


def stress(workload: str, metrics: dict, seed: int) -> dict:
    """The layer each workload is meant to stress, checked on its traced run."""
    item_ms = metrics["trace.item_ms"]["value"]
    fns = sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".self_ms")})

    def share(fn: str, kind: str) -> float:
        return metrics[f"{fn}.{kind}_ms"]["value"] / item_ms

    if workload == "hanner":
        with open(HERE / "out" / f"spans_hanner_seed{seed}.json", encoding="utf-8") as fh:
            outer = callers(json.load(fh), "polytope.coordinate_section")
        top = max((f for f in fns if f not in outer), key=lambda f: share(f, "incl"))
        return {
            "claim": "coordinate_section has the largest inclusive share among functions that do not call it",
            "excluded_callers": sorted(outer),
            "top": top,
            "share": share(top, "incl"),
            "holds": top == "polytope.coordinate_section",
        }
    if workload == "certificates":
        top = max(fns, key=lambda f: share(f, "self"))
        return {"claim": "volume has the largest self share", "top": top, "share": share(top, "self"), "holds": top == "polytope.volume"}
    s = share("polytope.hausdorff_distance_sq", "incl")
    return {"claim": "hausdorff_distance_sq covers more than half the item time", "share": s, "holds": s > 0.5}


def main() -> None:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    for r in range(ROUNDS):
        order = WORKLOADS[r % len(WORKLOADS) :] + WORKLOADS[: r % len(WORKLOADS)]
        for seed in (0, 1, 100 + r):
            for w in order:
                res = bench(w, seed, seconds, 0)
                runs.append({"workload": w, "seed": seed, "round": r, **res})
                print(f"round {r} {w} seed {seed}: {json.dumps(res['metrics'])}", flush=True)

    expected = load_expected()
    out = {
        "host": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "seconds": seconds,
        "rounds": ROUNDS,
        "workloads": {},
        "runs": runs,
    }
    for w in WORKLOADS:
        mine = [x for x in runs if x["workload"] == w]
        own = [x for x in mine if x["seed"] >= 100]
        traced = bench(w, 0, seconds, 1)
        metrics = traced["metrics"]
        attempted = sum(x["attempted"] for x in mine)
        out["workloads"][w] = {
            "digest": expected[w]["digest"],
            "items_per_run": statistics.median(x["attempted"] for x in mine),
            "fail_ratio": sum(x["failed"] for x in mine) / attempted,
            "end_to_end": {m: spread([x["metrics"][m]["value"] for x in own]) for m in own[0]["metrics"]},
            "noise": {
                f"seed {seed}": {
                    m: spread([x["metrics"][m]["value"] for x in mine if x["seed"] == seed]) for m in own[0]["metrics"]
                }
                for seed in (0, 1)
            },
            "tracing_overhead_ratio": metrics["trace.overhead_ratio"]["value"],
            "stress": stress(w, metrics, 0),
            "per_layer": {m: v["value"] for m, v in metrics.items()},
        }
        print(f"{w}: {json.dumps(out['workloads'][w]['stress'])}", flush=True)
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
