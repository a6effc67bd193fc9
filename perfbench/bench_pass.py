"""One pass over a workload's item list, in the interpreter it was started in.

Usage: python3 perfbench/bench_pass.py WORKLOAD SEED PASS TRACE [SPANS_PATH]  (SPANS_PATH with TRACE = 1)

`run.py` starts every pass as a fresh process, so no module-level cache
carries over from one pass to the next.  Prints one JSON object: set-up time,
host factor (see reference.py), peak resident memory, and per item its key,
seconds, result hash and error; all times unscaled.
With TRACE = 1 it adds the per-layer totals and cache counts, set-up
included, and writes the spans to SPANS_PATH.  This module also reads
`expected.json`, the recorded result hash and cost stratum of every
universe item.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, kernel_seconds

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"


def result_hash(result: str) -> str:
    return hashlib.sha256(result.encode()).hexdigest()[:16]


def digest(hashes: dict[str, str]) -> str:
    """Digest of a set of item results, independent of item order."""
    lines = "\n".join(f"{key} {h}" for key, h in sorted(hashes.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def load_expected(path: Path = EXPECTED) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS, pass_items  # imports mahlerlab

    name, seed, pass_no, trace = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
    tracer = None
    if trace:  # installed before the item list is built, so set-up calls are traced too (item -1)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        cache_before = tracer.cache_counts()
    strata = {key: s for key, (_, s) in load_expected()[name]["items"].items()}
    items = pass_items(name, seed, pass_no, strata)
    run = WORKLOADS[name].run
    setup_s = time.perf_counter() - t0

    out, kernel_s = [], []
    for idx, (key, inp) in enumerate(items):
        kernel_s.append(kernel_seconds())
        if tracer:
            tracer.item = idx
        start = time.perf_counter()
        try:
            result = run(inp)
        except Exception as exc:  # an item that raises is a failed item; the pass goes on
            out.append([key, time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"])
        else:
            out.append([key, time.perf_counter() - start, result_hash(result), None])

    report = {
        "tail_pct": WORKLOADS[name].tail_pct,
        "setup_s": setup_s,
        "host_factor": statistics.median(kernel_s) / NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": out,
    }
    if tracer:
        tracer.uninstall()
        after = tracer.cache_counts()
        report["trace"] = tracer.totals()
        report["cache"] = {q: [after[q][0] - cache_before[q][0], after[q][1] - cache_before[q][1]] for q in after}
        tracer.write_spans(sys.argv[5])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
