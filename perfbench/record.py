"""Record expected.json: run every universe item once, pin its result, stratify its cost.

Usage: python3 perfbench/record.py [WORKLOAD ...]   (default: every workload)

Each item's exact result string is stored as a hash, and each item is put
into one of STRATA cost strata of its group by its time in this recording,
cheapest first.  Re-record only on purpose: a change whose results stay
byte-identical must pass against the existing file.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_pass import EXPECTED, digest, load_expected, result_hash  # noqa: E402
from workloads import STRATA, WORKLOADS  # noqa: E402


def record(name: str) -> dict:
    w = WORKLOADS[name]
    timed: dict[str, list[tuple[float, str, str]]] = {}
    for group, key, inp in w.universe():
        start = time.perf_counter()
        result = w.run(inp)
        timed.setdefault(group, []).append((time.perf_counter() - start, key, result_hash(result)))
    items = {}
    for rows in timed.values():
        rows.sort()
        for rank, (_, key, h) in enumerate(rows):
            items[key] = [h, rank * STRATA // len(rows)]
    return {"digest": digest({k: h for k, (h, _) in items.items()}), "items": dict(sorted(items.items()))}


def main() -> None:
    names = sys.argv[1:] or list(WORKLOADS)
    table = load_expected() if EXPECTED.exists() else {}
    for name in names:
        start = time.perf_counter()
        table[name] = record(name)
        print(f"{name}: {len(table[name]['items'])} items in {time.perf_counter() - start:.1f} s, digest {table[name]['digest']}")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
