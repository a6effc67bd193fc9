"""Tests of the benchmark itself: tracing, determinism and the digest check.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mahlerlab  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from bench_pass import load_expected  # noqa: E402


def test_every_binding_of_a_traced_function_is_rebound():
    modules = tracing.package_modules()
    originals = {}
    for qual in tracing.TRACED:
        mod, name = qual.split(".")
        orig = getattr(sys.modules[f"mahlerlab.{mod}"], name)
        originals[qual] = (orig, [(m, a) for m in modules for a, v in vars(m).items() if v is orig])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mahlerlab.volprod.volume is mahlerlab.polytope.volume is mahlerlab.volume
        assert mahlerlab.polytope.volume.__wrapped__ is originals["polytope.volume"][0]
        assert mahlerlab.stability.polytope_from_graph is mahlerlab.graphs.polytope_from_graph
        for qual, (orig, bindings) in originals.items():
            assert len(bindings) >= 1, qual
            wrappers = {id(getattr(m, a)) for m, a in bindings}
            assert len(wrappers) == 1, qual
            m, a = bindings[0]
            assert getattr(m, a) is not orig and getattr(m, a).__wrapped__ is orig, qual
    finally:
        tracer.uninstall()
    for qual, (orig, bindings) in originals.items():
        assert all(getattr(m, a) is orig for m, a in bindings), qual


def test_traced_passes_on_one_seed_count_the_same_calls():
    first, second = (bench.run_pass("perturb", 7, 0, True) for _ in range(2))
    calls = {k: v for k, v in first["trace"].items() if k.endswith(".calls") or k.endswith("rays_out")}
    assert calls == {k: second["trace"][k] for k in calls}
    assert calls["polytope.hausdorff_distance_sq.calls"] == len(first["items"])
    assert first["cache"] == second["cache"]


@pytest.mark.parametrize("corrupt", ["digest", "item"])
def test_a_corrupted_expected_digest_fails_every_item(corrupt, monkeypatch, capsys):
    table = load_expected()
    entry = table["hanner"]
    if corrupt == "digest":
        entry["digest"] = "0" * 64
    else:
        key = next(iter(entry["items"]))
        entry["items"][key][0] = "0" * 16
    monkeypatch.setattr(bench, "load_expected", lambda: table)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "hanner", "--seed", "0", "--seconds", "1"])
    assert bench.main() == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("changed", ["0" * 16, None])  # another result, or an item that raised
def test_one_changed_item_result_fails_every_item(changed):
    expected = load_expected()["hanner"]
    report = {"items": [[key, 0.01, h, None] for key, (h, _) in list(expected["items"].items())[:3]]}
    assert bench.score(report, expected) == 0
    report["items"][1][2] = changed
    assert bench.score(report, expected) == len(report["items"])


def test_cache_ratio_is_left_out_without_a_cache():
    tracer = tracing.Tracer()
    tracer._originals = {q: (lambda: None) for q in tracing.CACHED}
    assert tracer.cache_counts() == {}
