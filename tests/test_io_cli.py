"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path
from types import SimpleNamespace

import pytest

import mahlerlab
from mahlerlab import cli, graphs, stability
from mahlerlab.errors import PreconditionError
from mahlerlab.polytope import cube, interval, to_json_dict
from mahlerlab.ratlin import PARSE_MAX_DIGITS, format_exact, parse_fraction
from mahlerlab.stability import EXPERIMENT_CSV_HEADER
from mahlerlab.volprod import VolumeProductReport

F = Fraction

# Subprocess tests run the package through this interpreter, so they exercise
# the same code the in-process tests import, installed or not.
CLI = [sys.executable, "-m", "mahlerlab"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_after_config(out: str):
    # every command prints its config line first; the document follows
    body = out.split("\n", 1)[1]
    return json.loads(body)


# ---------------------------------------------------------------------------
# hanner-enumerate


def test_enumerate_small(capsys):
    code, out, err = run_main(capsys, ["hanner-enumerate", "--n", "2"])
    assert code == 0 and err == ""
    assert out.startswith("config: mahlerlab hanner-enumerate --n 2\n")
    doc = json_after_config(out)
    assert doc["count"] == 2
    assert doc["volume_product"] == "8"
    assert len(doc["entries"]) == 2
    for entry in doc["entries"]:
        assert entry["volume_product"] == "8"
        assert set(entry) == {"graph", "polytope", "volume_product"}


def test_enumerate_dedup_counts(capsys):
    code, out, _ = run_main(capsys, ["hanner-enumerate", "--n", "3", "--dedup"])
    assert code == 0
    assert json_after_config(out)["count"] == 4
    code, out, _ = run_main(capsys, ["hanner-enumerate", "--n", "3"])
    assert code == 0
    assert json_after_config(out)["count"] == 8


def test_enumerate_out_file(tmp_path, capsys):
    target = tmp_path / "hanner2.json"
    code, out, _ = run_main(capsys, ["hanner-enumerate", "--n", "2", "--out", str(target)])
    assert code == 0
    assert f"wrote 2 entries to {target}" in out
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["count"] == 2


def test_enumerate_rejects_bad_dimension(capsys):
    code, _, err = run_main(capsys, ["hanner-enumerate", "--n", "9"])
    assert code == 2
    assert "--n must be in 1..7" in err
    code, _, _ = run_main(capsys, ["hanner-enumerate", "--n", "0"])
    assert code == 2


def test_enumerate_refuses_labeled_n7_up_front():
    # 78416 labeled bodies would run for hours; the refusal must come first
    proc = subprocess.run(
        [*CLI, "hanner-enumerate", "--n", "7"], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 2
    assert "--dedup" in proc.stderr


# ---------------------------------------------------------------------------
# volprod


def write_cube_file(tmp_path):
    path = tmp_path / "cube3.json"
    path.write_text(json.dumps(to_json_dict(cube(3))), encoding="utf-8")
    return path


def test_volprod_cube(tmp_path, capsys):
    path = write_cube_file(tmp_path)
    code, out, err = run_main(capsys, ["volprod", str(path)])
    assert code == 0 and err == ""
    doc = json_after_config(out)
    assert doc["product"]["exact"] == "32/3"
    assert doc["verdict"] is True
    assert doc["body_id"] == str(path)


def test_volprod_out_file(tmp_path, capsys):
    path = write_cube_file(tmp_path)
    report = tmp_path / "report.json"
    code, out, _ = run_main(capsys, ["volprod", str(path), "--out", str(report)])
    assert code == 0
    assert json.loads(report.read_text(encoding="utf-8")) == json_after_config(out)


def test_volprod_refuses_a_body_without_the_origin_inside(tmp_path, capsys):
    # a valid body, but its polar is unbounded: an input error, not an internal one
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}), encoding="utf-8")
    code, out, err = run_main(capsys, ["volprod", str(path)])
    assert code == 2
    assert out == f"config: mahlerlab volprod {path}\n"
    assert err == f"error: {path}: the volume product needs the origin in the interior\n"


def test_volprod_missing_file(tmp_path, capsys):
    code, _, err = run_main(capsys, ["volprod", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_volprod_broken_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n  "vertices": [', encoding="utf-8")
    code, _, err = run_main(capsys, ["volprod", str(path)])
    assert code == 2
    assert f"{path}:2:" in err  # file:line:col prefix


def test_volprod_inconsistent_payload(tmp_path, capsys):
    doc = to_json_dict(cube(2))
    doc["vertices"].append(["0", "0"])  # origin is not a vertex
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_main(capsys, ["volprod", str(path)])
    assert code == 2
    assert "not a vertex" in err


def _zero_length_points():
    return {"dim": 0, "vertices": [[]]}


def _zero_halfspace_normal():
    square = to_json_dict(cube(2))
    return {**square, "halfspaces": [{"normal": ["0", "0"], "offset": "1"}]}


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param(_zero_length_points, "at least one coordinate", id="dim0"),
        pytest.param(_zero_halfspace_normal, "bad halfspace payload: facet normal must be nonzero", id="zero_normal"),
    ],
)
def test_volprod_malformed_file_is_an_input_error(tmp_path, capsys, payload, message):
    # both once reached canon_facet and left as an internal error (exit 4)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload()), encoding="utf-8")
    code, out, err = run_main(capsys, ["volprod", str(path)])
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out.count("\n") == 1  # only the config line


def _float_vertex(doc):
    doc["vertices"] = [[0.1, 0], ["-1", "0"], ["0", "1"], ["0", "-1"]]


def _bool_vertex(doc):
    doc["vertices"][3] = [True, True]  # the corner (1, 1)


def _bool_offset(doc):
    doc["halfspaces"][0]["offset"] = True


def _float_dim(doc):
    doc["dim"] = 2.9


def _bool_dim(doc):
    doc.update(to_json_dict(interval()), dim=True)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(_float_vertex, "not an exact rational", id="_float_vertex"),
        pytest.param(_bool_vertex, "not an exact rational", id="_bool_vertex"),
        pytest.param(_bool_offset, "not an exact rational", id="_bool_offset"),
        pytest.param(_float_dim, "not an integer", id="_float_dim"),
        pytest.param(_bool_dim, "not an integer", id="_bool_dim"),
    ],
)
def test_volprod_refuses_json_floats_and_bools(tmp_path, capsys, corrupt, message):
    # a JSON 0.1 is a binary double and true is not a number: reading either
    # as a rational would give the exact answer for another body, and a dim
    # of 2.9 or true would be truncated to the length of the rows
    doc = to_json_dict(cube(2))
    corrupt(doc)
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_main(capsys, ["volprod", str(path)])
    assert code == 2
    assert message in err
    assert out.count("\n") == 1  # only the config line


def test_volprod_falsification_exit(tmp_path, capsys, monkeypatch):
    # a verdict-false report for an unconditional body cannot be produced by
    # honest arithmetic, so fake the report to exercise the exit path
    path = write_cube_file(tmp_path)

    def fake_report(body, body_id=""):
        return VolumeProductReport(
            body_id=body_id,
            n=body.dim,
            vol_body=F(1),
            vol_polar=F(1),
            product=F(1),
            bound=F(32, 3),
            excess=F(1) - F(32, 3),
            verdict=False,
        )

    monkeypatch.setattr(cli, "volume_product", fake_report)
    code, _, err = run_main(capsys, ["volprod", str(path)])
    assert code == 3
    assert "falsification" in err


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize("suite", cli.SUITES)
def test_verify_suites_pass(capsys, suite):
    code, out, err = run_main(capsys, ["verify", suite])
    assert code == 0, err
    assert out.splitlines()[0] == f"config: mahlerlab verify {suite}"
    assert out.rstrip().endswith(f"suite {suite}: PASS")


def test_verify_rejects_unknown_suite(capsys):
    code, _, _ = run_main(capsys, ["verify", "bogus"])
    assert code == 2


def _failing_on(body_id, real):
    """``real``, except that its report fails every check on the body named body_id."""

    def check(k, *args, **kwargs):
        rep = real(k, *args, **kwargs)
        if rep.body_id != body_id:
            return rep
        return SimpleNamespace(body_id=body_id, is_equality=False, hypothesis_holds=True, conclusion_holds=False)

    return check


@pytest.mark.parametrize(
    "suite, patched, body_id, message",
    [
        ("meyer", "meyer_inequality_check", "cube-n3", "equality for the cube at n = 3"),
        ("sections", "near_minimal_sections_check", "hanner-n3", "fails on hanner-n3"),
        ("sections", "near_minimal_sections_check", "truncated-cube-3", "fails on truncated-cube-3"),
    ],
)
def test_verify_failed_fact_exits_3(capsys, monkeypatch, suite, patched, body_id, message):
    monkeypatch.setattr(cli, patched, _failing_on(body_id, getattr(cli, patched)))
    code, out, err = run_main(capsys, ["verify", suite])
    assert code == 3
    assert err.startswith("falsification: ") and message in err
    assert "PASS" not in out


@pytest.mark.parametrize(
    "patched, roundtrip",
    [
        ("graph_from_polytope", "graph -> polytope -> graph at n = 1"),
        ("from_json_dict", "polytope -> json -> polytope at n = 1"),
        ("graph_from_json_dict", "graph -> json -> graph at n = 1"),
        ("tree_from_json_dict", "tree -> json -> tree at n = 1"),
    ],
)
def test_verify_failed_roundtrip_exits_4_naming_it(capsys, monkeypatch, patched, roundtrip):
    monkeypatch.setattr(cli, patched, lambda data: None)
    code, out, err = run_main(capsys, ["verify", "roundtrip"])
    assert code == 4
    assert err == f"internal error: roundtrip {roundtrip} does not invert\n"
    assert "PASS" not in out


# ---------------------------------------------------------------------------
# stability


def test_stability_canonicalizes_delta_and_repeats(capsys):
    argv = ["stability", "--n", "3", "--trials", "3", "--delta", "0.1", "--seed", "2"]
    code, out1, _ = run_main(capsys, argv)
    assert code == 0
    assert out1.splitlines()[0] == (
        "config: mahlerlab stability --n 3 --trials 3 --delta 1/10 --seed 2 --probe unconditional"
    )
    code, out2, _ = run_main(capsys, argv)
    assert code == 0
    assert out1 == out2  # byte-identical rerun
    summary_line = next(line for line in out1.splitlines() if line.startswith("summary: "))
    summary = json.loads(summary_line[len("summary: ") :])
    assert summary["trials"] == 3
    assert F(summary["min_excess"]) > 0


def test_stability_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    argv = ["stability", "--trials", "2", "--delta", "1/20"]
    code, out, _ = run_main(capsys, [*argv, "--out", str(target)])
    assert code == 0
    assert f"wrote 2 rows to {target}" in out
    code, printed, _ = run_main(capsys, argv)
    assert code == 0
    rows = printed.splitlines(keepends=True)[1:-1]  # between the config and summary lines
    assert target.read_text(encoding="utf-8") == "".join(rows)
    assert rows[0].startswith("trial,n,delta,")
    assert len(rows) == 3
    assert out.splitlines()[-1] == printed.splitlines()[-1]


def test_stability_symmetric_probe(capsys):
    code, out, _ = run_main(
        capsys,
        ["stability", "--probe", "symmetric", "--n", "2", "--trials", "2", "--delta", "1/20"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "trial,distance_sq,distance_float,excess,excess_float"
    summary = json.loads(lines[-1][len("summary: ") :])
    assert F(summary["min_excess"]) >= 0


def test_stability_symmetric_probe_n5_finishes():
    # the polar of this trial's body has 436 vertices whose denominators have a
    # 16 452-bit lcm, and its excess has 4 971 digits over 4 971
    proc = subprocess.run(
        [*CLI, "stability", "--probe", "symmetric", "--n", "5", "--trials", "1", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and lines[2].startswith("0,")
    excess = json.loads(lines[-1][len("summary: ") :])["min_excess"]
    assert excess == lines[2].split(",")[3] and len(excess) == 4_971 * 2 + 1 and excess[0] != "-"
    assert parse_fraction(excess) > 0 and format_exact(parse_fraction(excess)) == excess  # reads back


def test_stability_refuses_a_delta_past_the_digit_bound(capsys):
    text = "1/" + "3" * (PARSE_MAX_DIGITS + 1)
    code, out, err = run_main(capsys, ["stability", "--delta", text])
    assert code == 2 and out == ""
    assert err.startswith("error: bad --delta value") and f"more than {PARSE_MAX_DIGITS} digits" in err
    # the echo is a short prefix and the length, not the whole text
    assert f"({len(text)} characters)" in err and len(err) < 200 and err.count("\n") == 1
    code, out, err = run_main(capsys, ["stability", "--delta", "x" * 30_000])
    assert code == 2 and out == "" and err.startswith("error: bad --delta value") and len(err) < 200


def test_stability_symmetric_probe_refuses_n6(capsys):
    code, _, err = run_main(capsys, ["stability", "--probe", "symmetric", "--n", "6", "--trials", "1"])
    assert code == 2
    assert err == "error: the symmetric probe is limited to n <= 5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hanner-enumerate", "--n", "8"],
        ["hanner-enumerate", "--n", "7"],
        ["stability", "--n", "8"],
        ["stability", "--probe", "symmetric", "--n", "40"],
    ],
)
def test_oversized_requests_are_refused_before_any_body_is_built(capsys, monkeypatch, argv):
    # each builder fails the run (exit 4) if reached: the refusal must come first
    def unreachable(*args):
        raise AssertionError("the guard let the request through")

    monkeypatch.setattr(graphs, "enumerate_p4_free_labeled", unreachable)
    monkeypatch.setattr(stability, "trial_base_graphs", unreachable)
    monkeypatch.setattr(cli, "cube", unreachable)
    code, _, err = run_main(capsys, argv)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err


def test_volprod_names_a_huge_non_vertex_point_in_a_clipped_message(tmp_path, capsys):
    doc = to_json_dict(cube(2))
    doc["vertices"].append([format_exact(F(1, 3**10000)), "0"])  # interior; 4 772 denominator digits
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_main(capsys, ["volprod", str(path)])
    assert code == 2
    assert err.startswith("error: listed point ('1/") and err.endswith("... (4774 characters), '0') is not a vertex\n")
    assert len(err) < 200


def test_stability_bad_delta(capsys):
    code, _, err = run_main(capsys, ["stability", "--delta", "lots"])
    assert code == 2
    assert "--delta" in err


def test_stability_flag_exit_codes(capsys, monkeypatch):
    # flags out of range are input errors, refused before the config line
    for argv in (
        ["--n", "0"],
        ["--trials", "-1"],
        ["--delta", "1"],
        ["--probe", "symmetric", "--delta", "3/4"],
    ):
        code, out, err = run_main(capsys, ["stability", "--trials", "1", *argv])
        assert code == 2, argv
        assert err.startswith("error: ") and out == ""
    # a precondition that fails in the middle of a run is still an internal error
    def fail_midway(cfg):
        raise PreconditionError("trial body is not unconditional")

    monkeypatch.setattr(cli, "stability_experiment", fail_midway)
    code, _, err = run_main(capsys, ["stability", "--trials", "1"])
    assert code == 4
    assert err.startswith("internal error: ")


# ---------------------------------------------------------------------------
# parser plumbing and installed entry points


def test_usage_errors(capsys):
    assert run_main(capsys, [])[0] == 2
    assert run_main(capsys, ["no-such-command"])[0] == 2


def test_package_exports_resolve():
    # an export that outlives its definition breaks `import *` for every user
    namespace: dict = {}
    exec("from mahlerlab import *", namespace)
    assert len(set(mahlerlab.__all__)) == len(mahlerlab.__all__)
    for name in mahlerlab.__all__:
        assert getattr(mahlerlab, name) is namespace[name]


def test_installed_console_script():
    # The console script is `[project.scripts]` plus the wrapper an installer
    # writes around it; check both from the checkout, and the real executable
    # where one is installed.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["mahlerlab"] == "mahlerlab.cli:main"
    entry = EntryPoint(name="mahlerlab", value=scripts["mahlerlab"], group="console_scripts")
    assert callable(entry.load())

    wrapper = (
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        "sys.argv[0] = 'mahlerlab'\n"
        f"sys.exit({entry.attr}())\n"
    )
    args = ["hanner-enumerate", "--n", "2"]
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("config: mahlerlab hanner-enumerate --n 2\n")

    installed = shutil.which("mahlerlab")
    if installed is not None:
        real = subprocess.run([installed, *args], capture_output=True, text=True, timeout=60)
        assert real.returncode == proc.returncode
        assert real.stdout == proc.stdout


def test_module_invocation_exit_codes(tmp_path):
    proc = subprocess.run(
        [*CLI, "volprod", str(tmp_path / "missing.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_stability_subprocess_reruns_identical():
    # two fresh interpreters with different hash seeds: output that depends on
    # set or dict order would differ here, though not on a rerun in one process
    argv = [*CLI, "stability", "--trials", "3", "--delta", "1/10", "--seed", "5"]
    first, second = (
        subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        for hash_seed in ("0", "1")
    )
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert len(lines) == 6  # config, header, three rows, summary
    assert lines[0] == (
        "config: mahlerlab stability --n 3 --trials 3 --delta 1/10 --seed 5 --probe unconditional"
    )
    assert lines[1] == EXPERIMENT_CSV_HEADER
    rows = lines[2:-1]
    assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]
    assert all(len(row.split(",")) == len(EXPERIMENT_CSV_HEADER.split(",")) for row in rows)
    assert lines[-1].startswith("summary: ")
    assert json.loads(lines[-1][len("summary: ") :])["trials"] == 3
