"""Golden outputs: the exact stdout bytes of fixed command-line runs.

Each ``.txt`` file under ``tests/golden/`` is the stdout of one
``cli.main`` call, run from that directory so that an input file committed
there (``rational_body.json``) prints as a relative path.  Any change to the arithmetic, the reconstruction or the printed format that
moves a single byte fails here.  The labeled catalogs too large to commit as
text are pinned by the SHA-256 of their stdout, one ``.sha256`` file each.
After an intended output change, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import os
import sys
from pathlib import Path

import pytest

from mahlerlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "stability_delta_1-10": ["stability", "--n", "3", "--trials", "100", "--seed", "0", "--delta", "1/10"],
    "stability_delta_1-20": ["stability", "--n", "3", "--trials", "100", "--seed", "0", "--delta", "1/20"],
    "stability_delta_1-40": ["stability", "--n", "3", "--trials", "100", "--seed", "0", "--delta", "1/40"],
    "stability_probe_symmetric": ["stability", "--probe", "symmetric", "--n", "3", "--trials", "20", "--seed", "0"],
    "stability_n4_delta_1-10": ["stability", "--n", "4", "--trials", "20", "--seed", "0", "--delta", "1/10"],
    "stability_probe_symmetric_n4": ["stability", "--probe", "symmetric", "--n", "4", "--trials", "3", "--seed", "0"],
    **{f"verify_{suite}": ["verify", suite] for suite in cli.SUITES},
    "hanner_enumerate_n3_dedup": ["hanner-enumerate", "--n", "3", "--dedup"],
    "hanner_enumerate_n4": ["hanner-enumerate", "--n", "4"],
    "volprod_rational_body": ["volprod", "rational_body.json"],
}

DIGESTS = {
    "hanner_enumerate_n5": ["hanner-enumerate", "--n", "5"],
    "hanner_enumerate_n7_dedup": ["hanner-enumerate", "--n", "7", "--dedup"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = cli.main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def stdout_digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_catalog_digest(name, capsys):
    code = cli.main(DIGESTS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert stdout_digest(out) == (GOLDEN / f"{name}.sha256").read_text(encoding="utf-8").strip()


if __name__ == "__main__":
    import contextlib
    import io

    os.chdir(GOLDEN)
    runs = [(name, argv, ".txt") for name, argv in sorted(CASES.items())]
    runs += [(name, argv, ".sha256") for name, argv in sorted(DIGESTS.items())]
    for name, argv, suffix in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        text = buf.getvalue() if suffix == ".txt" else stdout_digest(buf.getvalue()) + "\n"
        (GOLDEN / f"{name}{suffix}").write_text(text, encoding="utf-8")
        print(f"wrote {name}{suffix}")
