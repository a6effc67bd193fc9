"""Golden outputs of the demos: the exact stdout bytes of each ``demos/0*.py``.

Each demo runs in a fresh interpreter with the package's ``src`` directory on
``PYTHONPATH`` and its stdout is compared byte for byte with
``tests/golden/demo_<name>.txt``.  The demos import public names, so a
pruning that removes one of them fails here too.  After an intended output
change, rewrite the files with ``PYTHONPATH=src python tests/test_demos.py``.
The ``python`` blocks of ``README.md`` run here too, in order and in one
namespace, as a reader pasting them would run them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README = ROOT / "README.md"


def run_demo(demo: Path) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, encoding="utf-8", env=env, check=False
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.name for p in GOLDEN.glob("demo_*.txt")) == [f"demo_{d.stem}.txt" for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout(demo):
    assert run_demo(demo) == (GOLDEN / f"demo_{demo.stem}.txt").read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    # the stability block perturbs the Hanner block's p, so every block shares one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"demo_{demo.stem}.txt").write_text(run_demo(demo), encoding="utf-8")
        print(f"wrote demo_{demo.stem}.txt")
