"""Run every walkthrough in demos/ as the README tells a reader to, and
every Python block of the README, on the runtime alone.

Each walkthrough runs a figure preset of the command line from Python,
through `cli.sweep`.  Each runs in a fresh interpreter where mpmath and
scipy, the oracles of the tests, cannot be imported, and where a numpy
RuntimeWarning is an error."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import laserhydrogen.ionization as ionization
import laserhydrogen.transitions as transitions
from oracles import WITHOUT_ORACLES

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.M | re.S)


def _run(code, cwd, *args):
    """code run by a fresh interpreter that imports the package from src/
    and cannot import an oracle."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", WITHOUT_ORACLES + code,
         *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = _run("import runpy, sys\nrunpy.run_path(sys.argv[1], run_name='__main__')",
                  ROOT, str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    # a walkthrough goes on past a failed point, so its exit code cannot
    # tell; a run of the presets fails no point
    assert "FAILED" not in result.stdout, result.stdout


def test_readme_python_blocks_found():
    assert len(README_BLOCKS) >= 3


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs(block, tmp_path):
    result = _run(block, tmp_path)
    assert result.returncode == 0, result.stderr


# The solve each walkthrough's scan runs once per point: an ionization
# point solves for its tracked state, a W table diagonalizes its class.
_SOLVES = {"demo_photoionization.py": (ionization, "track_state")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_reports_a_failed_point(demo, monkeypatch, capsys):
    """A point that fails is printed as FAILED and the walkthrough goes on."""
    solved = []
    module, name = _SOLVES.get(demo.name, (transitions, "diagonalize"))
    real = getattr(module, name)

    def second_point_fails(*args):
        solved.append(args)
        if len(solved) == 2:
            raise RuntimeError("injected failure")
        return real(*args)

    monkeypatch.setattr(module, name, second_point_fails)
    runpy.run_path(str(demo))
    lines = capsys.readouterr().out.splitlines()
    assert len(solved) >= 3
    assert sum("FAILED: injected failure" in line for line in lines) == 1
