"""Smoke test: every walkthrough in demos/ runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

from .test_startup import run_python

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The walkthroughs of exact verdicts only; 03 samples grids with numpy.
EXACT_DEMOS = [d for d in DEMOS if not d.name.startswith("03_")]


def test_demos_found():
    assert len(DEMOS) >= 4
    assert [d.name[:2] for d in EXACT_DEMOS] == ["01", "02", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", EXACT_DEMOS, ids=[d.name for d in EXACT_DEMOS])
def test_exact_demo_runs_without_numpy(demo):
    code = "import runpy\nrunpy.run_path(sys.argv[1], run_name='__main__')\n"
    result = run_python(code, str(demo), block_numpy=True)
    assert result.returncode == 0, result.stderr
