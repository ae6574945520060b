"""Start-up: the exact commands run without numpy.

Only the grid code (synthesize, transform and the grid functions of
vilenkin_wavelets.transform) computes in floating point, and it binds
numpy on first use.  Each check here runs in a fresh interpreter, most
with numpy blocked: ``sys.modules["numpy"] = None`` before any other
import makes every ``import numpy`` raise ImportError, so a command
that reaches for numpy crashes instead of passing.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from vilenkin_wavelets import __version__
from vilenkin_wavelets.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# golden report -> the argv that writes it, run from the repository root
GOLDEN_ARGV = {
    **{f"verify-shannon{p}": ["verify", "--p", str(p), "--input", f"families/shannon{p}.json"]
       for p in (2, 3, 5)},
    **{f"mra-shannon{p}": ["mra", "--p", str(p), "--input", f"families/shannon{p}.json", "--depth", "8"]
       for p in (2, 3, 5)},
    "verify-three-shell2": ["verify", "--p", "2", "--input", "families/three-shell2.json"],
    "mra-three-shell2": ["mra", "--p", "2", "--input", "families/three-shell2.json", "--depth", "8"],
    "filters-three-shell2": ["filters", "--p", "2", "--input", "families/three-shell2.json", "--level", "4"],
    "verify-mutant-moved-cylinder-p2": ["verify", "--p", "2", "--input", "families/mutant-moved-cylinder-p2.json"],
    **{f"verify-mutant-{m}-p3": ["verify", "--p", "3", "--input", f"families/mutant-{m}-p3.json"]
       for m in ("shell-inflate", "moved-cylinder", "measure-deficit")},
    "search-p2-w-1_2": ["search", "--p", "2", "--window", "-1", "2"],
    "search-p3-w0_1": ["search", "--p", "3", "--window", "0", "1"],
    "search-p2-w0_2-budget3": ["search", "--p", "2", "--window", "0", "2", "--budget", "3"],
    **{f"search-p{p}-w{lo}_{hi}": ["search", "--p", str(p), "--window", str(lo), str(hi)]
       for p, lo, hi in ((2, -1, 1), (2, -2, 1), (2, -3, 1), (3, -1, 0), (3, -2, 0), (5, 0, 0))},
    "search-p3-w0_1-budget1370": ["search", "--p", "3", "--window", "0", "1", "--budget", "1370"],
}


def run_python(code: str, *args: str, block_numpy: bool) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter from the repository root, with
    sys imported, the package's src on the path and, if asked, numpy
    blocked."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    prelude = "import sys\n" + ("sys.modules['numpy'] = None\n" if block_numpy else "")
    return subprocess.run(
        [sys.executable, "-c", prelude + code, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_golden_argv_covers_every_golden():
    assert sorted(GOLDEN_ARGV) == sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_package_imports_without_numpy():
    code = (
        "import vilenkin_wavelets, vilenkin_wavelets.cli, vilenkin_wavelets.transform\n"
        "assert vilenkin_wavelets.forward is vilenkin_wavelets.transform.forward\n"
        "assert sys.modules['numpy'] is None\n"
    )
    result = run_python(code, block_numpy=True)
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def reports_without_numpy(tmp_path_factory):
    """Every golden's command, run in one interpreter with numpy blocked;
    returns the output directory and the exit code of each command."""
    out = tmp_path_factory.mktemp("no-numpy")
    code = (
        "import json, os\n"
        "from vilenkin_wavelets.cli import main\n"
        "cases, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "codes = {name: main(argv + ['--output', os.path.join(out, name + '.json')])\n"
        "         for name, argv in cases.items()}\n"
        "assert sys.modules['numpy'] is None\n"
        "print(json.dumps(codes))\n"
    )
    result = run_python(code, json.dumps(GOLDEN_ARGV), str(out), block_numpy=True)
    assert result.returncode == 0, result.stderr
    return out, json.loads(result.stdout)


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_exact_command_writes_golden_without_numpy(reports_without_numpy, name):
    out, codes = reports_without_numpy
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert (out / f"{name}.json").read_bytes() == golden
    assert codes[name] == (0 if json.loads(golden)["verdict"] == "PASS" else 1)


def test_version_without_numpy():
    code = (
        "import runpy\n"
        "sys.argv = ['vilenkin-wavelets', '--version']\n"
        "runpy.run_module('vilenkin_wavelets', run_name='__main__', alter_sys=True)\n"
    )
    result = run_python(code, block_numpy=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == __version__


def grid_runs(out: pathlib.Path) -> list[list[str]]:
    """A verify, then a synthesize and a transform of its samples, under out."""
    family, report = str(ROOT / "families" / "shannon2.json"), ["--output", str(out / "report.json")]
    return [
        ["verify", "--p", "2", "--input", family, *report],
        ["synthesize", "--p", "2", "--input", family, "--grid", "3", "3",
         "--samples", str(out / "psi.csv"), *report],
        ["transform", "--p", "2", "--grid", "3", "3", "--input", str(out / "psi.csv"),
         "--samples", str(out / "spectrum.csv"), *report],
    ]


def test_grid_commands_load_numpy_on_first_use(tmp_path):
    # In a fresh interpreter numpy loads with the first grid command, not
    # before; the samples match those written from this process.
    code = (
        "import json\n"
        "from vilenkin_wavelets.cli import main\n"
        "loaded, codes = ['numpy' in sys.modules], []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    codes.append(main(argv))\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    result = run_python(code, json.dumps(grid_runs(fresh)), block_numpy=False)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0, 0, 0], [False, False, True, True]]
    assert [main(argv) for argv in grid_runs(here)] == [0, 0, 0]
    for name in ("psi.csv", "spectrum.csv"):
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


def test_tracer_installs_after_importing_only_the_cli():
    # perfbench/tracer.py reads every module of its tables from
    # sys.modules, so importing the CLI must import each of them.
    code = (
        "import importlib.util, json\n"
        "import vilenkin_wavelets.cli\n"
        "loaded = set(sys.modules)\n"
        "spec = importlib.util.spec_from_file_location('perfbench_tracer', 'perfbench/tracer.py')\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "shorts = [*tracer.TRACED, *tracer.COUNTED]\n"
        "missing = [s for s in shorts if 'vilenkin_wavelets.' + s not in loaded]\n"
        "transform = sys.modules['vilenkin_wavelets.transform']\n"
        "original = transform.forward\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "wrapped = transform.forward is not original\n"
        "t.remove()\n"
        "print(json.dumps([shorts, missing, wrapped, transform.forward is original]))\n"
    )
    result = run_python(code, block_numpy=False)
    assert result.returncode == 0, result.stderr
    shorts, missing, wrapped, restored = json.loads(result.stdout)
    assert "transform" in shorts and missing == []
    assert wrapped and restored
