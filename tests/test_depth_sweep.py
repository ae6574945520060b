"""mra and filters verdicts do not depend on --depth.

The scaling spectrum is a property of the family, so whether its lattice
translates are disjoint, and whether the filters built on it satisfy
their identities, is decided once for every depth.  From depth 1 to
max(L - w, 1) + 3, L the family union's resolution and w its lowest
pinned position, the verdict and exit code of `mra` and of `filters`
must not change; at each depth the identity row reads 1 - p^-J and
verify_calderon passes on the reported truncation.  The inputs are the
shipped family files, the mutant catalogue and drawn PASS families.
"""

import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from vilenkin_wavelets.cli import run_command
from vilenkin_wavelets.famio import family_from_document, parse_family_file
from vilenkin_wavelets.mra import accumulate_omega_sigma, verify_calderon
from vilenkin_wavelets.verifier import WaveletFamily, is_wavelet_set

from .families import save_family_file
from .mutants import all_mutants

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "families").glob("*.json"))
PASS = ("PASS", 0, "PASS", 0)

# (p, R, w, cells) strata of gen.pass_family that it fills quickly.
STRATA = [(2, 2, -1, 6), (2, 3, -1, 10), (2, 4, -2, 12), (3, 2, -1, 14), (5, 2, -1, 48)]


def depths(family: WaveletFamily) -> range:
    union = family.union()
    return range(1, max(union.max_resolution - (union.min_fixed_position or 0), 1) + 4)


def sweep(path: pathlib.Path, family: WaveletFamily) -> tuple:
    """The one (mra verdict, exit code, filters verdict, exit code) of the
    family file at every depth of the sweep."""
    p = family.p
    verified = is_wavelet_set(family).overall
    outcomes = {}
    for J in depths(family):
        argv = ["--p", str(p), "--input", str(path), "--depth", str(J)]
        code, report = run_command(["mra", *argv])
        filters_code, filters = run_command(["filters", *argv])
        outcomes[J] = (report["verdict"], code, filters["verdict"], filters_code)
        if verified:
            [criterion] = [
                c for c in report["conditions"] if c["name"] == "scaling-spectrum-translates"
            ]
            identity = criterion["measures"]["rows"][0]
            assert identity["lattice_index"] == 0 and identity["expected"] == "1-p^-J"
            assert identity["measure"]["exact"] == f"{p**J - 1}*{p}^-{J}", J
            assert verify_calderon(family, accumulate_omega_sigma(family, J)).passed, J
    assert len(set(outcomes.values())) == 1, outcomes
    return outcomes[1]


@pytest.mark.parametrize("path", SHIPPED, ids=[path.stem for path in SHIPPED])
def test_shipped_families(path):
    verdict = sweep(path, parse_family_file(str(path)))
    assert (verdict == PASS) == (not path.stem.startswith("mutant-")), verdict


@pytest.mark.parametrize("mutant", all_mutants(), ids=lambda m: f"{m.name}-p{m.p}")
def test_mutants(mutant, tmp_path):
    path = tmp_path / "family.json"
    save_family_file(mutant.family, str(path))
    assert sweep(path, mutant.family) == ("FAIL", 1, "FAIL", 1)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(stratum=st.sampled_from(STRATA), seed=st.integers(0, 2**16))
def test_drawn_pass_families(stratum, seed):
    p, R, w, n = stratum
    family = family_from_document(gen.pass_family(random.Random(seed), p, R, w, n).document())
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "family.json"
        save_family_file(family, str(path))
        assert sweep(path, family) == PASS


@pytest.mark.parametrize("command", ["mra", "filters"])
def test_three_shell_passes_at_depth_one(command):
    # Its dilates close into the spectrum only from depth L - w = 3 on.
    path = ROOT / "families" / "three-shell2.json"
    code, report = run_command([command, "--p", "2", "--input", str(path), "--depth", "1"])
    assert (report["verdict"], code) == ("PASS", 0)
