"""The `verify` certificate holds and stays small.

tests/certcheck.py checks each report's certificate against its family
file on the oracle, for the shipped family files, the mutant catalogue
and drawn PASS families.  Every partition entry must hold exactly a
lattice index and a list of plain int positions, so a change that writes
cylinders into the certificate again fails here.  Mutated certificates
must each fail the checker.
"""

import copy
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from vilenkin_wavelets.cli import run_command
from vilenkin_wavelets.famio import emit_report

from .certcheck import check_certificate
from .families import save_family_file
from .mutants import all_mutants
from .test_depth_sweep import SHIPPED, STRATA


def verify(path) -> dict:
    """The verify report of a family file, as checked in memory and as
    read back from the bytes it writes."""
    p = json.loads(pathlib.Path(path).read_text())["p"]
    _, report = run_command(["verify", "--p", str(p), "--input", str(path)])
    for entry in report["certificate"]:
        for part in entry["partition"]:
            assert list(part) == ["lattice_index", "piece"], part
            assert type(part["piece"]) is list, part
            assert all(type(i) is int for i in part["piece"]), part
    check_certificate(str(path), json.loads(emit_report(report)))
    return report


def drawn_family(tmp_path, stratum, seed) -> pathlib.Path:
    p, R, w, n = stratum
    path = tmp_path / f"drawn-{p}-{R}-{w}-{n}-{seed}.json"
    path.write_text(json.dumps(gen.pass_family(random.Random(seed), p, R, w, n).document()))
    return path


@pytest.mark.parametrize("path", SHIPPED, ids=[path.stem for path in SHIPPED])
def test_shipped_families(path):
    report = verify(path)
    assert (report["verdict"] == "PASS") == (not path.stem.startswith("mutant-"))


@pytest.mark.parametrize("mutant", all_mutants(), ids=lambda m: f"{m.name}-p{m.p}")
def test_mutants(mutant, tmp_path):
    path = tmp_path / "family.json"
    save_family_file(mutant.family, str(path))
    assert verify(path)["verdict"] == "FAIL"


@settings(derandomize=True, deadline=None, max_examples=40)
@given(stratum=st.sampled_from(STRATA), seed=st.integers(0, 2**16))
def test_drawn_pass_families(tmp_path_factory, stratum, seed):
    path = drawn_family(tmp_path_factory.mktemp("drawn"), stratum, seed)
    assert verify(path)["verdict"] == "PASS"


# -- mutated certificates -------------------------------------------------------------


def move_position(report: dict, k: int) -> bool:
    """Move the last position of member k's first piece into its next piece."""
    partition = report["certificate"][k]["partition"]
    if len(partition) < 2:
        return False
    moved = partition[0]["piece"].pop()
    partition[1]["piece"] = sorted(partition[1]["piece"] + [moved])
    return True


def shift_index(report: dict, k: int) -> bool:
    """Raise member k's last lattice index by one."""
    report["certificate"][k]["partition"][-1]["lattice_index"] += 1
    return True


def drop_position(report: dict, k: int) -> bool:
    """Drop the last position of member k's last piece."""
    report["certificate"][k]["partition"][-1]["piece"].pop()
    return True


def claim_congruence(report: dict, k: int) -> bool:
    """Mark a failed translation-congruence as passed."""
    [congruence] = [c for c in report["conditions"] if c["name"] == "translation-congruence"]
    if k or congruence["passed"]:
        return False
    congruence["passed"] = True
    return True


CERTIFICATE_MUTANTS = [move_position, shift_index, drop_position, claim_congruence]


def certificate_cases(tmp_path) -> list[pathlib.Path]:
    paths = list(SHIPPED)
    for mutant in all_mutants():
        path = tmp_path / f"{mutant.name}-p{mutant.p}.json"
        save_family_file(mutant.family, str(path))
        paths.append(path)
    return paths + [drawn_family(tmp_path, stratum, 7) for stratum in STRATA]


@pytest.mark.parametrize("mutate", CERTIFICATE_MUTANTS, ids=lambda f: f.__name__)
def test_mutated_certificates_fail(mutate, tmp_path):
    applied = 0
    for path in certificate_cases(tmp_path):
        p = json.loads(path.read_text())["p"]
        report = json.loads(emit_report(run_command(["verify", "--p", str(p), "--input", str(path)])[1]))
        for k in range(len(report["certificate"])):
            bad = copy.deepcopy(report)
            if mutate(bad, k):
                applied += 1
                with pytest.raises(AssertionError):
                    check_certificate(str(path), bad)
    assert applied
