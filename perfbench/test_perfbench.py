"""Checks of the benchmark's own references.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import os
import random

import numpy as np
import pytest

import gen
import gridref
import searchref
from tests.oracle import CellSet, oracle_is_wavelet_set

# Small strata the brute-force oracle can enumerate: (p, R, w, cells).
SMALL = [(2, 0, 0, 1), (2, 2, -1, 6), (2, 3, -1, 10), (3, 0, 0, 2), (3, 2, -1, 14), (5, 0, 0, 4)]


def _cell_set(p: int, cylinders, lo: int, hi: int) -> CellSet:
    out = set()
    for res, digits in cylinders:
        pinned = dict(digits)
        fixed = tuple(pinned.get(q, 0) for q in range(lo, res + 1))
        for tail in itertools.product(range(p), repeat=hi - res):
            out.add(fixed + tail)
    return CellSet(p, lo, hi, frozenset(out))


def _oracle(fam: gen.Family) -> dict:
    members = [fam.cylinders(m) for m in fam.members]
    lo = min(0, min(digits[0][0] for m in members for _, digits in m))
    hi = max(0, max(res for m in members for res, _ in m))
    # Dilates by more than hi - lo cannot meet the union again, and shifts
    # beyond hi - lo cannot bring a cell into the shells checked.
    reach = hi - lo + 2
    verdict = oracle_is_wavelet_set(
        fam.p, [_cell_set(fam.p, m, lo, hi) for m in members],
        dilate_range=reach, shift_range=reach,
    )
    return {
        "measure-one": verdict["measure"],
        "dilation-tiling": verdict["tiling"],
        "translation-congruence": verdict["congruence"],
    }


# Widest digit window (finest resolution minus lowest pinned position)
# the oracle is asked to enumerate, per base.
ORACLE_SPAN = {2: 6, 3: 4, 5: 1}


def _families(seed: int):
    rng = random.Random(seed)
    for stratum in SMALL:
        base = gen.pass_family(rng, *stratum)
        yield base
        yield gen.shift_mutant(rng, base)
        if base.p >= 3:
            yield gen.dup_mutant(rng, base)
        grouped = gen.group_shift_mutant(rng, base)
        if grouped is not None:
            yield grouped


@pytest.mark.parametrize("seed", range(8))
def test_generator_answers_match_the_oracle(seed):
    kinds = set()
    for fam in _families(seed):
        if fam.resolution - fam.lowest > ORACLE_SPAN[fam.p]:
            continue
        assert gen.expected_conditions(fam) == _oracle(fam), (fam.kind, fam.document())
        kinds.add((fam.kind, all(gen.expected_conditions(fam).values())))
    assert {("pass", True), ("shift", False), ("dup", False)} <= kinds


def test_pass_family_hits_its_stratum():
    rng = random.Random(7)
    for p, R, w, n in SMALL:
        fam = gen.pass_family(rng, p, R, w, n)
        assert (fam.resolution, fam.lowest, len(fam.cells)) == (R, w, n)
        assert fam.member_resolutions() == [R] * (p - 1)


def test_shannon_spectrum_is_the_unit_cell():
    for p in (2, 3, 5):
        spec = gen.spectrum(gen.shannon(p), 3)
        assert spec.resolved and spec.cylinders == {(0, ())}
        assert gen.translates_disjoint(spec.cylinders)


def test_overlapping_translates_are_found():
    # Two unit cosets with the same fractional code overlap after translation.
    assert not gen.translates_disjoint({(1, ((0, 1), (1, 1))), (1, ((1, 1),))})
    assert gen.translates_disjoint({(1, ((0, 1), (1, 1))), (1, ())})


def _naive_forward(values: np.ndarray, p: int, M: int, N: int) -> np.ndarray:
    """Character sums over digits: F(w) = p^-N sum_x f(x) exp(-2 pi i <x, w> / p),
    where <x, w> pairs position j of x with dual position 1 - j of w."""
    n = M + N
    primal = list(range(-M + 1, N + 1))
    dual = list(range(-N + 1, M + 1))
    out = np.zeros(p**n, dtype=complex)
    for wi in range(p**n):
        w = dict(zip(dual, np.base_repr(wi, p).zfill(n)))
        total = 0
        for xi in range(p**n):
            x = dict(zip(primal, np.base_repr(xi, p).zfill(n)))
            e = sum(int(d) * int(w.get(1 - j, "0")) for j, d in x.items())
            total += values[xi] * np.exp(-2j * np.pi * e / p)
        out[wi] = total * float(p) ** (-N)
    return out


@pytest.mark.parametrize("p,M,N", [(2, 2, 3), (3, 1, 2), (5, 1, 1)])
def test_grid_reference_matches_character_sums(p, M, N):
    rng = np.random.default_rng(p)
    x = rng.normal(size=p ** (M + N)) + 1j * rng.normal(size=p ** (M + N))
    spectrum = gridref.forward(x, p, N)
    assert np.allclose(spectrum, _naive_forward(x, p, M, N), atol=1e-12)
    assert np.allclose(gridref.inverse(spectrum, p, M), x, atol=1e-12)
    assert gridref.norm(spectrum, p, M) == pytest.approx(gridref.norm(x, p, N))


def test_grid_labels_follow_radix_point_notation():
    assert gridref.labels(2, 1, 2)[:4] == (".", ".01", ".1", ".11")
    assert gridref.labels(3, 2, 0)[-1] == "22."


def test_expected_search_is_stored_for_every_window():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_search.json")
    with open(path, encoding="utf-8") as handle:
        rows = {(r["p"], *r["window"]) for r in json.load(handle)}
    assert rows == set(searchref.WINDOWS)


def test_search_digest_reads_cylinder_documents():
    doc = {"p": 2, "family": [{"name": "omega1", "cylinders": [{"resolution": 0, "digits": {"0": 1}}]}]}
    cells = searchref.cells_of_document(doc, -1, 1)
    assert cells == [[(0, 1, 0), (0, 1, 1)]]
    assert searchref.family_digest([cells]) == searchref.family_digest([[[(0, 1, 0), (0, 1, 1)]]])
