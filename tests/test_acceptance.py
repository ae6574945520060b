"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every tolerance is pinned here; the exact checks use the
cylinder algebra's rational arithmetic and admit no tolerance at all.
"""

import itertools
import math
import pathlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from vilenkin_wavelets.cli import run_command
from vilenkin_wavelets.famio import emit_report
from vilenkin_wavelets.mra import (
    accumulate_omega_sigma,
    build_filters,
    verify_calderon,
    verify_filter_identities,
    verify_two_scale,
)
from vilenkin_wavelets.setalg import Cylinder, PSet, expanded_unit, theta_ball
from vilenkin_wavelets.transform import (
    GridSignal,
    QuotientGrid,
    analyze,
    forward,
    indicator_on_grid,
    inverse,
    gram_matrix,
    reconstruct,
    synthesize_wavelet,
    v0_residual,
)
from vilenkin_wavelets.verifier import (
    WaveletFamily,
    is_wavelet_set,
    search_wavelet_sets,
    shannon_family,
)

from .families import cells_set
from .mutants import CONGRUENCE, MEASURE, TILING, all_mutants
from .oracle import CellSet, oracle_is_wavelet_set

ROOT = pathlib.Path(__file__).resolve().parent.parent
rng = random.Random(271828)
np_rng = np.random.default_rng(271828)


def _ok(k, label):
    print(f"\n[ACCEPTANCE {k}] {label}: PASS")


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_criterion_1_shannon_verification():
    for p in (2, 3, 5):
        start = time.perf_counter()
        code, report = run_command(
            ["verify", "--p", str(p), "--input", f"families/shannon{p}.json"]
        )
        elapsed = time.perf_counter() - start
        assert code == 0 and report["verdict"] == "PASS"
        for condition in report["conditions"]:
            assert condition["passed"] and condition["exact"]
        assert elapsed < 1.0, f"verify p={p} took {elapsed:.3f}s"
    _ok(1, "Shannon families verify exactly in under a second")


def test_criterion_2_mutation_soundness():
    mutants = all_mutants((2, 3, 5))
    assert len(mutants) >= 20
    by_headline = {TILING: 0, CONGRUENCE: 0, MEASURE: 0}
    for mutant in mutants:
        report = is_wavelet_set(mutant.family)
        assert not report.overall, f"false pass: {mutant.name} p={mutant.p}"
        intended = report.condition(mutant.intended)
        assert not intended.passed, f"{mutant.name}: intended condition passed"
        assert intended.witnesses, f"{mutant.name}: no witness"
        assert any(
            "cell" in w or "measure" in w for w in intended.witnesses
        ), f"{mutant.name}: witness carries no concrete cell"
        for name in mutant.must_pass:
            assert report.condition(name).passed
        by_headline[mutant.intended] += 1
    # The three named mutant classes are all represented.
    assert all(count > 0 for count in by_headline.values())
    _ok(2, f"{len(mutants)} mutants all fail exactly as designed")


def test_criterion_3_oracle_equivalence():
    # Random set pairs: every algebra operation agrees with the
    # brute-force tuple-set oracle, bit for bit.
    pairs = 0
    windows = {2: (-2, 3), 3: (-2, 3)}  # six digit positions each
    for p in (2, 3):
        lo, hi = windows[p]
        span = hi - lo + 1
        universe = p**span
        density = 0.25 if p == 2 else 0.08
        for _ in range(5000):
            sets = []
            for _ in range(2):
                chosen = [
                    idx for idx in range(universe) if rng.random() < density
                ]
                cyls = []
                for index in chosen:
                    digits = []
                    value = index
                    for pos in range(lo, hi + 1):
                        value, d = divmod(value, p)
                        if d:
                            digits.append((pos, d))
                    cyls.append(Cylinder(p, hi, tuple(sorted(digits))))
                sets.append(PSet(p, cyls, validate=False))
            a, b = sets
            oa = CellSet.from_pset(a, lo, hi)
            ob = CellSet.from_pset(b, lo, hi)
            assert CellSet.from_pset(a.union(b), lo, hi).equals(oa.union(ob))
            assert CellSet.from_pset(a.intersect(b), lo, hi).equals(oa.intersect(ob))
            assert CellSet.from_pset(a.difference(b), lo, hi).equals(
                oa.difference(ob)
            )
            assert a.measure().as_fraction() == oa.measure()
            assert (a == b) == oa.equals(ob)
            pairs += 1
    assert pairs >= 10_000

    # Full search at p = 2 over the window [0, 2]: both deciders agree on
    # every one of the C(8, 4) candidate families.
    p = 2
    atoms = [
        tuple((pos, d) for pos, d in zip(range(0, 3), combo) if d)
        for combo in itertools.product(range(p), repeat=3)
    ]
    agreements = 0
    for combo in itertools.combinations(atoms, 4):
        family = WaveletFamily(p, ("omega1",), (cells_set(p, 2, combo),))
        library = is_wavelet_set(family)
        oracle = oracle_is_wavelet_set(
            p, [CellSet.from_pset(s, 0, 2) for s in family.sets]
        )
        assert library.overall == oracle["overall"]
        assert library.condition(MEASURE).passed == oracle["measure"]
        assert library.condition(TILING).passed == oracle["tiling"]
        assert library.condition(CONGRUENCE).passed == oracle["congruence"]
        agreements += 1
    assert agreements == 70
    _ok(3, f"bit-exact oracle agreement on {pairs} random pairs + full search")


def test_criterion_4_mra_certification():
    for p in (2, 3, 5):
        level = 0  # Shannon families sit at resolution zero
        for depth in (4, 8):
            code, report = run_command(
                [
                    "mra", "--p", str(p),
                    "--input", f"families/shannon{p}.json",
                    "--depth", str(depth),
                ]
            )
            assert code == 0 and report["verdict"] == "PASS"
            cond = [
                c for c in report["conditions"]
                if c["name"] == "scaling-spectrum-translates"
            ][0]
            rows = cond["measures"]["rows"]
            identity_row = [r for r in rows if r["lattice_index"] == 0][0]
            expected = f"{p**depth - 1}*{p}^-{depth}"
            assert identity_row["measure"]["exact"] == expected
            for row in rows:
                if row["lattice_index"] != 0:
                    assert row["measure"]["exact"] == f"0*{p}^0"
            if Fraction(2, p**depth) < Fraction(1, p**level):
                assert cond["exact"], "certification expected at this depth"
    _ok(4, "spectrum-translate tables exact and certified")


def test_criterion_5_filter_identities():
    for p in (2, 3, 5):
        family = shannon_family(p)
        sigma = accumulate_omega_sigma(family, 8)
        bank = build_filters(family, sigma)
        report = verify_filter_identities(bank, 4)
        assert report.passed and report.exact
        assert report.checked_cells == p**4
        assert not report.failing_cells
        assert report.formulations_agree  # unitarity <=> the four identities
    _ok(5, "filter identities exact on every level-4 cell for p in {2,3,5}")


def test_criterion_6_two_scale_and_product():
    for p in (2, 3, 5):
        family = shannon_family(p)
        sigma = accumulate_omega_sigma(family, 8)
        bank = build_filters(family, sigma)
        report = verify_two_scale(family, sigma, bank, window=3)
        assert report.passed
        assert not report.failing_cells
        assert report.checked_cells > 0
    _ok(6, "refinement equations and depth-8 low-pass product hold exactly")


def test_criterion_7_numerical_orthonormality():
    # Gram deviation within aliasing-safe boxes.
    grids = {2: QuotientGrid(2, 6, 6), 3: QuotientGrid(3, 5, 3)}
    for p, grid in grids.items():
        assert grid.size <= 3**8
        _, dev = gram_matrix(
            shannon_family(p), grid, range(-2, 3), lambda j: p**3
        )
        assert dev <= 1e-10, f"gram deviation {dev} at p={p}"

    # Parseval to 1e-12 on random signals.
    for p, M, N in ((2, 6, 6), (3, 4, 4)):
        grid = QuotientGrid(p, M, N)
        for _ in range(100):
            values = np_rng.normal(size=grid.size) + 1j * np_rng.normal(size=grid.size)
            signal = GridSignal(grid, values)
            assert abs(signal.norm() - forward(signal).norm()) < 1e-12

    # Band-limited analyze / reconstruct round trip.
    p = 2
    grid = QuotientGrid(p, 6, 6)
    family = shannon_family(p)
    dual = grid.dual()
    band = expanded_unit(p, 2).difference(theta_ball(p, 2))
    mask = indicator_on_grid(band, dual)
    for _ in range(5):
        spec = np.where(
            mask, np_rng.normal(size=dual.size) + 1j * np_rng.normal(size=dual.size), 0
        )
        f = inverse(GridSignal(dual, spec))
        analysis = analyze(f, family, range(-3, 4))
        assert 1 - p ** (-3) - 1e-8 <= analysis.energy_ratio <= 1 + 1e-8
        rec = reconstruct(analysis)
        rel = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
        assert rel <= 1e-8
    _ok(7, "gram <= 1e-10, Parseval <= 1e-12, round trip <= 1e-8")


def test_criterion_8_calderon_and_residual():
    for p in (2, 3, 5):
        family = shannon_family(p)
        depth = 6
        sigma = accumulate_omega_sigma(family, depth)
        report = verify_calderon(family, sigma)
        assert report.passed
        assert report.symmetric_difference.as_fraction() <= Fraction(1, p**depth)
        assert report.pieces_disjoint

    p = 2
    family = shannon_family(p)
    sigma = accumulate_omega_sigma(family, 8)
    phi = synthesize_wavelet(sigma.resolved, QuotientGrid(p, 5, 4))
    previous = math.inf
    residuals = []
    for depth in range(0, 5):
        r = v0_residual(phi, family, depth)
        assert r <= previous + 1e-12
        previous = r
        residuals.append(r)
    assert residuals[4] <= p ** (-4 / 2) + 1e-8
    _ok(8, "spectrum decomposition exact; residual monotone, within bound")


def test_criterion_9_determinism_and_range_robustness():
    # Byte-identical reports across repeated runs.
    for p in (2, 3, 5):
        args = ["verify", "--p", str(p), "--input", f"families/shannon{p}.json"]
        _, first = run_command(args)
        _, second = run_command(args)
        assert emit_report(first) == emit_report(second)
        golden = ROOT / "tests" / "golden" / f"verify-shannon{p}.json"
        assert emit_report(first) == golden.read_bytes()

    # Scanning the tiling ranges 3 past the fixed L - w changes no record.
    from .families import three_shell_family
    from .test_verifier import assert_widening_changes_nothing

    corpus = [shannon_family(p) for p in (2, 3, 5)]
    corpus += [m.family for m in all_mutants((2, 3, 5))]
    corpus += search_wavelet_sets(2, (0, 2)).families
    corpus.append(three_shell_family())
    for family in corpus:
        assert_widening_changes_nothing(family, 3)
    _ok(9, "byte-stable reports; +3 range widening changes nothing")
