import io
import math
import pathlib

import numpy as np
import pytest

from vilenkin_wavelets.errors import AliasingError, SchemaError
from vilenkin_wavelets.famio import parse_family_file
from vilenkin_wavelets.group import from_digits, lambda_decode
from vilenkin_wavelets.mra import accumulate_omega_sigma
from vilenkin_wavelets.setalg import expanded_unit, theta_ball, unit_cell
from vilenkin_wavelets.transform import (
    GridSignal,
    QuotientGrid,
    analyze,
    band_mask,
    dilate_translate,
    forward,
    gram_matrix,
    indicator_on_grid,
    inverse,
    read_csv,
    reconstruct,
    synthesize_wavelet,
    translate_orthonormality_exact,
    translate_orthonormality_grid,
    v0_residual,
    wavelet_system,
    write_csv,
)
from vilenkin_wavelets.verifier import shannon_family

from .families import empty_set
from .oracle import character_exponent, grid_cell_element

rng = np.random.default_rng(61803)
FAMILIES = pathlib.Path(__file__).resolve().parents[1] / "families"


def random_signal(grid):
    values = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    return GridSignal(grid, values)


def direct_transform(signal):
    """O(n^2) summation straight from the character pairing."""
    grid = signal.grid
    dual = grid.dual()
    out = np.zeros(dual.size, dtype=np.complex128)
    for w in range(dual.size):
        omega = grid_cell_element(dual, w)
        total = 0j
        for x in range(grid.size):
            e = character_exponent(grid_cell_element(grid, x), omega)
            total += signal.values[x] * np.exp(-2j * np.pi * e / grid.p)
        out[w] = total * grid.cell_measure
    return GridSignal(dual, out)


CONFIGS = [(2, 2, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1), (5, 1, 1)]


class TestTransformPair:
    @pytest.mark.parametrize("p,M,N", CONFIGS)
    def test_matches_direct_summation(self, p, M, N):
        signal = random_signal(QuotientGrid(p, M, N))
        fast = forward(signal)
        slow = direct_transform(signal)
        assert np.max(np.abs(fast.values - slow.values)) < 1e-12

    @pytest.mark.parametrize("p,M,N", CONFIGS + [(2, 6, 6), (3, 4, 4)])
    def test_round_trip(self, p, M, N):
        signal = random_signal(QuotientGrid(p, M, N))
        assert np.max(np.abs(inverse(forward(signal)).values - signal.values)) < 1e-12

    @pytest.mark.parametrize("p,M,N", [(2, 6, 6), (3, 4, 4), (5, 2, 2)])
    def test_parseval(self, p, M, N):
        grid = QuotientGrid(p, M, N)
        for _ in range(100):
            signal = random_signal(grid)
            assert abs(signal.norm() - forward(signal).norm()) < 1e-12

    def test_unit_indicator_spectrum(self):
        # The indicator of the support subgroup transforms to the
        # indicator of the dual unit cell at grid granularity.
        p, N = 2, 3
        grid = QuotientGrid(p, 0, N)
        signal = GridSignal(grid, np.ones(grid.size))
        spectrum = forward(signal)
        expected = np.zeros(grid.size)
        expected[spectrum.grid.index_of({})] = 1.0
        assert np.max(np.abs(spectrum.values - expected)) < 1e-12

    def test_delta_gives_constant_spectrum(self):
        p = 3
        grid = QuotientGrid(p, 1, 1)
        values = np.zeros(grid.size)
        values[grid.index_of({})] = 1.0
        spectrum = forward(GridSignal(grid, values))
        assert np.max(np.abs(spectrum.values - grid.cell_measure)) < 1e-14


class TestExactness:
    """The kernel entries of quarter turns are exact, so for p = 2 the
    transform is a Walsh-Hadamard transform, exact on dyadic samples."""

    @staticmethod
    def kernel_rows(p):
        # On the one-position grid of cell measure 1, forward maps the
        # delta at cell j to row j of the character-conjugated kernel.
        grid = QuotientGrid(p, 1, 0)
        return np.array([forward(GridSignal(grid, np.eye(p)[j])).values for j in range(p)])

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_quarter_turn_entries_are_exact(self, p):
        kernel = self.kernel_rows(p)
        exact = {0: 1, 1: -1j, 2: -1, 3: 1j}  # exp(-2 pi i q / 4)
        quarters = [(j, k) for j in range(p) for k in range(p) if 4 * j * k % p == 0]
        assert len(quarters) > p
        for j, k in quarters:
            assert kernel[j, k] == exact[4 * j * k // p % 4], (j, k)
        if p == 2:
            assert np.array_equal(kernel, [[1, 1], [1, -1]])
            assert not kernel.imag.any()

    @pytest.mark.parametrize("p", range(2, 37))
    def test_kernel_is_orthogonal(self, p):
        kernel = self.kernel_rows(p)
        assert np.max(np.abs(kernel @ kernel.conj().T - p * np.eye(p))) < 1e-13

    @pytest.mark.parametrize("name", ["shannon2.json", "three-shell2.json"])
    def test_walsh_synthesis_is_exact(self, name):
        grid = QuotientGrid(2, 4, 4)
        for s in parse_family_file(str(FAMILIES / name)).sets:
            psi = synthesize_wavelet(s, grid)
            spectrum = forward(psi)
            assert not psi.values.imag.any() and not spectrum.values.imag.any()
            assert np.array_equal(spectrum.values, indicator_on_grid(s, grid.dual()))

    def test_walsh_round_trip_is_exact_on_dyadics(self):
        grid = QuotientGrid(2, 3, 4)
        gen = np.random.default_rng(5)
        values = (gen.integers(-64, 64, grid.size) + 1j * gen.integers(-64, 64, grid.size)) / 8
        f = GridSignal(grid, values)
        assert np.array_equal(inverse(forward(f)).values, f.values)


class TestSynthesis:
    def test_unit_cell_gives_support_indicator(self):
        p = 2
        grid = QuotientGrid(p, 2, 2)
        psi = synthesize_wavelet(unit_cell(p), grid)
        slow = np.zeros(grid.size, dtype=complex)
        # Direct summation over the dual cells of the unit cell.
        dual = grid.dual()
        mask = indicator_on_grid(unit_cell(p), dual)
        for x in range(grid.size):
            total = 0j
            for w in np.nonzero(mask)[0]:
                e = character_exponent(grid_cell_element(grid, x), grid_cell_element(dual, w))
                total += np.exp(2j * np.pi * e / p)
            slow[x] = total * dual.cell_measure
        assert np.max(np.abs(psi.values - slow)) < 1e-12

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_unit_norm(self, p):
        grid = QuotientGrid(p, 2, 2)
        for s in shannon_family(p).sets:
            psi = synthesize_wavelet(s, grid)
            assert abs(psi.norm() - 1.0) < 1e-12

    def test_empty_set_is_zero(self):
        psi = synthesize_wavelet(empty_set(2), QuotientGrid(2, 2, 2))
        assert np.all(psi.values == 0)

    def test_window_violation_raises(self):
        deep = theta_ball(2, 5)  # needs fine dual depth 5
        with pytest.raises(AliasingError):
            synthesize_wavelet(deep, QuotientGrid(2, 3, 3))


class TestDilateTranslate:
    def test_identity_action(self):
        grid = QuotientGrid(2, 3, 3)
        f = random_signal(grid)
        g = dilate_translate(f, 0, 0)
        assert np.max(np.abs(g.values - f.values)) < 1e-15

    @pytest.mark.parametrize("j,lam", [(0, 3), (1, 0), (1, 5), (2, 9), (-1, 2), (-2, 0)])
    def test_unitary(self, j, lam):
        grid = QuotientGrid(2, 5, 5)
        psi = synthesize_wavelet(shannon_family(2).sets[0], grid)
        moved = dilate_translate(psi, j, lam)
        assert abs(moved.norm() - psi.norm()) < 1e-12

    def test_spectrum_law(self):
        # Transform of the dilated translate equals the phase-twisted,
        # contracted spectrum, cell by cell.
        p = 2
        grid = QuotientGrid(p, 6, 6)
        dual = grid.dual()
        psi = synthesize_wavelet(shannon_family(p).sets[0], grid)
        psih = forward(psi)
        top = dual.positions.stop - 1
        for j, lam in [(2, 5), (1, 0), (0, 7), (-1, 3), (-2, 1)]:
            lhs = forward(dilate_translate(psi, j, lam))
            n = lambda_decode(lam, p)
            shifted_n = n.dilate(-j)
            rhs = np.zeros(dual.size, dtype=complex)
            for w in range(dual.size):
                omega = grid_cell_element(dual, w)
                contracted = omega.dilate(-j)
                digits = {q: d for q, d in contracted.support() if q <= top}
                if any(q < dual.positions.start for q in digits):
                    continue  # below the window: spectrum vanishes there
                widx = dual.index_of_element(from_digits(p, digits))
                e = character_exponent(shifted_n, omega)
                rhs[w] = (
                    p ** (-j / 2)
                    * np.exp(-2j * np.pi * e / p)
                    * psih.values[widx]
                )
            assert np.max(np.abs(lhs.values - rhs)) < 1e-12, (j, lam)

    def test_compression_beyond_resolution_raises(self):
        grid = QuotientGrid(2, 2, 2)
        f = random_signal(grid)  # generic: not constant on any fine pair
        with pytest.raises(AliasingError):
            dilate_translate(f, 2, 0)

    def test_support_escape_raises(self):
        p = 2
        grid = QuotientGrid(p, 2, 3)
        psi = synthesize_wavelet(shannon_family(p).sets[0], grid)
        with pytest.raises(AliasingError):
            dilate_translate(psi, -2, 3)


class TestGram:
    def test_shannon_p2(self):
        grid = QuotientGrid(2, 6, 6)
        _, dev = gram_matrix(shannon_family(2), grid, range(-2, 3), lambda j: 8)
        assert dev <= 1e-10

    def test_shannon_p3(self):
        grid = QuotientGrid(3, 5, 3)
        _, dev = gram_matrix(shannon_family(3), grid, range(-2, 3), lambda j: 27)
        assert dev <= 1e-10

    def test_single_function(self):
        grid = QuotientGrid(2, 3, 3)
        gram, dev = gram_matrix(shannon_family(2), grid, [0], lambda j: 1)
        assert gram.shape == (1, 1)
        assert abs(gram[0, 0] - 1) < 1e-12

    def test_non_shannon_verified_family(self):
        # The orthonormality bound holds for any verified family, not
        # just the Shannon one: take a coset-shuffled p=3 family.
        from vilenkin_wavelets.verifier import search_wavelet_sets

        families = search_wavelet_sets(3, (0, 1)).families
        family = next(
            f for f in families if f.sets != shannon_family(3).sets
        )
        grid = QuotientGrid(3, 4, 3)
        _, dev = gram_matrix(family, grid, range(-1, 2), lambda j: 9)
        assert dev <= 1e-10

    def test_three_shell_family(self):
        from .families import three_shell_family

        family = three_shell_family()
        grid = QuotientGrid(2, 4, 3)
        _, dev = gram_matrix(family, grid, range(-1, 2), lambda j: 4)
        assert dev <= 1e-10

    def test_overlapping_family_shows_in_gram(self):
        # Non-wavelet family: two copies of overlapping spectra produce an
        # off-diagonal entry at least as large as the overlap measure.
        p = 3
        fam = shannon_family(p)
        overlap = fam.sets[0]
        bad = fam.replace(2, overlap)  # duplicate member
        grid = QuotientGrid(p, 3, 3)
        labels, matrix = wavelet_system(bad, grid, [0], lambda j: 1)
        gram = (matrix @ matrix.conj().T) * grid.cell_measure
        # functions (u=1) and (u=2) are identical: inner product 1.
        assert abs(gram[0, 1]) >= 1.0 - 1e-12


class TestAnalyze:
    def _band_signal(self, grid):
        dual = grid.dual()
        band = expanded_unit(grid.p, 2).difference(theta_ball(grid.p, 2))
        mask = indicator_on_grid(band, dual)
        spec = np.where(
            mask, rng.normal(size=dual.size) + 1j * rng.normal(size=dual.size), 0
        )
        return inverse(GridSignal(dual, spec))

    def test_energy_ratio_band_covered(self):
        grid = QuotientGrid(2, 6, 6)
        f = self._band_signal(grid)
        analysis = analyze(f, shannon_family(2), range(-3, 4))
        assert 1 - 2 ** (-3) - 1e-8 <= analysis.energy_ratio <= 1 + 1e-8
        assert analysis.uncovered_fraction < 1e-12

    def test_basis_element_has_single_coefficient(self):
        grid = QuotientGrid(2, 5, 5)
        psi = synthesize_wavelet(shannon_family(2).sets[0], grid)
        analysis = analyze(psi, shannon_family(2), range(-1, 2))
        coeffs = dict(zip(analysis.labels, analysis.coefficients))
        assert abs(coeffs[(1, 0, 0)] - 1) < 1e-10
        others = [
            abs(c) for label, c in coeffs.items() if label != (1, 0, 0)
        ]
        assert max(others) < 1e-10

    def test_reconstruct_round_trip(self):
        grid = QuotientGrid(2, 6, 6)
        f = self._band_signal(grid)
        analysis = analyze(f, shannon_family(2), range(-3, 4))
        rec = reconstruct(analysis)
        rel = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
        assert rel <= 1e-8

    def test_uncovered_mass_reported(self):
        grid = QuotientGrid(2, 4, 4)
        dual = grid.dual()
        # Deliberately out-of-band energy: the contracted ball at depth 3.
        mask = indicator_on_grid(theta_ball(2, 3), dual)
        spec = np.where(mask, 1.0 + 0j, 0)
        f = inverse(GridSignal(dual, spec))
        analysis = analyze(f, shannon_family(2), range(0, 2))
        assert analysis.uncovered_fraction > 0.9


class TestTranslateOrthonormality:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shannon_members_exact(self, p):
        for s in shannon_family(p).sets:
            report = translate_orthonormality_exact(s)
            assert report.passed

    def test_contracted_set_fails_with_witnesses(self):
        report = translate_orthonormality_exact(theta_ball(2, 1))
        assert not report.passed
        assert report.failing_cells

    @pytest.mark.parametrize("p", [2, 3])
    def test_spectrum_indicator_after_mra(self, p):
        sigma = accumulate_omega_sigma(shannon_family(p), 6)
        report = translate_orthonormality_exact(sigma.resolved)
        assert report.passed

    def test_truncated_spectrum_excludes_tail(self):
        p = 2
        sigma = accumulate_omega_sigma(shannon_family(p), 4)
        # The truncation leaves out exactly the depth-4 tail ball: it is the
        # one defect, an uncovered cell, and every other cell is covered once.
        report = translate_orthonormality_exact(sigma.truncated)
        assert not report.passed
        tail = theta_ball(p, 4).cylinders[0].to_json()
        assert report.failing_cells == [{"cell": tail, "count": 0}]

    def test_grid_path_shannon(self):
        p = 2
        grid = QuotientGrid(p, 4, 4)
        psi = synthesize_wavelet(shannon_family(p).sets[0], grid)
        report = translate_orthonormality_grid(forward(psi))
        assert report.passed and report.max_deviation <= 1e-10

    def test_grid_path_detects_deficit(self):
        p = 2
        grid = QuotientGrid(p, 4, 4)
        bad = synthesize_wavelet(theta_ball(p, 1), grid)
        report = translate_orthonormality_grid(forward(bad))
        assert not report.passed


class TestV0Residual:
    def _phi(self, p=2, depth=8, M=5, N=4):
        sigma = accumulate_omega_sigma(shannon_family(p), depth)
        return synthesize_wavelet(sigma.resolved, QuotientGrid(p, M, N))

    def test_depth_zero_full_norm(self):
        phi = self._phi()
        assert abs(v0_residual(phi, shannon_family(2), 0) - phi.norm()) < 1e-12

    def test_shannon_depth_four(self):
        phi = self._phi()
        residual = v0_residual(phi, shannon_family(2), 4)
        assert residual <= 2 ** (-2) + 1e-8

    def test_monotone_in_depth(self):
        phi = self._phi()
        prev = math.inf
        for depth in range(0, 5):
            r = v0_residual(phi, shannon_family(2), depth)
            assert r <= prev + 1e-12
            prev = r


class TestCsvRoundTrip:
    def test_write_read(self):
        grid = QuotientGrid(3, 2, 2)
        f = random_signal(grid)
        buf = io.StringIO()
        write_csv(f, buf)
        buf.seek(0)
        g = read_csv(grid, buf)
        assert np.max(np.abs(g.values - f.values)) == 0.0

    def test_header_required(self):
        with pytest.raises(SchemaError):
            read_csv(QuotientGrid(2, 1, 1), io.StringIO("foo,bar\n"))

    def test_duplicate_cell_rejected(self):
        grid = QuotientGrid(2, 1, 1)
        text = "cell,re,im\n.,1.0,0.0\n.,2.0,0.0\n"
        with pytest.raises(SchemaError):
            read_csv(grid, io.StringIO(text))

    def test_out_of_window_cell_rejected(self):
        grid = QuotientGrid(2, 1, 1)
        text = "cell,re,im\n.001,1.0,0.0\n"
        with pytest.raises(SchemaError):
            read_csv(grid, io.StringIO(text))


class TestBandMask:
    def test_masks_match_set_dilates(self):
        p = 2
        grid = QuotientGrid(p, 4, 4)
        fam = shannon_family(p)
        mask = band_mask(fam, grid, [0])
        direct = indicator_on_grid(fam.sets[0], grid.dual())
        assert np.array_equal(mask, direct)
