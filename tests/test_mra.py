import cmath
import itertools
import pathlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from vilenkin_wavelets.errors import DigitError, ResolutionCapError, VilenkinError
from vilenkin_wavelets.group import from_digits, identity, lambda_decode, lambda_encode
from vilenkin_wavelets.mra import (
    FilterBank,
    FilterIdentityReport,
    FilterTable,
    MraReport,
    MraRow,
    OmegaSigma,
    _integer_parts,
    _render_value,
    _translation_candidates,
    accumulate_omega_sigma,
    build_filters,
    check_mra_condition,
    verify_calderon,
    verify_filter_identities,
    verify_two_scale,
)
from vilenkin_wavelets.setalg import (
    MAX_RESOLUTION,
    Cylinder,
    Measure,
    PSet,
    _NestingIndex,
    empty_set,
    theta_ball,
    unit_cell,
)
from vilenkin_wavelets.verifier import search_wavelet_sets, shannon_family

from .families import three_shell_family
from .mutants import mutants_for


def coset_shuffle_family():
    """A verified p=3 family that mixes lattice cosets inside each member;
    its union is still the full unit shell."""
    families = search_wavelet_sets(3, (0, 1)).families
    shannon = shannon_family(3)
    return next(f for f in families if f.sets != shannon.sets)


def family_named(name):
    if name.startswith("shannon"):
        return shannon_family(int(name[-1]))
    return three_shell_family() if name == "three-shell2" else coset_shuffle_family()


def shannon_pipeline(p, depth=8):
    family = shannon_family(p)
    sigma = accumulate_omega_sigma(family, depth)
    mra = check_mra_condition(sigma)
    bank = build_filters(family, sigma, mra=mra)
    return family, sigma, mra, bank


class TestAccumulation:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_truncation_telescopes(self, p):
        family = shannon_family(p)
        for depth in (1, 4, 8):
            sigma = accumulate_omega_sigma(family, depth)
            assert sigma.truncated.measure() == Fraction(p**depth - 1, p**depth)
            total = sigma.truncated.measure() + sigma.tail_bound()
            assert total == 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_shannon_truncation_is_unit_cell_minus_ball(self, p):
        sigma = accumulate_omega_sigma(shannon_family(p), 4)
        expected = unit_cell(p).difference(theta_ball(p, 4))
        assert sigma.truncated == expected

    def test_depth_one_is_single_dilate(self):
        p = 3
        family = shannon_family(p)
        sigma = accumulate_omega_sigma(family, 1)
        assert sigma.truncated == family.union().dilate(1)
        assert sigma.truncated.measure() == Fraction(p - 1, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shannon_tail_is_self_similar(self, p):
        sigma = accumulate_omega_sigma(shannon_family(p), 6)
        assert sigma.resolved == unit_cell(p)

    def test_requires_verified_family(self):
        bad = shannon_family(2).replace(1, theta_ball(2, 1))
        with pytest.raises(VilenkinError):
            accumulate_omega_sigma(bad, 4)


class TestMraCondition:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shannon_certifies(self, p):
        _, sigma, mra, _ = shannon_pipeline(p)
        assert mra.status == "PASS" and mra.certified
        identity_row = [r for r in mra.rows if r.lattice_index == 0]
        assert identity_row[0].measure == Fraction(p**8 - 1, p**8)
        for row in mra.rows:
            if row.lattice_index != 0:
                assert row.measure == 0

    def test_identity_row_at_least_one_minus_tail(self):
        for p in (2, 3):
            for depth in (3, 6):
                sigma = accumulate_omega_sigma(shannon_family(p), depth)
                mra = check_mra_condition(sigma)
                row = [r for r in mra.rows if r.lattice_index == 0][0]
                assert row.measure >= Fraction(p**depth - 1, p**depth)

    @pytest.mark.parametrize("p", [2, 3])
    def test_depth_monotonicity(self, p):
        family = shannon_family(p)
        statuses = []
        for depth in range(1, 10):
            sigma = accumulate_omega_sigma(family, depth)
            statuses.append(check_mra_condition(sigma).status)
        certified_seen = False
        for status in statuses:
            if status == "PASS":
                certified_seen = True
            if certified_seen:
                assert status == "PASS"

    def test_translate_overlap_fails(self):
        # Synthetic spectrum with two cells in the same lattice-coset slot:
        # shifting by one maps the first onto the second.
        from vilenkin_wavelets.mra import OmegaSigma

        p = 2
        spectrum = PSet(
            p,
            [Cylinder(p, 1, ()), Cylinder(p, 1, ((0, 1),))],
            validate=False,
        )
        sigma = OmegaSigma(
            p=p, depth=6, truncated=spectrum, level=1, lowest_fixed=0,
            resolved=None,
        )
        mra = check_mra_condition(sigma)
        assert mra.status == "FAIL" and mra.certified
        assert any(w["lattice_index"] == 1 for w in mra.witnesses)

    def test_inconclusive_without_certification(self):
        # Shallow depth with a spectrum that is not self-similar at that
        # depth and whose zero rows cannot be certified.
        from vilenkin_wavelets.mra import OmegaSigma

        p = 2
        spectrum = PSet(p, [Cylinder(p, 3, ((1, 1),))], validate=False)
        sigma = OmegaSigma(
            p=p, depth=2, truncated=spectrum, level=3, lowest_fixed=1,
            resolved=None,
        )
        mra = check_mra_condition(sigma)
        assert mra.status == "INCONCLUSIVE" and not mra.certified


class TestThreeShellPipeline:
    def test_spectrum_and_filters(self):
        # The base-2 family spread over three shells: its spectrum is a
        # nontrivial two-level cell union plus the contracted unit cell,
        # and the whole pipeline stays exact.
        from .families import three_shell_family
        from vilenkin_wavelets.setalg import theta_ball, unit_cell

        family = three_shell_family()
        sigma = accumulate_omega_sigma(family, 6)
        assert sigma.resolved.measure() == 1
        assert sigma.resolved != unit_cell(2)  # not the Shannon spectrum

        mra = check_mra_condition(sigma)
        assert mra.status == "PASS" and mra.certified
        bank = build_filters(family, sigma, mra=mra)
        assert verify_filter_identities(bank, 4).passed
        assert verify_two_scale(family, sigma, bank).passed
        assert verify_calderon(family, sigma).passed

    def test_truncated_filters_and_two_scale(self):
        # A spectrum that is not resolved certifies nothing: the criterion
        # is INCONCLUSIVE, build_filters refuses it even beside a PASS
        # report, tables built by hand on the truncation skip the tail
        # ball and fail the identities, and the two-scale check refuses.
        family = three_shell_family()
        sigma = accumulate_omega_sigma(family, 8)
        passed = check_mra_condition(sigma)
        sigma.resolved = None
        mra = check_mra_condition(sigma)
        assert mra.status == "INCONCLUSIVE" and mra.certification is None
        with pytest.raises(VilenkinError):
            build_filters(family, sigma, mra=mra)
        with pytest.raises(ValueError, match="resolved spectrum"):
            build_filters(family, sigma, mra=passed)

        bank = _truncated_bank(family, 8)
        identities = verify_filter_identities(bank, bank.resolution)
        assert not identities.passed and not identities.failing_cells
        assert identities.skipped_cells > 0
        assert identities.skipped_mass <= Measure.make(1, 2, sigma.lowest_fixed + 8)

        with pytest.raises(ValueError, match="resolved spectrum"):
            verify_two_scale(family, sigma, bank)

    def test_truncated_spectrum_is_never_certified(self):
        # The family pins a digit at a negative position.  With the tail
        # forgotten, an all-zero table stays INCONCLUSIVE at every depth:
        # no depth threshold certifies without the fixed point.
        family = three_shell_family()
        for depth in (3, 4, 5, 6, 8, 30):
            sigma = accumulate_omega_sigma(family, depth)
            sigma.resolved = None
            report = check_mra_condition(sigma)
            assert report.status == "INCONCLUSIVE" and not report.certified, depth
            assert not report.witnesses and report.certification is None


class TestNonShannonFamilies:
    def test_full_pipeline(self):
        family = coset_shuffle_family()
        sigma = accumulate_omega_sigma(family, 6)
        assert sigma.resolved is not None
        mra = check_mra_condition(sigma)
        assert mra.status == "PASS" and mra.certified
        bank = build_filters(family, sigma, mra=mra)
        assert verify_filter_identities(bank, 4).passed
        assert verify_two_scale(family, sigma, bank).passed
        assert verify_calderon(family, sigma).passed

    def test_row_measures_are_quantized(self):
        # Every reported intersection measure is an integer multiple of
        # p^-(L+J): the scale never exceeds the refinement the data has.
        family = coset_shuffle_family()
        depth = 5
        sigma = accumulate_omega_sigma(family, depth)
        mra = check_mra_condition(sigma)
        bound = sigma.truncated.max_resolution
        for row in mra.rows:
            assert row.measure.scale <= bound + depth


class TestFilters:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_low_pass_structure(self, p):
        family, sigma, _, bank = shannon_pipeline(p)
        # Zero exactly on the first dilate of the family, one elsewhere.
        first = family.union().dilate(1)
        for cell, value in bank.m0.values.items():
            cyl = Cylinder(p, bank.resolution, cell)
            inside = any(cyl.relation(c) != "disjoint" for c in first.cylinders)
            assert value == (0 if inside else 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_partition_of_unity_on_spectrum(self, p):
        _, _, _, bank = shannon_pipeline(p)
        for cell in bank.m0.values:
            total = bank.m0.values[cell] + sum(t.values[cell] for t in bank.m1)
            assert total == 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_band_filters_have_disjoint_support(self, p):
        _, _, _, bank = shannon_pipeline(p)
        for cell in bank.m0.values:
            assert sum(t.values[cell] for t in bank.m1) <= 1

    def test_shannon_low_pass_values(self):
        _, _, _, bank = shannon_pipeline(2)
        zero_cell = Cylinder(2, 1, ((1, 1),))
        one_cell = Cylinder(2, 1, ())
        assert evaluate_cell(bank.m0, zero_cell) == 0
        assert evaluate_cell(bank.m0, one_cell) == 1

    def test_periodicity(self):
        _, _, _, bank = shannon_pipeline(3)
        cell = Cylinder(3, 2, ((1, 2), (2, 1)))
        base = evaluate_cell(bank.m0, cell)
        for lam in range(6):
            shifted = cell.translate(lambda_decode(lam, 3))
            assert evaluate_cell(bank.m0, shifted) == base

    def test_point_evaluation(self):
        _, _, _, bank = shannon_pipeline(2)
        omega = from_digits(2, {1: 1, 5: 1})
        assert evaluate_point(bank.m0, omega) == 0
        omega2 = from_digits(2, {2: 1})
        assert evaluate_point(bank.m0, omega2) == 1

    def test_unresolved_outside_domain(self):
        # build_filters refuses a spectrum with its tail forgotten; tables
        # built by hand on the truncation have no value in the tail ball.
        p = 2
        family = shannon_family(p)
        sigma = accumulate_omega_sigma(family, 3)
        sigma.resolved = None
        assert check_mra_condition(sigma).status == "INCONCLUSIVE"
        with pytest.raises(VilenkinError):
            build_filters(family, sigma)
        bank = _truncated_bank(family, 3)
        deep = Cylinder(p, 6, ((6, 1),))  # inside the unresolved tail ball
        assert evaluate_cell(bank.m0, deep) is UNRESOLVED

    def test_build_requires_mra_pass(self):
        from vilenkin_wavelets.mra import OmegaSigma

        p = 2
        spectrum = PSet(
            p,
            [Cylinder(p, 1, ()), Cylinder(p, 1, ((0, 1),))],
            validate=False,
        )
        sigma = OmegaSigma(
            p=p, depth=6, truncated=spectrum, level=1, lowest_fixed=0,
            resolved=None,
        )
        family = shannon_family(p)
        with pytest.raises(VilenkinError):
            build_filters(family, sigma)


class TestFilterIdentities:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exact_at_level_four(self, p):
        _, _, _, bank = shannon_pipeline(p)
        report = verify_filter_identities(bank, 4)
        assert report.passed and report.exact
        assert report.checked_cells == p**4
        assert report.skipped_cells == 0
        assert report.formulations_agree

    def test_constant_filter_fails_everywhere(self):
        p = 2
        _, _, _, bank = shannon_pipeline(p)
        ones = FilterTable(
            p, bank.resolution,
            {cell: 1 for cell in bank.m0.values},
            bank.m0.candidates,
        )
        broken = type(bank)(
            p=p, resolution=bank.resolution, m0=ones, m1=bank.m1,
        )
        report = verify_filter_identities(broken, 3)
        assert not report.passed
        assert len(report.failing_cells) == p**3

    def test_complex_table_near_unitary(self):
        # An external complex filter pair: the standard two-band split
        # with unimodular phases still satisfies the identities.
        import cmath

        p = 2
        _, _, _, bank = shannon_pipeline(p)
        phase = cmath.exp(0.3j)
        m0 = FilterTable(
            p, bank.resolution,
            {cell: phase * v for cell, v in bank.m0.values.items()},
            bank.m0.candidates,
        )
        twisted = type(bank)(
            p=p, resolution=bank.resolution, m0=m0, m1=bank.m1,
        )
        report = verify_filter_identities(twisted, 3)
        assert not report.exact
        assert report.passed


class TestTwoScale:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shannon_identities_hold(self, p):
        family, sigma, _, bank = shannon_pipeline(p)
        report = verify_two_scale(family, sigma, bank)
        assert report.passed
        assert not report.failing_cells
        assert report.unresolved_mass == 0

    def test_broken_filter_detected(self):
        p = 2
        family, sigma, _, bank = shannon_pipeline(p)
        flipped = FilterTable(
            p, bank.resolution,
            {cell: 1 - v for cell, v in bank.m0.values.items()},
            bank.m0.candidates,
        )
        broken = type(bank)(
            p=p, resolution=bank.resolution, m0=flipped, m1=bank.m1,
        )
        report = verify_two_scale(family, sigma, broken)
        assert not report.passed
        assert report.failing_cells

    def test_window_validation(self):
        family, sigma, _, bank = shannon_pipeline(2, depth=3)
        with pytest.raises(ValueError):
            verify_two_scale(family, sigma, bank, window=5)

    @pytest.mark.parametrize("name", ["shannon2", "shannon3", "shannon5", "three-shell2", "coset-shuffle3"])
    def test_passes_at_every_depth_to_forty(self, name):
        # From the first depth where the spectrum resolves to J = 40, far
        # past MAX_RESOLUTION, every verdict holds at every depth.
        family = family_named(name)
        p = family.p
        resolved, two_scale = [], []
        for J in range(1, 41):
            sigma = accumulate_omega_sigma(family, J)
            assert sigma.truncated.measure() == 1 - Fraction(1, p**J)
            mra = check_mra_condition(sigma)
            if sigma.resolved is None:
                assert mra.status == "INCONCLUSIVE", J
                continue
            assert mra.status == "PASS" and mra.certification == "self-similar-fixed-point", J
            bank = build_filters(family, sigma, mra=mra)
            identities = verify_filter_identities(bank, max(bank.resolution, 4))
            assert identities.passed and identities.skipped_cells == 0, J
            assert verify_calderon(family, sigma).passed, J
            resolved.append(J)
            if max(2, 1 - sigma.lowest_fixed) + sigma.level > J:
                continue  # the default window does not fit yet
            report = verify_two_scale(family, sigma, bank)
            assert report.passed and not report.failing_cells, J
            assert report.unresolved_mass == 0 and report.checked_cells > 0
            two_scale.append(J)
        assert resolved == list(range(resolved[0], 41)) and resolved[0] <= 4
        assert two_scale == list(range(two_scale[0], 41)) and two_scale[0] <= 4

    @pytest.mark.parametrize("name", ["phase-twisted", "shannon2-truncated"])
    def test_refuses_what_it_cannot_decide(self, name):
        # A complex bank has no 0/1 level sets, and a truncated spectrum
        # has no exact equations.
        p = 2
        family = shannon_family(p)
        sigma = accumulate_omega_sigma(family, 3 if "truncated" in name else 8)
        if "truncated" in name:
            sigma.resolved = None
        with pytest.raises(ValueError):
            verify_two_scale(family, sigma, _bank(name))

    def test_level_sets_split_the_unit_cell(self):
        family, _, _, bank = shannon_pipeline(3)
        zero, one = bank.m0.level_set(0), bank.m0.level_set(1)
        assert zero == family.union().dilate(1)
        assert zero.union(one) == unit_cell(3) and zero.intersect(one).is_empty
        assert bank.m0.level_set(2).is_empty


class TestCalderon:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shannon_identity(self, p):
        family = shannon_family(p)
        sigma = accumulate_omega_sigma(family, 6)
        report = verify_calderon(family, sigma)
        assert report.passed and report.pieces_disjoint
        expected = Fraction(1, p**6) - Fraction(1, p**8)
        assert report.symmetric_difference.as_fraction() == expected

    def test_refuses_non_tiling_family(self):
        p = 2
        mutant = [m for m in mutants_for(p) if m.name == "moved-cylinder"][0]
        family = shannon_family(p)
        sigma = accumulate_omega_sigma(family, 4)
        with pytest.raises(VilenkinError):
            verify_calderon(mutant.family, sigma)


# -- table-resolution walk and fractional-digit lookup vs. the per-level loops --


class _Unresolved:
    def __repr__(self):
        return "UNRESOLVED"


#: What a lookup outside a table's resolved cells returns.
UNRESOLVED = _Unresolved()


def _lookup(table, digits):
    fraction = tuple((pos, d) for pos, d in digits if 0 < pos <= table.resolution)
    return table._by_fraction.get(fraction, UNRESOLVED)


def evaluate_cell(table, cell):
    """The table's value on a cell at least as fine as the table, or
    UNRESOLVED, read from its fractional-digit index."""
    if cell.resolution < table.resolution:
        raise ResolutionCapError(
            f"query at resolution {cell.resolution} is coarser than the "
            f"table resolution {table.resolution}"
        )
    if cell.resolution < 0:
        raise DigitError("integer part requires resolution >= 0")
    return _lookup(table, cell.digits)


def evaluate_point(table, omega):
    """The table's value at a single dual point, or UNRESOLVED."""
    return _lookup(table, omega.support())


def _loop_key(pairs, resolution):
    return tuple((pos, d) for pos, d in pairs if pos <= resolution and d)


def loop_evaluate_cell(table, cell):
    """Shift the cell onto each candidate's integer part in turn and look up
    the shifted cell; the first resolved one gives the value."""
    if cell.resolution < table.resolution:
        raise ResolutionCapError("query coarser than the table")
    q_int = cell.integer_part()
    for base in table.candidates:
        shifted = cell.translate(q_int.subtract(base).negate())
        key = _loop_key(shifted.digits, table.resolution)
        if key in table.values:
            return table.values[key]
    return UNRESOLVED


def loop_evaluate_point(table, omega):
    q_int = from_digits(table.p, {j: d for j, d in omega.support() if j <= 0})
    for base in table.candidates:
        shifted = omega.subtract(q_int.subtract(base))
        key = _loop_key(shifted.support(), table.resolution)
        if key in table.values:
            return table.values[key]
    return UNRESOLVED


def _digit_maps(p, positions):
    for combo in itertools.product(range(p), repeat=len(positions)):
        yield tuple((pos, d) for pos, d in zip(positions, combo) if d)


def per_level_identities(bank, level, tolerance=1e-12):
    """Every resolution-`level` unit cell checked on its own."""
    p = bank.p
    tables = bank.all_tables()
    exact = all(t.is_binary() for t in tables)

    def conj(v):
        return v.conjugate() if isinstance(v, complex) else v

    def close(total, want):
        return total == want if exact else abs(total - want) <= tolerance

    failing, skipped, checked, agree = [], 0, 0, True
    skipped_mass = Measure.zero(p)
    for cell_map in _digit_maps(p, range(1, level + 1)):
        rows = []
        for x in range(p):
            rotated = dict(cell_map)
            d = (rotated.pop(1, 0) + x) % p
            if d:
                rotated[1] = d
            query = Cylinder(p, level, tuple(sorted(rotated.items())))
            rows.append([loop_evaluate_cell(t, query) for t in tables])
        if any(v is UNRESOLVED for row in rows for v in row):
            skipped += 1
            skipped_mass = skipped_mass + Measure.make(1, p, level)
            continue
        checked += 1
        bad = []
        for a in range(p):
            for b in range(p):
                total = sum(rows[x][a] * conj(rows[x][b]) for x in range(p))
                if not close(total, int(a == b)):
                    rendered = [total.real, total.imag] if isinstance(total, complex) else total
                    bad.append({"columns": [a, b], "sum": rendered})
        row_bad = False
        for x in range(p):
            for y in range(p):
                total = sum(rows[x][c] * conj(rows[y][c]) for c in range(p))
                row_bad = row_bad or not close(total, int(x == y))
        if bool(bad) != row_bad:
            agree = False
        if bad:
            failing.append({"cell": Cylinder(p, level, cell_map).to_json(), "violations": bad})
    return FilterIdentityReport(
        level=level,
        passed=not failing and not skipped and agree,
        exact=exact,
        checked_cells=checked,
        failing_cells=failing,
        skipped_cells=skipped,
        skipped_mass=skipped_mass,
        formulations_agree=agree,
    )


def _with_m0(bank, values):
    m0 = FilterTable(bank.p, bank.resolution, values, bank.m0.candidates)
    return type(bank)(
        p=bank.p, resolution=bank.resolution, m0=m0, m1=bank.m1,
    )


def _truncated_bank(family, depth):
    """Tables built by hand on the depth-J truncation alone, as
    build_filters builds them on a resolved spectrum: a lookup inside the
    tail ball finds no value."""
    p = family.p
    domain = accumulate_omega_sigma(family, depth).truncated
    r = max(domain.max_resolution, 1)
    cells = domain.cells_at(r)
    bands = [s.dilate(1).cells_at(r) for s in family.sets]
    candidates = tuple(_integer_parts(domain))
    m0 = FilterTable(p, r, {c: int(not any(c in b for b in bands)) for c in cells}, candidates)
    m1 = tuple(FilterTable(p, r, {c: int(c in b) for c in cells}, candidates) for b in bands)
    return FilterBank(p, r, m0, m1)


def _bank(name):
    if name in ("shannon2", "shannon3", "shannon5"):
        return shannon_pipeline(int(name[-1]))[3]
    if name == "three-shell2":
        family = three_shell_family()
        sigma = accumulate_omega_sigma(family, 6)
        return build_filters(family, sigma, mra=check_mra_condition(sigma))
    if name == "three-shell2-truncated":
        return _truncated_bank(three_shell_family(), 8)
    if name == "shannon2-truncated":
        return _truncated_bank(shannon_family(2), 3)
    if name == "resolution-0":
        # Hand-built tables constant on resolution-0 cells: the rotation at
        # position 1 still needs a finer walk.
        p = 2
        ones, zeros = (FilterTable(p, 0, {(): v}, (identity(p),)) for v in (1, 0))
        return FilterBank(p, 0, ones, (zeros,))
    bank = shannon_pipeline(2)[3]
    if name == "constant-ones":
        return _with_m0(bank, {cell: 1 for cell in bank.m0.values})
    # phase-twisted, or scaled by 2 so that it fails with complex sums
    phase = cmath.exp(0.3j) * (2 if name == "phase-twisted-doubled" else 1)
    return _with_m0(bank, {cell: phase * v for cell, v in bank.m0.values.items()})


BANKS = [
    "shannon2", "shannon3", "shannon5", "three-shell2", "three-shell2-truncated",
    "shannon2-truncated", "constant-ones", "phase-twisted", "phase-twisted-doubled",
    "resolution-0",
]


class TestTableResolutionWalk:
    @pytest.mark.parametrize("extra", [0, 1, 3])
    @pytest.mark.parametrize("name", BANKS)
    def test_report_matches_per_level_walk(self, name, extra):
        bank = _bank(name)
        level = max(bank.resolution, 1) + extra
        got = verify_filter_identities(bank, level)
        want = per_level_identities(bank, level)
        assert got.checked_cells == want.checked_cells
        assert got.skipped_cells == want.skipped_cells
        assert got.skipped_mass.exact_string() == want.skipped_mass.exact_string()
        assert got.failing_cells == want.failing_cells
        assert got.exact == want.exact
        assert got.formulations_agree == want.formulations_agree
        assert got == want
        assert got.checked_cells + got.skipped_cells == bank.p**level

    def test_inputs_cover_every_outcome(self):
        # The differential inputs reach failing cells, skipped cells and
        # non-binary tables, so each weighted branch is compared.
        reports = {name: verify_filter_identities(_bank(name), _bank(name).resolution + 1) for name in BANKS}
        assert len(reports["constant-ones"].failing_cells) == 2**2
        assert reports["three-shell2-truncated"].skipped_cells > 0
        assert reports["shannon2-truncated"].skipped_cells > 0
        assert not reports["phase-twisted"].exact and reports["phase-twisted"].passed
        doubled = reports["phase-twisted-doubled"]
        assert not doubled.exact and not doubled.passed
        assert all(isinstance(v["sum"], list) for c in doubled.failing_cells for v in c["violations"])

    @pytest.mark.parametrize("name", BANKS)
    def test_lookup_matches_translate_loop(self, name):
        bank = _bank(name)
        p, r = bank.p, bank.resolution
        gen = random.Random(f"lookup-{name}")
        integers = list(_digit_maps(p, range(-1, 1)))
        seen = set()
        for table in bank.all_tables():
            for level in range(r, r + 4):
                for fraction in _digit_maps(p, range(1, level + 1)):
                    cell = Cylinder(p, level, gen.choice(integers) + fraction)
                    value = evaluate_cell(table, cell)
                    assert value == loop_evaluate_cell(table, cell), cell
                    seen.add(value is UNRESOLVED)
            for _ in range(300):
                digits = {pos: gen.randrange(p) for pos in range(-3, r + 6)}
                omega = from_digits(p, digits)
                assert evaluate_point(table, omega) == loop_evaluate_point(table, omega)
        if "truncated" in name:
            assert seen == {True, False}

    def test_lookup_errors_match(self):
        bank = shannon_pipeline(3)[3]
        coarse = Cylinder(3, 0, ((0, 2),))
        for evaluate in (lambda c: evaluate_cell(bank.m0, c), lambda c: loop_evaluate_cell(bank.m0, c)):
            with pytest.raises(ResolutionCapError):
                evaluate(coarse)
        # A table coarser than the integer lattice: a query of resolution
        # < 0 has no integer part to shift by.
        p = 2
        table = FilterTable(
            p, -1, {((-1, 1),): 1, (): 0},
            (from_digits(p, {-1: 1, 0: 1}), identity(p)),
        )
        negative = Cylinder(p, -1, ((-1, 1),))
        for evaluate in (lambda c: evaluate_cell(table, c), lambda c: loop_evaluate_cell(table, c)):
            with pytest.raises(DigitError):
                evaluate(negative)
        for cell_map in _digit_maps(p, range(-2, 3)):
            cell = Cylinder(p, 2, cell_map)
            assert evaluate_cell(table, cell) == loop_evaluate_cell(table, cell)


def relation_membership(cell, s):
    """The pairwise Cylinder.relation scan the membership index replaced."""
    saw_partial = False
    for cyl in s.cylinders:
        rel = cell.relation(cyl)
        if rel in ("within", "equal"):
            return 1
        if rel == "contains":
            saw_partial = True
    return None if saw_partial else 0


def membership_index(s: PSet):
    """Where cells lie relative to s, answered from truncated digit keys.

    Returns a function of a cell: 1 if the cell is inside s (a cylinder
    of s contains it), None if it straddles s (it strictly contains a
    cylinder of s and lies inside none), else 0.
    """
    index = _NestingIndex(s.cylinders)
    covers, straddled = index.covers, index.straddled

    def locate(cell: Cylinder) -> int | None:
        if covers(cell.digits, cell.resolution):
            return 1
        return None if straddled(cell.resolution, cell.digits) else 0

    return locate


@dataclass
class WalkReport:
    passed: bool
    window: int
    checked_cells: int
    failing_cells: list[dict]
    excluded_mass: Measure
    unresolved_mass: Measure


def walk_two_scale(family, omega_sigma, bank, *, window=None, product_depth=None):
    """The cell walk verify_two_scale used to be: cells of the window are
    split until each identity's two sides are constant on them, and each
    cell is checked on its own.  It also takes truncated spectra, with an
    exclusion ball and an allowance for what they cannot resolve, and
    gives up on cells whose product factors pass MAX_RESOLUTION."""
    p = family.p
    J = omega_sigma.depth
    L = omega_sigma.level
    w_lo = omega_sigma.lowest_fixed
    if window is None:
        window = max(2, 1 - w_lo)
    if window + L > J:
        raise ValueError(f"window {window} too wide for depth {J} at family resolution {L}")
    if window < 1 - w_lo:
        raise ValueError("window does not cover the family's coarse extent")
    if product_depth is None:
        product_depth = J if omega_sigma.resolved is not None else window + L
    if not 0 < product_depth <= J:
        raise ValueError(f"product depth must lie in [1, {J}]")

    phi = membership_index(omega_sigma.spectrum())
    bands = [membership_index(member) for member in family.sets]
    if omega_sigma.resolved is None:
        tail = membership_index(theta_ball(p, w_lo + J))
        two_scale_exclusion = tail
        product_exclusion = tail  # the wider of the two balls
    else:
        two_scale_exclusion = membership_index(empty_set(p))
        product_exclusion = membership_index(theta_ball(p, L + J))

    failing: list[dict] = []
    checked = 0
    excluded = Measure.zero(p)
    unresolved = Measure.zero(p)

    def evaluate(table, cell):
        """(value, hopeless): splitting cannot resolve a lookup that already
        carries the table's full digit prefix, only one that is coarser."""
        if cell.resolution < table.resolution:
            return UNRESOLVED, False
        value = evaluate_cell(table, cell)
        return value, value is UNRESOLVED

    stack = [Cylinder(p, -window, ())]
    while stack:
        cell = stack.pop()
        split = False
        hopeless = False

        exc2 = two_scale_exclusion(cell)
        excp = product_exclusion(cell)
        if exc2 is None or excp is None:
            stack.extend(cell.refine_to(cell.resolution + 1))
            continue

        up = cell.dilate(-1)
        phi_here = phi(cell)
        phi_up = phi(up)
        problems = []

        if exc2 == 0:
            m0_here, m0_hopeless = evaluate(bank.m0, cell)
            if phi_here == 0 and phi_up == 0:
                pass  # 0 = m * 0 regardless of the filter value
            elif phi_here is None or phi_up is None:
                split = True
            elif m0_here is UNRESOLVED:
                if m0_hopeless:
                    hopeless = True
                else:
                    split = True
            elif phi_up != m0_here * phi_here:
                problems.append(
                    {"identity": "two-scale-m0", "lhs": phi_up, "rhs": _render_value(m0_here * phi_here)}
                )
            if not split:
                for u, (table, band) in enumerate(zip(bank.m1, bands), start=1):
                    psi_up = band(up)
                    if phi_here == 0 and psi_up == 0:
                        continue
                    m1_here, m1_hopeless = evaluate(table, cell)
                    if psi_up is None or phi_here is None:
                        split = True
                        break
                    if m1_here is UNRESOLVED:
                        if m1_hopeless:
                            hopeless = True
                            continue
                        split = True
                        break
                    if psi_up != m1_here * phi_here:
                        problems.append(
                            {
                                "identity": f"two-scale-m1[{u}]",
                                "lhs": psi_up,
                                "rhs": _render_value(m1_here * phi_here),
                            }
                        )

        if excp == 0 and not split:
            product = 1
            product_hopeless = False
            for j in range(1, product_depth + 1):
                if cell.resolution + j > MAX_RESOLUTION:
                    factor, factor_hopeless = UNRESOLVED, True
                else:
                    factor, factor_hopeless = evaluate(bank.m0, cell.dilate(j))
                if factor == 0:
                    product = 0
                    break
                if factor is UNRESOLVED:
                    product = UNRESOLVED
                    product_hopeless = factor_hopeless
                    break
                product = product * factor
            if phi_here is None:
                split = True
            elif product is UNRESOLVED:
                if product_hopeless:
                    hopeless = True
                else:
                    split = True
            elif product != phi_here:
                problems.append(
                    {"identity": "low-pass-product", "lhs": _render_value(product), "rhs": phi_here}
                )

        if split:
            if cell.resolution < MAX_RESOLUTION:
                stack.extend(cell.refine_to(cell.resolution + 1))
            else:
                unresolved = unresolved + cell.measure()
            continue
        if hopeless:
            unresolved = unresolved + cell.measure()
            continue

        if exc2 == 1 and excp == 1:
            excluded = excluded + cell.measure()
            continue

        checked += 1
        if problems:
            failing.append({"cell": cell.to_json(), "problems": problems})

    allowance = (
        Measure.zero(p)
        if omega_sigma.resolved is not None
        else Measure.make(1, p, w_lo + J - window - L - 1)
    )
    return WalkReport(
        passed=not failing and unresolved <= allowance,
        window=window,
        checked_cells=checked,
        failing_cells=failing,
        excluded_mass=excluded,
        unresolved_mass=unresolved,
    )


def failure_sets(report, p):
    """The failing cells of a report, one set per (identity, lhs, rhs).

    Entries of one identity are disjoint in both reports, and two disjoint
    cylinder lists hold the same cells at a resolution as fine as any of
    them exactly when their canonical sets are equal, so this compares
    the reports cell by cell without listing p**resolution cells.
    """
    out: dict[tuple, list[Cylinder]] = {}
    for entry in report.failing_cells:
        cell = Cylinder.from_json(p, entry["cell"])
        for problem in entry["problems"]:
            key = (problem["identity"], problem["lhs"], problem["rhs"])
            out.setdefault(key, []).append(cell)
    return {key: PSet(p, cells) for key, cells in out.items()}


def _flipped(table):
    return FilterTable(
        table.p, table.resolution, {cell: 1 - v for cell, v in table.values.items()}, table.candidates
    )


class TestTwoScaleWalk:
    FAMILIES = ["shannon2", "shannon3", "shannon5", "three-shell2", "coset-shuffle3"]

    @pytest.mark.parametrize("variant", ["correct", "m0-flipped", "m1-flipped", "short-product"])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_failures_match_the_cell_walk(self, name, variant):
        family = family_named(name)
        p = family.p
        decided = 0
        for J in range(1, 11):
            sigma = accumulate_omega_sigma(family, J)
            if sigma.resolved is None or max(2, 1 - sigma.lowest_fixed) + sigma.level > J:
                continue
            bank = build_filters(family, sigma)
            m0, m1 = bank.m0, bank.m1
            if variant == "m0-flipped":
                m0 = _flipped(m0)
            elif variant == "m1-flipped":
                m1 = (*m1[:-1], _flipped(m1[-1]))
            bank = FilterBank(p, bank.resolution, m0, m1)
            depth = 1 if variant == "short-product" else None
            got = verify_two_scale(family, sigma, bank, product_depth=depth)
            want = walk_two_scale(family, sigma, bank, product_depth=depth)
            assert failure_sets(got, p) == failure_sets(want, p), J
            assert got.passed == want.passed == (variant == "correct"), J
            assert want.unresolved_mass == 0 == got.unresolved_mass
            decided += 1
        assert decided >= 6


def _two_scale_inputs(name):
    if name in ("shannon2", "shannon3", "shannon5"):
        family, sigma, _, bank = shannon_pipeline(int(name[-1]))
        return family, sigma, bank
    if name.startswith("shannon2"):
        family, depth = shannon_family(2), 3
    else:
        family, depth = three_shell_family(), 8 if name.endswith("truncated") else 6
    sigma = accumulate_omega_sigma(family, depth)
    if name.endswith("truncated"):
        sigma.resolved = None
        return family, sigma, _truncated_bank(family, depth)
    return family, sigma, build_filters(family, sigma)


class TestMembershipIndex:
    """The reference walk's lookups against the pairwise relation scan."""

    NAMES = [
        "shannon2", "shannon3", "shannon5", "three-shell2", "three-shell2-truncated",
        "shannon2-truncated",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_walk_matches_relation_scan(self, name, monkeypatch):
        # Every lookup the two-scale walk makes (spectrum, members,
        # exclusion balls) is checked against the pairwise scan.
        index = membership_index
        seen = []

        def checked(s):
            locate = index(s)

            def answer(cell):
                got = locate(cell)
                assert got == relation_membership(cell, s), (cell, s)
                seen.append(got)
                return got

            return answer

        monkeypatch.setattr(sys.modules[__name__], "membership_index", checked)
        family, sigma, bank = _two_scale_inputs(name)
        report = walk_two_scale(family, sigma, bank)
        assert report.passed
        assert set(seen) == {0, 1, None}

    @pytest.mark.parametrize("name", NAMES)
    def test_random_cells_match_relation_scan(self, name):
        family, sigma, _ = _two_scale_inputs(name)
        p = family.p
        gen = random.Random(f"membership-{name}")
        sets = [sigma.spectrum(), *family.sets, theta_ball(p, sigma.level + sigma.depth)]
        for s in sets:
            locate = membership_index(s)
            outcomes = set()
            for _ in range(300):
                r = gen.randrange(-3, s.max_resolution + 5)
                if gen.random() < 0.5:
                    # Derived from a member: a truncation, the member, or a
                    # sub-cell of it.
                    c = gen.choice(s.cylinders)
                    digits = tuple((pos, d) for pos, d in c.digits if pos <= r)
                    digits += tuple(
                        (pos, d)
                        for pos in range(c.resolution + 1, r + 1)
                        if (d := gen.randrange(p))
                    )
                else:
                    digits = tuple(
                        (pos, d) for pos in range(-4, r + 1) if (d := gen.randrange(p))
                    )
                cell = Cylinder(p, r, digits)
                got = locate(cell)
                assert got == relation_membership(cell, s), cell
                outcomes.add(got)
            assert outcomes >= {0, 1} and (None in outcomes or len(s.cylinders) == 1)


# -- the fixed-point depth and the resolution cap ---------------------------------

SHIPPED_PASS = ["shannon2", "shannon3", "shannon5", "three-shell2"]
SEARCH_WINDOWS = [
    (2, (0, 1)), (2, (-1, 1)), (2, (0, 2)), (2, (-1, 2)), (2, (-2, 2)), (2, (0, 3)),
    (2, (-1, 3)), (3, (0, 1)), (3, (-1, 1)),
]


def bound_families():
    """The shipped PASS families and every family the small searches find."""
    found = {}
    for p, window in SEARCH_WINDOWS:
        for family in search_wavelet_sets(p, window).families:
            found.setdefault((p, family.sets), family)
    return [family_named(n) for n in SHIPPED_PASS] + list(found.values())


class TestFixedPointBound:
    def test_resolved_from_l_minus_w(self):
        # check_mra_condition's docstring proves the spectrum resolved at
        # every J >= L - w, and only a resolved spectrum can PASS.
        families = bound_families()
        assert len(families) >= 30
        attained = 0
        for family in families:
            union = family.union()
            L, w = union.max_resolution, union.min_fixed_position
            first = None
            for J in range(1, L - w + 9):
                sigma = accumulate_omega_sigma(family, J)
                if sigma.resolved is not None and first is None:
                    first = J
                assert (sigma.resolved is not None) == (first is not None), (family.sets, J)
                assert first is not None or not check_mra_condition(sigma).passed
            assert first <= max(L - w, 1), family.sets
            attained += first == L - w
        assert attained > 0  # the bound is tight


def pipeline_results(family, J):
    """Every MRA verdict at depth J, as comparable reports."""
    sigma = accumulate_omega_sigma(family, J)
    mra = check_mra_condition(sigma)
    bank = build_filters(family, sigma, mra=mra)
    return (
        sigma,
        mra,
        bank,
        verify_filter_identities(bank, 8),
        verify_calderon(family, sigma),
        verify_two_scale(family, sigma, bank),
    )


def test_verdicts_do_not_depend_on_the_cap(monkeypatch):
    # Lowering the cap to 8, below the truncations of depths 8 to 20,
    # changes no report: spectra, MRA tables, filters and the level-8
    # identities, Calderon and two-scale at every depth from 6 to 20.
    from vilenkin_wavelets import setalg
    from vilenkin_wavelets.famio import parse_family_file

    root = pathlib.Path(__file__).resolve().parent.parent / "families"
    families = [parse_family_file(str(root / f"{n}.json")) for n in SHIPPED_PASS]
    depths = range(6, 21)
    want = [pipeline_results(f, J) for f in families for J in depths]
    monkeypatch.setattr(setalg, "MAX_RESOLUTION", 8)
    got = [pipeline_results(f, J) for f in families for J in depths]
    assert got == want
    assert all(r[1].passed and r[3].passed and r[4].passed and r[5].passed for r in got)


# -- the depth-J spectrum read off the fixed point vs. the union of dilates -------


def union_of_dilates(family, J):
    """The depth-J truncation as the direct union of the dilates 1..J."""
    union = family.union()
    return PSet(family.p, (c.dilate(j) for j in range(1, J + 1) for c in union.cylinders))


def two_pass_mra_condition(omega_sigma):
    """The truncation's table and witnesses, then the exact spectrum's
    overlaps, each computed by intersecting the set with its translates."""
    p = omega_sigma.p
    rows, witnesses = [], []
    exact = omega_sigma.resolved
    passes = [(omega_sigma.truncated, False)]
    if exact is not None:
        passes.append((exact, True))
    for S, tail in passes:
        for n in _translation_candidates(S, p):
            if n.is_identity:
                if not tail:
                    rows.append(MraRow(0, S.measure()))
                continue
            overlap = S.intersect(S.translate(n))
            m = overlap.measure()
            if not tail:
                rows.append(MraRow(lambda_encode(n), m))
            if m > 0:
                witness = {
                    "lattice_index": lambda_encode(n),
                    "measure": m.exact_string(),
                    "cell": min(overlap.cylinders, key=Cylinder.sort_key).to_json(),
                }
                if tail:
                    witness["tail"] = True
                witnesses.append(witness)
    status = "FAIL" if witnesses else "PASS" if exact is not None else "INCONCLUSIVE"
    return MraReport(
        status=status,
        certified=status != "INCONCLUSIVE",
        certification="self-similar-fixed-point" if exact is not None else None,
        depth=omega_sigma.depth,
        rows=rows,
        witnesses=witnesses,
    )


class TestSpectrumFromTheFixedPoint:
    @pytest.mark.parametrize("name", SHIPPED_PASS + ["coset-shuffle3"])
    def test_matches_the_union_of_dilates(self, name):
        family = family_named(name)
        p, union = family.p, family.union()
        w = union.min_fixed_position
        statuses = set()
        for J in range(1, 41):
            sigma = accumulate_omega_sigma(family, J)
            truncated = union_of_dilates(family, J)
            assert sigma.truncated == truncated, J
            candidate = truncated.union(theta_ball(p, w + J))
            image = union.dilate(1).union(candidate.dilate(1))
            assert sigma.resolved == (candidate if image == candidate else None), J
            mra = check_mra_condition(sigma)
            assert mra == two_pass_mra_condition(sigma), J
            statuses.add(mra.status)
        assert "PASS" in statuses

    @pytest.mark.parametrize("resolved", ["none", "same", "wider", "overlapping"])
    def test_failing_spectrum_matches_two_passes(self, resolved):
        # The spectrum of test_translate_overlap_fails: two cells a lattice
        # shift apart.  With an exact spectrum that overlaps too, the
        # truncation's witnesses come before the "tail" ones.
        p = 2
        cells = [Cylinder(p, 1, ()), Cylinder(p, 1, ((0, 1),))]
        spectrum = PSet(p, cells, validate=False)
        truncated = spectrum
        exact = {
            "none": None,
            "same": spectrum,
            "wider": spectrum.union(PSet(p, [Cylinder(p, 2, ((-1, 1), (1, 1)))])),
            "overlapping": spectrum,
        }[resolved]
        if resolved == "overlapping":
            truncated = PSet(p, cells[:1])  # no overlap of its own
        sigma = OmegaSigma(
            p=p, depth=6, truncated=truncated, level=1, lowest_fixed=0, resolved=exact,
        )
        got = check_mra_condition(sigma)
        assert got == two_pass_mra_condition(sigma)
        assert got.status == "FAIL" and got.witnesses
        assert any("tail" in w for w in got.witnesses) == (exact is not None)
        assert any("tail" not in w for w in got.witnesses) == (resolved != "overlapping")

    def test_unresolved_spectrum_matches_two_passes(self):
        p = 2
        spectrum = PSet(p, [Cylinder(p, 3, ((1, 1),))], validate=False)
        sigma = OmegaSigma(
            p=p, depth=2, truncated=spectrum, level=3, lowest_fixed=1, resolved=None,
        )
        got = check_mra_condition(sigma)
        assert got == two_pass_mra_condition(sigma) and got.status == "INCONCLUSIVE"

    def test_a_spectrum_off_the_fixed_point_is_refused(self, monkeypatch):
        # The proof in check_mra_condition's docstring rules this out; the
        # deeper truncation is read off the fixed point only when it is one.
        from vilenkin_wavelets import mra

        family = shannon_family(2)
        monkeypatch.setattr(mra, "_fixed_point", lambda *args: None)
        assert accumulate_omega_sigma(family, 1).resolved is None
        with pytest.raises(VilenkinError, match="not the fixed point at depth 1"):
            accumulate_omega_sigma(family, 2)
