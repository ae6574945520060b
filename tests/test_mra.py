import cmath
import itertools
import random
from fractions import Fraction

import pytest

from vilenkin_wavelets.errors import DigitError, ResolutionCapError, VilenkinError
from vilenkin_wavelets.group import from_digits, identity, lambda_decode
from vilenkin_wavelets.mra import (
    UNRESOLVED,
    FilterBank,
    FilterIdentityReport,
    FilterTable,
    accumulate_omega_sigma,
    build_filters,
    check_mra_condition,
    verify_calderon,
    verify_filter_identities,
    verify_two_scale,
)
from vilenkin_wavelets.setalg import Cylinder, Measure, PSet, theta_ball, unit_cell
from vilenkin_wavelets.verifier import shannon_family

from .families import three_shell_family
from .mutants import mutants_for


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
        assert sigma.self_similar_tail_resolved
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
            resolved=None, self_similar_tail_resolved=False,
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
            resolved=None, self_similar_tail_resolved=False,
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
        assert sigma.self_similar_tail_resolved
        assert sigma.resolved.measure() == 1
        assert sigma.resolved != unit_cell(2)  # not the Shannon spectrum

        mra = check_mra_condition(sigma)
        assert mra.status == "PASS" and mra.certified
        bank = build_filters(family, sigma, mra=mra)
        assert verify_filter_identities(bank, 4).passed
        assert verify_two_scale(family, sigma, bank).passed
        assert verify_calderon(family, sigma).passed

    def test_truncated_filters_and_two_scale(self):
        # Forcing the truncated route end to end: identity checks run at
        # the truncation resolution and skip exactly the tail ball; the
        # product check self-limits to the shells a truncation resolves.
        from .families import three_shell_family

        family = three_shell_family()
        sigma = accumulate_omega_sigma(family, 8)
        sigma.resolved = None
        sigma.self_similar_tail_resolved = False
        mra = check_mra_condition(sigma)
        assert mra.status == "PASS"
        bank = build_filters(family, sigma, mra=mra)

        identities = verify_filter_identities(bank, bank.resolution)
        assert identities.passed
        assert identities.skipped_cells > 0
        assert identities.skipped_mass <= bank.unresolved_allowance

        two_scale = verify_two_scale(family, sigma, bank)
        assert two_scale.passed
        assert not two_scale.failing_cells
        assert two_scale.unresolved_mass > 0  # honest truncation accounting

    def test_truncated_path_certifies_with_depth_guard(self):
        # Forcing the truncated route: the family pins a digit at a
        # negative position, so the depth threshold alone is not enough
        # and certification needs the extra soundness margin.
        from .families import three_shell_family

        family = three_shell_family()
        statuses = {}
        for depth in (3, 4, 5, 6, 8):
            sigma = accumulate_omega_sigma(family, depth)
            sigma.resolved = None
            sigma.self_similar_tail_resolved = False
            statuses[depth] = check_mra_condition(sigma).status
        assert statuses[3] == "INCONCLUSIVE"
        assert statuses[4] == "INCONCLUSIVE"  # threshold alone insufficient
        assert statuses[8] == "PASS"
        # Once certified, deeper never flips the verdict.
        certified_seen = False
        for depth in sorted(statuses):
            if statuses[depth] == "PASS":
                certified_seen = True
            if certified_seen:
                assert statuses[depth] == "PASS"


class TestNonShannonFamilies:
    def _coset_shuffle(self):
        # A verified p=3 family that mixes lattice cosets inside each
        # member; its union is still the full unit shell.
        from vilenkin_wavelets.verifier import search_wavelet_sets

        families = search_wavelet_sets(3, (0, 1)).families
        shannon = shannon_family(3)
        return next(f for f in families if f.sets != shannon.sets)

    def test_full_pipeline(self):
        family = self._coset_shuffle()
        sigma = accumulate_omega_sigma(family, 6)
        assert sigma.self_similar_tail_resolved
        mra = check_mra_condition(sigma)
        assert mra.status == "PASS" and mra.certified
        bank = build_filters(family, sigma, mra=mra)
        assert verify_filter_identities(bank, 4).passed
        assert verify_two_scale(family, sigma, bank).passed
        assert verify_calderon(family, sigma).passed

    def test_row_measures_are_quantized(self):
        # Every reported intersection measure is an integer multiple of
        # p^-(L+J): the scale never exceeds the refinement the data has.
        family = self._coset_shuffle()
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
        assert bank.m0.evaluate_cell(zero_cell) == 0
        assert bank.m0.evaluate_cell(one_cell) == 1

    def test_periodicity(self):
        _, _, _, bank = shannon_pipeline(3)
        cell = Cylinder(3, 2, ((1, 2), (2, 1)))
        base = bank.m0.evaluate_cell(cell)
        for lam in range(6):
            shifted = cell.translate(lambda_decode(lam, 3))
            assert bank.m0.evaluate_cell(shifted) == base

    def test_point_evaluation(self):
        _, _, _, bank = shannon_pipeline(2)
        omega = from_digits(2, {1: 1, 5: 1})
        assert bank.m0.evaluate_point(omega) == 0
        omega2 = from_digits(2, {2: 1})
        assert bank.m0.evaluate_point(omega2) == 1

    def test_unresolved_outside_domain(self):
        p = 2
        family = shannon_family(p)
        sigma = accumulate_omega_sigma(family, 3)
        # Forget the resolved tail to exercise the truncated lookup path.
        sigma.resolved = None
        sigma.self_similar_tail_resolved = False
        bank = build_filters(family, sigma, mra=check_mra_condition(sigma))
        deep = Cylinder(p, 6, ((6, 1),))  # inside the unresolved tail ball
        assert bank.m0.evaluate_cell(deep) is UNRESOLVED

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
            resolved=None, self_similar_tail_resolved=False,
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
            unresolved_allowance=bank.unresolved_allowance,
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
            unresolved_allowance=bank.unresolved_allowance,
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
            unresolved_allowance=bank.unresolved_allowance,
        )
        report = verify_two_scale(family, sigma, broken)
        assert not report.passed
        assert report.failing_cells

    def test_window_validation(self):
        family, sigma, _, bank = shannon_pipeline(2, depth=3)
        with pytest.raises(ValueError):
            verify_two_scale(family, sigma, bank, window=5)


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
        passed=not failing and skipped_mass <= bank.unresolved_allowance and agree,
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
        unresolved_allowance=bank.unresolved_allowance,
    )


def _truncated_bank(family, depth):
    sigma = accumulate_omega_sigma(family, depth)
    sigma.resolved = None
    sigma.self_similar_tail_resolved = False
    return build_filters(family, sigma, mra=check_mra_condition(sigma))


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
        return FilterBank(p, 0, ones, (zeros,), Measure.zero(p))
    bank = shannon_pipeline(2)[3]
    if name == "constant-ones":
        return _with_m0(bank, {cell: 1 for cell in bank.m0.values})
    phase = cmath.exp(0.3j)  # phase-twisted
    return _with_m0(bank, {cell: phase * v for cell, v in bank.m0.values.items()})


BANKS = [
    "shannon2", "shannon3", "shannon5", "three-shell2", "three-shell2-truncated",
    "shannon2-truncated", "constant-ones", "phase-twisted", "resolution-0",
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
                    value = table.evaluate_cell(cell)
                    assert value == loop_evaluate_cell(table, cell), cell
                    seen.add(value is UNRESOLVED)
            for _ in range(300):
                digits = {pos: gen.randrange(p) for pos in range(-3, r + 6)}
                omega = from_digits(p, digits)
                assert table.evaluate_point(omega) == loop_evaluate_point(table, omega)
        if "truncated" in name:
            assert seen == {True, False}

    def test_lookup_errors_match(self):
        bank = shannon_pipeline(3)[3]
        coarse = Cylinder(3, 0, ((0, 2),))
        for evaluate in (bank.m0.evaluate_cell, lambda c: loop_evaluate_cell(bank.m0, c)):
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
        for evaluate in (table.evaluate_cell, lambda c: loop_evaluate_cell(table, c)):
            with pytest.raises(DigitError):
                evaluate(negative)
        for cell_map in _digit_maps(p, range(-2, 3)):
            cell = Cylinder(p, 2, cell_map)
            assert table.evaluate_cell(cell) == loop_evaluate_cell(table, cell)


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
        sigma.self_similar_tail_resolved = False
    return family, sigma, build_filters(family, sigma, mra=check_mra_condition(sigma))


class TestMembershipIndex:
    NAMES = [
        "shannon2", "shannon3", "shannon5", "three-shell2", "three-shell2-truncated",
        "shannon2-truncated",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_walk_matches_relation_scan(self, name, monkeypatch):
        # Every lookup the two-scale walk makes (spectrum, members,
        # exclusion balls) is checked against the pairwise scan.
        import vilenkin_wavelets.mra as mra_module

        index = mra_module._membership_index
        seen = []

        def checked(s):
            locate = index(s)

            def answer(cell):
                got = locate(cell)
                assert got == relation_membership(cell, s), (cell, s)
                seen.append(got)
                return got

            return answer

        monkeypatch.setattr(mra_module, "_membership_index", checked)
        family, sigma, bank = _two_scale_inputs(name)
        report = verify_two_scale(family, sigma, bank)
        assert report.passed
        assert set(seen) == {0, 1, None}

    @pytest.mark.parametrize("name", NAMES)
    def test_random_cells_match_relation_scan(self, name):
        from vilenkin_wavelets.mra import _membership_index

        family, sigma, _ = _two_scale_inputs(name)
        p = family.p
        gen = random.Random(f"membership-{name}")
        sets = [sigma.spectrum(), *family.sets, theta_ball(p, sigma.level + sigma.depth)]
        for s in sets:
            locate = _membership_index(s)
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
