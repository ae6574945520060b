import dataclasses
import functools
import itertools
import pathlib
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from vilenkin_wavelets.errors import DigitError, VilenkinError
from vilenkin_wavelets.famio import family_from_document
from vilenkin_wavelets.group import from_digits, lambda_decode, lambda_encode
from vilenkin_wavelets.mra import (
    CalderonReport,
    FilterBank,
    MraReport,
    MraRow,
    OmegaSigma,
    _fixed_point,
    _fold,
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

from .families import coset_shuffle_family, family_named, three_shell_family
from .mutants import mutants_for
from .oracle import cylinder_integer_part, cylinder_relation, set_contains_point
from .test_filter_oracle import assert_identities_match


#: The families of the J = 1..40 sweeps.
SWEEP = ["shannon2", "shannon3", "shannon5", "three-shell2", "coset-shuffle3"]


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

    @pytest.mark.parametrize("resolved", [False, True])
    def test_coarse_cylinder_has_no_integer_part(self, resolved):
        # A truncation holding a resolution -1 cylinder, which spans two
        # integer parts: the table is refused, resolved or not.
        p = 2
        truncated = PSet(p, [Cylinder(p, -1, ((-1, 1),)), Cylinder(p, 2, ((2, 1),))])
        sigma = OmegaSigma(
            p=p, depth=1, truncated=truncated, level=2, lowest_fixed=-1,
            resolved=truncated if resolved else None,
        )
        with pytest.raises(DigitError, match=r"^integer part requires resolution >= 0$"):
            check_mra_condition(sigma)

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
        # report, tables built by hand on the truncation are all zero on
        # the fold of the tail ball and fail the identities there, and the
        # two-scale check refuses.
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

        bank = _bank("three-shell2-truncated")
        identities = verify_filter_identities(bank, bank.resolution)
        assert not identities.passed and identities.formulations_agree
        gaps = [e for e in identities.failing_cells if e["formulation"] == "rows"]
        assert gaps and all(e["count"] == 0 for e in gaps)
        missed = PSet(2, [Cylinder.from_json(2, e["cell"]) for e in gaps])
        assert missed.measure() == sigma.tail_bound()  # Omega - T folds onto the gap

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
        rows = bank.to_json()["rows"]
        assert len(rows) == p**bank.resolution
        for row in rows:
            cyl = Cylinder.from_json(p, row["cell"])
            inside = any(cylinder_relation(cyl, c) != "disjoint" for c in first.cylinders)
            assert row["m0"] == (0 if inside else 1)
        assert bank.m0 == unit_cell(p).difference(first)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_partition_of_unity_on_spectrum(self, p):
        _, _, _, bank = shannon_pipeline(p)
        for row in bank.to_json()["rows"]:
            assert row["m0"] + sum(row["m1"]) == 1
        total = empty_set(p)
        for table in bank.all_tables():
            assert total.intersect(table).is_empty
            total = total.union(table)
        assert total == unit_cell(p)

    @pytest.mark.parametrize("p", [3, 5])
    def test_band_filters_have_disjoint_support(self, p):
        _, _, _, bank = shannon_pipeline(p)
        for row in bank.to_json()["rows"]:
            assert sum(row["m1"]) <= 1
        for a, b in itertools.combinations(bank.m1, 2):
            assert a.intersect(b).is_empty

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
        # built by hand on the truncation are zero in the tail ball.
        p = 2
        family = shannon_family(p)
        sigma = accumulate_omega_sigma(family, 3)
        sigma.resolved = None
        assert check_mra_condition(sigma).status == "INCONCLUSIVE"
        with pytest.raises(VilenkinError):
            build_filters(family, sigma)
        bank = _bank("shannon2-truncated")
        deep = Cylinder(p, 6, ((6, 1),))  # inside the unresolved tail ball
        assert [evaluate_cell(t, deep) for t in bank.all_tables()] == [0, 0]
        assert evaluate_cell(bank.m0, Cylinder(p, 6, ((2, 1),))) == 1

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
        assert not report.failing_cells
        assert report.formulations_agree

    def test_constant_filter_fails_everywhere(self):
        # m0 = 1 everywhere: its column sums to 2 on every cell, and the
        # rows meet m1 twice on m1's own half.
        p = 2
        _, _, _, bank = shannon_pipeline(p)
        broken = dataclasses.replace(bank, m0=unit_cell(p))
        report = verify_filter_identities(broken, 3)
        assert not report.passed and report.formulations_agree
        assert report.failing_cells == [
            {
                "formulation": "columns", "table": "m0",
                "cell": {"resolution": 0, "digits": {}}, "count": 2, "cells": "2^3",
            },
            {
                "formulation": "rows",
                "cell": {"resolution": 1, "digits": {"1": 1}}, "count": 2, "cells": "2^2",
            },
        ]


class TestTwoScale:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shannon_identities_hold(self, p):
        family, sigma, _, bank = shannon_pipeline(p)
        report = verify_two_scale(family, sigma, bank)
        assert report.passed
        assert not report.failing_cells

    def test_broken_filter_detected(self):
        p = 2
        family, sigma, _, bank = shannon_pipeline(p)
        broken = dataclasses.replace(bank, m0=_flipped(bank.m0))
        report = verify_two_scale(family, sigma, broken)
        assert not report.passed
        assert report.failing_cells

    def test_window_validation(self):
        # The window must hold the family; it needs no bound in the depth.
        family, sigma, _, bank = shannon_pipeline(2, depth=3)
        with pytest.raises(ValueError, match="coarse extent"):
            verify_two_scale(family, sigma, bank, window=0)
        assert verify_two_scale(family, sigma, bank, window=5).passed

    @pytest.mark.parametrize("name", SWEEP)
    def test_passes_at_every_depth_to_forty(self, name):
        # From the first depth where the spectrum resolves to J = 40, far
        # past MAX_RESOLUTION, every verdict holds at every depth,
        # two-scale included from the first resolved one.
        family = family_named(name)
        p = family.p
        resolved = []
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
            assert identities.passed and not identities.failing_cells, J
            assert verify_calderon(family, sigma).passed, J
            report = verify_two_scale(family, sigma, bank)
            assert report.passed and not report.failing_cells, J
            assert report.checked_cells > 0
            resolved.append(J)
        assert resolved == list(range(resolved[0], 41)) and resolved[0] <= 4

    @pytest.mark.parametrize("name", SWEEP)
    def test_same_sets_at_every_depth(self, name):
        # No identity involves the depth: the reports, and the sets behind
        # them, are the same at J = 4 and J = 200.  They are the cell
        # walk's with the product to window + table resolution, and with
        # terms past that, which repeat the last one.
        family = family_named(name)
        reports = []
        for J in (4, 200):
            sigma = accumulate_omega_sigma(family, J)
            bank = build_filters(family, sigma)
            for m0 in (bank.m0, _flipped(bank.m0)):
                broken = dataclasses.replace(bank, m0=m0)
                report = verify_two_scale(family, sigma, broken)
                last = report.window + bank.resolution
                for depth in (last, last + 1, last + 5):
                    walk = walk_two_scale(family, sigma, broken, product_depth=depth)
                    assert failure_sets(walk, family.p) == failure_sets(report, family.p)
                    assert walk.unresolved_mass == 0
                reports.append(report)
        assert reports[:2] == reports[2:]
        assert reports[0].passed and not reports[1].passed

    @pytest.mark.parametrize("w,n", [(-10, 24), (-12, 30)])
    def test_cost_free_of_the_coarse_extent(self, w, n):
        # The p = 2 PASS family whose union reaches down to position w.
        # Two-scale once listed 2**-w integer parts per table: 1.9 s at
        # w = -10 and 21 s at w = -12 on a 2-core machine, about 0.02 s
        # as iterated refinement steps.
        document = gen.pass_family(random.Random(5), 2, 2 - w, w, n).document()
        family = family_from_document(document)
        sigma = accumulate_omega_sigma(family, family.union().max_resolution - w)
        bank = build_filters(family, sigma)
        start = time.perf_counter()
        report = verify_two_scale(family, sigma, bank)
        assert time.perf_counter() - start < 0.5
        assert report.passed and report.window == 1 - w

    @pytest.mark.parametrize("name", ["shannon2-truncated"])
    def test_refuses_what_it_cannot_decide(self, name):
        # A truncated spectrum has no exact equations.
        family = shannon_family(2)
        sigma = accumulate_omega_sigma(family, 3)
        sigma.resolved = None
        with pytest.raises(ValueError):
            verify_two_scale(family, sigma, _bank(name))

    def test_level_sets_split_the_unit_cell(self):
        # The bands are the first dilates of the members, folded onto the
        # unit cell, and the low-pass is one on the rest of it.
        family, _, _, bank = shannon_pipeline(3)
        assert list(bank.m1) == [s.dilate(1) for s in family.sets]
        zero = unit_cell(3).difference(bank.m0)
        assert zero == family.union().dilate(1)
        assert bank.m0.intersect(zero).is_empty


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

    @pytest.mark.parametrize("name", SWEEP)
    def test_reports_match_the_union_of_dilates(self, name):
        # Every field, at every depth to 40, as the check that unioned the
        # dilates 1 to J + 2 reported it.
        family = family_named(name)
        for J in range(1, 41):
            sigma = accumulate_omega_sigma(family, J)
            assert verify_calderon(family, sigma) == dilate_union_calderon(family, sigma), J

    @pytest.mark.parametrize("name", SWEEP)
    def test_no_dilate_past_the_settle_depth(self, name, monkeypatch):
        # The dilates of the family are built to max(L - w, 1) + 2 at any
        # depth, and the set operations that follow dilate the closed
        # spectrum the same number of times at J = 12 and J = 200.
        from vilenkin_wavelets import mra

        family = family_named(name)
        union = family.union()
        settle = max(union.max_resolution - union.min_fixed_position, 1) + 2
        sigmas = {J: accumulate_omega_sigma(family, J) for J in (12, 200)}
        built, calls = [], []
        dilates, dilate = mra._dilates, Cylinder.dilate

        def counted_dilates(u, depth):
            built.append(depth)
            return dilates(u, depth)

        def counted(c, k):
            calls.append(k)
            return dilate(c, k)

        monkeypatch.setattr(mra, "_dilates", counted_dilates)
        monkeypatch.setattr(Cylinder, "dilate", counted)
        counts = {}
        for J, sigma in sigmas.items():
            calls.clear()
            assert verify_calderon(family, sigma).passed
            counts[J] = len(calls)
        assert built == [settle, settle]
        assert counts[12] == counts[200]

    @pytest.mark.parametrize("name", SWEEP)
    def test_wrong_truncations_fail(self, name):
        # One cylinder dropped, the truncation one level short, and one
        # level too deep (it covers the spectrum with the J-th dilate of
        # it, but overlaps it): each reported at depth J.
        family = family_named(name)
        for J in (2, 7, 40):
            sigma = accumulate_omega_sigma(family, J)
            truncated = sigma.truncated
            for i in range(len(truncated.cylinders)):
                sigma.truncated = PSet(family.p, truncated.cylinders[:i] + truncated.cylinders[i + 1:])
                report = verify_calderon(family, sigma)
                assert not report.passed and report.pieces_disjoint, (J, i)
                assert report.symmetric_difference > report.tail_allowance, (J, i)
            for other in (J - 1, J + 1):
                sigma.truncated = accumulate_omega_sigma(family, other).truncated
                assert not verify_calderon(family, sigma).passed, (J, other)

    @pytest.mark.parametrize("name", SWEEP)
    def test_corrupted_fixed_point_never_passes(self, name, monkeypatch):
        # The closed spectrum with any one of its cylinders dropped.
        from vilenkin_wavelets import mra

        family = family_named(name)
        sigmas = [accumulate_omega_sigma(family, J) for J in (1, 4, 12, 40)]
        closed = mra._fixed_point
        for i in range(len(sigmas[-1].resolved.cylinders)):  # the spectrum it closes
            def dropped(*args, i=i):
                cylinders = closed(*args).cylinders
                return PSet(family.p, cylinders[:i] + cylinders[i + 1:])

            monkeypatch.setattr(mra, "_fixed_point", dropped)
            for sigma in sigmas:
                report = verify_calderon(family, sigma)
                assert not report.passed and not report.pieces_disjoint, (i, sigma.depth)


def dilate_union_calderon(family, omega_sigma):
    """The Calderon check that recomputed the truncation from the dilates
    1 to J + 2 and summed the measures of the members' dilates 1 to J."""
    p = family.p
    J = omega_sigma.depth
    union = family.union()
    deeper = PSet(p, (c.dilate(j) for j in range(1, J + 3) for c in union.cylinders))
    T = omega_sigma.truncated
    sym = T.difference(deeper).union(deeper.difference(T)).measure()
    allowance = Fraction(1, p**J) - Fraction(1, p ** (J + 2))
    total = Measure.zero(p)
    for s in family.sets:
        for j in range(1, J + 1):
            total = total + s.dilate(j).measure()
    pieces_disjoint = total == T.measure()
    return CalderonReport(
        passed=sym.as_fraction() <= allowance and pieces_disjoint,
        truncation_measure=T.measure(),
        recomputed_measure=deeper.measure(),
        symmetric_difference=sym,
        tail_allowance=allowance,
        pieces_disjoint=pieces_disjoint,
    )


# -- level-set lookups and the identities vs. brute-force references --------------


@functools.lru_cache(maxsize=None)
def _index(s):
    return _NestingIndex(s.cylinders), _integer_parts(s)


def evaluate_cell(table, cell):
    """A level set's value, 0 or 1, on a cell at least as fine as its
    cylinders, read from the cell's fractional digits."""
    fraction = tuple((pos, d) for pos, d in cell.digits if pos > 0)
    return int(_index(table)[0].covers(fraction, cell.resolution))


def evaluate_point(table, omega):
    """A level set's value at a single dual point."""
    fraction = {pos: d for pos, d in omega.support() if pos > 0}
    return int(set_contains_point(table, from_digits(table.p, fraction)))


def _inside(cell, s):
    return _index(s)[0].covers(cell.digits, cell.resolution)


def loop_evaluate_cell(spectrum, value, cell):
    """Shift the cell onto each integer part of the spectrum in turn; the
    first shifted cell inside the spectrum gives the value, whether it
    lies in the value set, and a cell no shift moves into the spectrum
    has value 0.  None means the latter."""
    q_int = cylinder_integer_part(cell)
    for base in _index(spectrum)[1]:
        shifted = cell.translate(q_int.subtract(base).negate())
        if _inside(shifted, spectrum):
            return int(_inside(shifted, value))
    return None


def loop_evaluate_point(spectrum, value, omega):
    q_int = from_digits(spectrum.p, {j: d for j, d in omega.support() if j <= 0})
    for base in _index(spectrum)[1]:
        shifted = omega.subtract(q_int.subtract(base))
        if set_contains_point(spectrum, shifted):
            return int(set_contains_point(value, shifted))
    return None


def _digit_maps(p, positions):
    for combo in itertools.product(range(p), repeat=len(positions)):
        yield tuple((pos, d) for pos, d in zip(positions, combo) if d)


#: Bank name: (family, depth) of the spectrum its tables are folded from;
#: a truncated bank uses the depth-J truncation, not the exact spectrum.
SOURCES = {
    "shannon2": ("shannon2", 8), "shannon3": ("shannon3", 8), "shannon5": ("shannon5", 8),
    "three-shell2": ("three-shell2", 6), "three-shell2-truncated": ("three-shell2", 8),
    "shannon2-truncated": ("shannon2", 3), "constant-ones": ("shannon2", 8),
}


def _spectrum_values(name):
    """(p, table resolution, spectrum, the parts of the spectrum where
    m0, m1_1, .. are one) of a named bank."""
    if name == "resolution-0":
        # Constant on resolution-0 cells: the rotation at position 1 still
        # needs the tables at resolution 1.
        return 2, 0, unit_cell(2), [unit_cell(2), empty_set(2)]
    family_name, depth = SOURCES[name]
    family = family_named(family_name)
    sigma = accumulate_omega_sigma(family, depth)
    spectrum = sigma.truncated if name.endswith("truncated") else sigma.resolved
    first = [s.dilate(1) for s in family.sets]
    m0 = spectrum if name == "constant-ones" else spectrum.difference(family.union().dilate(1))
    r = max([1, spectrum.max_resolution] + [s.max_resolution for s in first])
    return family.p, r, spectrum, [m0, *first]


def _bank(name):
    """The named bank: each table folded onto the unit cell from the part
    of the spectrum where it is one, as build_filters folds it.  Tables
    folded from a truncation are all zero on the fold of the tail ball."""
    p, r, spectrum, values = _spectrum_values(name)
    m0, *m1 = (_fold(v) for v in values)
    return FilterBank(p, r, spectrum, m0, tuple(m1))


BANKS = [
    "shannon2", "shannon3", "shannon5", "three-shell2", "three-shell2-truncated",
    "shannon2-truncated", "constant-ones", "resolution-0",
]


class TestTableResolutionWalk:
    @pytest.mark.parametrize("extra", [0, 1, 3])
    @pytest.mark.parametrize("name", BANKS)
    def test_report_matches_per_level_walk(self, name, extra):
        # The oracle walks every resolution-level cell with its p x p matrix.
        bank = _bank(name)
        level = max(bank.resolution, 1) + extra
        got = assert_identities_match(bank, level)
        assert got.passed == (name in BANKS[:4])

    def test_inputs_cover_every_outcome(self):
        # The differential inputs reach passing banks and defects of both
        # formulations, of counts 0 and above 1, coarser than the level.
        outcomes = set()
        for name in BANKS:
            bank = _bank(name)
            report = verify_filter_identities(bank, max(bank.resolution, 1) + 1)
            outcomes |= {
                (e["formulation"], min(e["count"], 2), "cells" in e) for e in report.failing_cells
            }
        assert {("columns", 2, True), ("rows", 0, True), ("rows", 2, True)} <= outcomes
        assert {count for _, count, _ in outcomes} == {0, 2}

    @pytest.mark.parametrize("name", BANKS)
    def test_lookup_matches_translate_loop(self, name):
        # A level set's value against the shift onto the spectrum it was
        # folded from.
        p, r, spectrum, values = _spectrum_values(name)
        bank = _bank(name)
        gen = random.Random(f"lookup-{name}")
        integers = list(_digit_maps(p, range(-1, 1)))
        seen = set()
        for table, value in zip(bank.all_tables(), values):
            for level in range(max(r, 0), r + 4):
                for fraction in _digit_maps(p, range(1, level + 1)):
                    cell = Cylinder(p, level, gen.choice(integers) + fraction)
                    want = loop_evaluate_cell(spectrum, value, cell)
                    assert evaluate_cell(table, cell) == (want or 0), cell
                    seen.add(want is None)
            for _ in range(300):
                digits = {pos: gen.randrange(p) for pos in range(-3, r + 6)}
                omega = from_digits(p, digits)
                assert evaluate_point(table, omega) == (loop_evaluate_point(spectrum, value, omega) or 0)
        assert seen == ({True, False} if "truncated" in name else {False})


def relation_membership(cell, s):
    """The pairwise Cylinder.relation scan the membership index replaced."""
    saw_partial = False
    for cyl in s.cylinders:
        rel = cylinder_relation(cell, cyl)
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


class _Unresolved:
    def __repr__(self):
        return "UNRESOLVED"


#: What a lookup the walk cannot answer yet returns.
UNRESOLVED = _Unresolved()


def walk_two_scale(family, omega_sigma, bank, *, window=None, product_depth=None):
    """The cell walk verify_two_scale used to be: cells of the window are
    split until each identity's two sides are constant on them, and each
    cell is checked on its own.  On a resolved spectrum it checks every
    cell of the window, with the product to depth window + the table
    resolution unless told otherwise.  It also takes truncated spectra,
    with an exclusion ball, a depth bound and an allowance for what they
    cannot resolve, and gives up on cells whose product factors pass
    MAX_RESOLUTION."""
    p = family.p
    J = omega_sigma.depth
    L = omega_sigma.level
    w_lo = omega_sigma.lowest_fixed
    resolved = omega_sigma.resolved is not None
    if window is None:
        window = max(2, 1 - w_lo)
    if not resolved and window + L > J:
        raise ValueError(f"window {window} too wide for depth {J} at family resolution {L}")
    if window < 1 - w_lo:
        raise ValueError("window does not cover the family's coarse extent")
    if product_depth is None:
        product_depth = window + bank.resolution if resolved else window + L
    if product_depth < 1 or not resolved and product_depth > J:
        raise ValueError(f"product depth must lie in [1, {J}]")

    phi = membership_index(omega_sigma.spectrum())
    bands = [membership_index(member) for member in family.sets]
    if resolved:
        two_scale_exclusion = product_exclusion = membership_index(empty_set(p))
    else:
        tail = membership_index(theta_ball(p, w_lo + J))
        two_scale_exclusion = tail
        product_exclusion = tail  # the wider of the two balls

    failing: list[dict] = []
    checked = 0
    excluded = Measure.zero(p)
    unresolved = Measure.zero(p)

    def evaluate(table, cell):
        """(value, hopeless): a cell coarser than the tables needs a split."""
        if cell.resolution < bank.resolution:
            return UNRESOLVED, False
        return evaluate_cell(table, cell), False

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
                    {"identity": "two-scale-m0", "lhs": phi_up, "rhs": m0_here * phi_here}
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
                                "rhs": m1_here * phi_here,
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
                    {"identity": "low-pass-product", "lhs": product, "rhs": phi_here}
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

    allowance = Measure.zero(p) if resolved else Measure.make(1, p, w_lo + J - window - L - 1)
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
    return unit_cell(table.p).difference(table)


class TestTwoScaleWalk:
    FAMILIES = SWEEP

    @pytest.mark.parametrize("variant", ["correct", "m0-flipped", "m1-flipped", "deep-product"])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_failures_match_the_cell_walk(self, name, variant):
        family = family_named(name)
        p = family.p
        decided = 0
        for J in range(1, 11):
            sigma = accumulate_omega_sigma(family, J)
            if sigma.resolved is None:
                continue
            bank = build_filters(family, sigma)
            m0, m1 = bank.m0, bank.m1
            if variant in ("m0-flipped", "deep-product"):
                m0 = _flipped(m0)
            elif variant == "m1-flipped":
                m1 = (*m1[:-1], _flipped(m1[-1]))
            bank = dataclasses.replace(bank, m0=m0, m1=m1)
            # The library's product is the infinite one: terms past
            # window + table resolution, the walk's default, repeat.
            got = verify_two_scale(family, sigma, bank)
            want = walk_two_scale(
                family, sigma, bank, product_depth=12 if variant == "deep-product" else None
            )
            assert failure_sets(got, p) == failure_sets(want, p), J
            assert got.passed == want.passed == (variant == "correct"), J
            assert want.unresolved_mass == 0
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
        return family, sigma, _bank(name)
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
        # Tables folded from a truncation are zero where the tail folds.
        assert report.passed != name.endswith("truncated")
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


def _integer_parts(s):
    """The integer parts of s's cylinders, in lattice-index order."""
    parts = {cylinder_integer_part(c) for c in s.cylinders}
    return sorted(parts, key=lambda_encode)


def _translation_candidates(s, p):
    """Every difference of two integer parts of s and the p digit-0
    shifts, in lattice-index order: the rows of the MRA table."""
    parts = _integer_parts(s)
    seen = {}
    for a in parts:
        for b in parts:
            n = a.subtract(b)
            seen.setdefault(lambda_encode(n), n)
    for k in range(p):
        n = from_digits(p, {0: k} if k else {})
        seen.setdefault(lambda_encode(n), n)
    return [seen[k] for k in sorted(seen)]


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


@pytest.mark.parametrize("name", SHIPPED_PASS + ["overlapping"])
def test_table_reads_one_partition_per_set(name, monkeypatch):
    # check_mra_condition partitions each set it tables once and reads
    # the overlaps off one nesting walk over the moved pieces: it calls
    # no PSet.intersect and no PSet.translate at all.
    from vilenkin_wavelets import mra

    if name == "overlapping":
        p = 2
        spectrum = PSet(p, [Cylinder(p, 1, ()), Cylinder(p, 1, ((0, 1),))])
        wider = spectrum.union(PSet(p, [Cylinder(p, 2, ((-1, 1), (1, 1)))]))
        sigmas = [
            OmegaSigma(p=p, depth=6, truncated=spectrum, level=1, lowest_fixed=0, resolved=wider)
        ]
    else:
        sigmas = [accumulate_omega_sigma(family_named(name), J) for J in (1, 3, 8)]
    partitioned, calls = [], []
    partition, intersect, translate = mra.congruence_partition, PSet.intersect, PSet.translate

    def counted_partition(s):
        partitioned.append(s)
        return partition(s)

    def counted_intersect(a, b):
        calls.append("intersect")
        return intersect(a, b)

    def counted_translate(a, t):
        calls.append("translate")
        return translate(a, t)

    monkeypatch.setattr(mra, "congruence_partition", counted_partition)
    monkeypatch.setattr(PSet, "intersect", counted_intersect)
    monkeypatch.setattr(PSet, "translate", counted_translate)
    for sigma in sigmas:
        partitioned.clear()
        report = check_mra_condition(sigma)
        tabled = [sigma.truncated] + ([sigma.resolved] if sigma.resolved is not None else [])
        assert partitioned == tabled
        assert calls == []
    assert (report.status == "FAIL") == (name == "overlapping")


@pytest.mark.parametrize(
    "name,depth", [("shannon2", 1), ("shannon3", 8), ("three-shell2", 3), ("three-shell2", 40)]
)
def test_mra_op_measures_the_truncation_once(name, depth, monkeypatch, tmp_path):
    # The telescoping check, row 0 of the table and the report's
    # truncated_measure share one O(J^2) measure of the depth-J truncation.
    from vilenkin_wavelets import cli

    measured, sigmas = [], []
    measure, accumulate = PSet.measure, cli.accumulate_omega_sigma

    def counted_measure(s):
        measured.append(s)
        return measure(s)

    def kept(*args, **kwargs):
        sigmas.append(accumulate(*args, **kwargs))
        return sigmas[-1]

    monkeypatch.setattr(PSet, "measure", counted_measure)
    monkeypatch.setattr(cli, "accumulate_omega_sigma", kept)
    family = pathlib.Path(__file__).resolve().parent.parent / "families" / f"{name}.json"
    argv = ["mra", "--p", name[-1], "--input", str(family), "--depth", str(depth)]
    assert cli.main(argv + ["--output", str(tmp_path / "r.json")]) == 0
    [sigma] = sigmas
    assert sum(s == sigma.truncated for s in measured) == 1


def test_truncated_measure_follows_the_truncation():
    family = family_named("three-shell2")
    sigma = accumulate_omega_sigma(family, 5)
    assert sigma.truncated_measure() == 1 - Fraction(1, 2**5)
    sigma.truncated = accumulate_omega_sigma(family, 7).truncated
    assert sigma.truncated_measure() == 1 - Fraction(1, 2**7)
    assert check_mra_condition(sigma).rows[0].measure == 1 - Fraction(1, 2**7)
    sigma.truncated = PSet(family.p, sigma.truncated.cylinders[1:])
    assert sigma.truncated_measure() == sigma.truncated.measure() < 1 - Fraction(1, 2**7)


def assert_resolved_is_the_fixed_point(family, depths):
    """Past the settle depth, accumulate_omega_sigma reuses the fixed point
    it found there; the fixed-point test at depth J must find it again."""
    union = family.union()
    w = union.min_fixed_position
    for J in depths:
        sigma = accumulate_omega_sigma(family, J)
        assert _fixed_point(union, sigma.truncated, w + J) == sigma.resolved, J


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

    @pytest.mark.parametrize("name", SWEEP)
    def test_resolved_is_the_fixed_point_at_every_depth(self, name):
        assert_resolved_is_the_fixed_point(family_named(name), range(1, 41))

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(
        stratum=st.sampled_from([(2, 2, -1, 6), (2, 4, -2, 12), (3, 2, -1, 14), (5, 2, -1, 48)]),
        seed=st.integers(0, 2**16),
    )
    def test_resolved_is_the_fixed_point_on_drawn_families(self, stratum, seed):
        p, R, w, n = stratum
        family = family_from_document(gen.pass_family(random.Random(seed), p, R, w, n).document())
        assert_resolved_is_the_fixed_point(family, range(1, 41))

    def test_a_spectrum_off_the_fixed_point_is_refused(self, monkeypatch):
        # The proof in check_mra_condition's docstring rules this out; the
        # deeper truncation is read off the fixed point only when it is one.
        from vilenkin_wavelets import mra

        family = shannon_family(2)
        monkeypatch.setattr(mra, "_fixed_point", lambda *args: None)
        assert accumulate_omega_sigma(family, 1).resolved is None
        with pytest.raises(VilenkinError, match="not the fixed point at depth 1"):
            accumulate_omega_sigma(family, 2)


# -- filters decided without listing cells ----------------------------------------


def deep_family(R):
    """The p = 2 PASS family of resolution R, lowest position -2 and 40
    cells that perfbench/gen.py draws from seed 5."""
    return family_from_document(gen.pass_family(random.Random(5), 2, R, -2, 40).document())


class TestFiltersWithoutCells:
    def test_tables_past_the_cap(self):
        # The R = 24 family at depth 28: its tables have resolution 25,
        # past MAX_RESOLUTION, where build_filters once listed cells and
        # raised ResolutionCapError.
        family = deep_family(24)
        sigma = accumulate_omega_sigma(family, 28)
        bank = build_filters(family, sigma)
        assert bank.resolution == 25 > MAX_RESOLUTION
        assert verify_filter_identities(bank, 26).passed
        assert verify_two_scale(family, sigma, bank).passed

    def test_cost_free_of_the_table_resolution(self):
        # Once 2**21 cells per table at R = 20; about 0.02 s on a 2-core
        # machine as cylinder sets.
        family = deep_family(20)
        sigma = accumulate_omega_sigma(family, 24)
        start = time.perf_counter()
        bank = build_filters(family, sigma)
        identities = verify_filter_identities(bank, bank.resolution + 1)
        two_scale = verify_two_scale(family, sigma, bank)
        assert time.perf_counter() - start < 1.0
        assert identities.passed and two_scale.passed

    def test_no_cell_is_listed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cells listed")

        monkeypatch.setattr(PSet, "cells_at", refuse)
        monkeypatch.setattr(Cylinder, "refine_to", refuse)
        for name in TestTwoScaleWalk.FAMILIES:
            family = family_named(name)
            for J in (4, 12, 40):
                sigma = accumulate_omega_sigma(family, J)
                bank = build_filters(family, sigma)
                assert verify_filter_identities(bank, bank.resolution + 2).passed, (name, J)
                assert verify_two_scale(family, sigma, bank).passed, (name, J)
