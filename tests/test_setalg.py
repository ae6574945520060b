import random
from fractions import Fraction

import pytest

from vilenkin_wavelets.errors import OverlapError, ResolutionCapError
from vilenkin_wavelets.group import from_digits, identity, lambda_decode
from vilenkin_wavelets.setalg import (
    Cylinder,
    Measure,
    PSet,
    annulus,
    empty_set,
    expanded_unit,
    theta_ball,
    unit_cell,
)

from .oracle import CellSet

rng = random.Random(4203)

WINDOW_LO, WINDOW_HI = -2, 3


def random_pset(p, lo=WINDOW_LO, hi=WINDOW_HI, density=0.3):
    """Random union of resolution-`hi` cells inside the window."""
    span = hi - lo + 1
    cells = []
    for index in range(p**span):
        if rng.random() < density:
            digits = []
            value = index
            for pos in range(lo, hi + 1):
                value, d = divmod(value, p)
                if d:
                    digits.append((pos, d))
            cells.append(Cylinder(p, hi, tuple(sorted(digits))))
    return PSet(p, cells, validate=False)


def as_cells(pset, lo=WINDOW_LO, hi=WINDOW_HI):
    return CellSet.from_pset(pset, lo, hi)


class TestMeasure:
    def test_canonical(self):
        assert Measure.make(4, 2, 3) == Measure(1, 2, 1)
        assert Measure.make(0, 3, 5) == Measure.zero(3)

    def test_exact_strings(self):
        assert Measure.make(7, 2, 3).exact_string() == "7*2^-3"
        assert Measure.make(9, 3, -1).exact_string() == "1*3^3"

    def test_arithmetic(self):
        m = Measure.make(1, 2, 1) + Measure.make(1, 2, 1)
        assert m == 1
        assert Measure.make(3, 2, 2) < 1
        assert Measure.make(3, 2, 1) > 1

    def test_unit_cell_has_measure_one(self):
        for p in (2, 3, 5):
            assert unit_cell(p).measure() == 1

    def test_contracted_cells(self):
        for p in (2, 3):
            assert theta_ball(p, 2).measure() == Fraction(1, p**2)

    def test_shell_measure(self):
        for p in (2, 3, 5):
            assert expanded_unit(p, 1).difference(unit_cell(p)).measure() == p - 1
            assert annulus(p).measure() == p - 1


class TestCanonicalization:
    def test_sibling_merge(self):
        p = 3
        children = [Cylinder(p, 1, ((1, d),)) if d else Cylinder(p, 1, ()) for d in range(p)]
        merged = PSet(p, children)
        assert merged == unit_cell(p)

    def test_chain_merge(self):
        # A full ladder of shells merges all the way to the unit cell.
        p = 2
        pieces = [Cylinder(p, 4, ())] + [
            Cylinder(p, level, ((level, 1),)) for level in range(1, 5)
        ]
        assert PSet(p, pieces) == unit_cell(p)

    def test_overlap_rejected(self):
        p = 2
        with pytest.raises(OverlapError):
            PSet(p, [Cylinder(p, 0, ()), Cylinder(p, 1, ((1, 1),))])

    def test_idempotent(self):
        for p in (2, 3):
            for _ in range(20):
                s = random_pset(p)
                assert PSet(p, s.cylinders, validate=False) == s


class TestRefine:
    def test_unit_cell_children(self):
        for p in (2, 3):
            refined = unit_cell(p).refine(1)
            assert len(refined.cylinders) == 1  # canonical form re-merges
            cells = unit_cell(p).cells_at(1)
            assert len(cells) == p

    def test_empty(self):
        assert empty_set(3).refine(5) == empty_set(3)

    def test_measure_preserved(self):
        for p in (2, 3):
            for _ in range(20):
                s = random_pset(p)
                assert s.cells_at(WINDOW_HI + 2) and True
                total = Measure.zero(p)
                for cell in s.cells_at(WINDOW_HI + 2):
                    total = total + Measure.make(1, p, WINDOW_HI + 2)
                assert total == s.measure()

    def test_resolution_cap(self):
        with pytest.raises(ResolutionCapError):
            unit_cell(2).refine(999)


class TestBooleanOps:
    def test_sibling_union_forms_shell(self):
        p = 3
        pieces = [unit_cell(p)] + [
            PSet(p, [Cylinder(p, 0, ((0, d),))], validate=False) for d in range(1, p)
        ]
        out = pieces[0]
        for piece in pieces[1:]:
            out = out.union(piece)
        assert out == expanded_unit(p, 1)
        assert as_cells(out).equals(as_cells(expanded_unit(p, 1)))

    def test_contradictory_digits(self):
        p = 3
        a = PSet(p, [Cylinder(p, 0, ((0, 1),))], validate=False)
        b = PSet(p, [Cylinder(p, 0, ((0, 2),))], validate=False)
        assert a.intersect(b).is_empty

    def test_shell_complement(self):
        for p in (2, 3, 5):
            shell = expanded_unit(p, 1).difference(unit_cell(p))
            assert shell == annulus(p)
            assert shell.measure() == p - 1

    def test_differential_random_pairs(self):
        # Exhaustive differential run against the tuple-set oracle.
        for p in (2, 3):
            for _ in range(300):
                a, b = random_pset(p), random_pset(p)
                oa, ob = as_cells(a), as_cells(b)
                assert as_cells(a.union(b)).equals(oa.union(ob))
                assert as_cells(a.intersect(b)).equals(oa.intersect(ob))
                assert as_cells(a.difference(b)).equals(ob and oa.difference(ob))
                assert a.measure() == oa.measure()
                assert a.union(b).measure() == oa.union(ob).measure()


class TestGroupActions:
    def test_translate_by_identity(self):
        for p in (2, 3):
            s = random_pset(p)
            assert s.translate(identity(p)) == s

    def test_translate_clears_unit_digit(self):
        for p in (2, 3, 5):
            u = p - 1
            s = PSet(p, [Cylinder(p, 0, ((0, u),))], validate=False)
            n = lambda_decode(u, p)
            assert s.translate(n.negate()) == unit_cell(p)

    def test_translate_preserves_measure(self):
        for p in (2, 3):
            for _ in range(50):
                s = random_pset(p)
                t = from_digits(
                    p, {pos: rng.randrange(p) for pos in range(WINDOW_LO, WINDOW_HI + 1)}
                )
                assert s.translate(t).measure() == s.measure()
                assert as_cells(s.translate(t)).equals(as_cells(s).translate(t))

    def test_translate_inside_subgroup_is_invariant(self):
        # Digits finer than the resolution live in the free tail and are
        # absorbed without changing the set.
        p = 2
        t = from_digits(p, {2: 1})
        assert unit_cell(p).translate(t) == unit_cell(p)
        assert theta_ball(p, 1).translate(t) == theta_ball(p, 1)

    def test_translate_mixed_fine_and_coarse_digits(self):
        p = 2
        s = PSet(p, [Cylinder(p, 0, ((0, 1),))], validate=False)
        t = from_digits(p, {0: 1, 2: 1})
        shifted = s.translate(t)
        assert shifted == unit_cell(p)  # the position-0 digits cancel
        assert shifted.contains_point(from_digits(p, {2: 1}))
        assert not shifted.contains_point(from_digits(p, {0: 1}))

    def test_dilate_shifts_and_scales(self):
        for p in (2, 3):
            assert unit_cell(p).dilate(1) == theta_ball(p, 1)
            assert unit_cell(p).dilate(1).measure() == Fraction(1, p)
            s = PSet(p, [Cylinder(p, 0, ((0, 1),))], validate=False)
            d = s.dilate(1)
            assert d.cylinders[0].digits == ((1, 1),)
            assert d.measure() == Fraction(1, p)

    def test_dilate_round_trip(self):
        for p in (2, 3):
            for _ in range(30):
                s = random_pset(p)
                assert s.dilate(2).dilate(-2) == s
                k = rng.randrange(-3, 4)
                assert as_cells(s.dilate(k), WINDOW_LO + k, WINDOW_HI + k).equals(
                    as_cells(s).dilate(k)
                )

    def test_action_composition_laws(self):
        # Translation composes additively; dilation distributes over the
        # boolean operations and commutes with translation up to a shift.
        for p in (2, 3):
            for _ in range(40):
                s, t = random_pset(p), random_pset(p)
                a = from_digits(
                    p, {pos: rng.randrange(p) for pos in range(WINDOW_LO, 1)}
                )
                b = from_digits(
                    p, {pos: rng.randrange(p) for pos in range(WINDOW_LO, 1)}
                )
                assert s.translate(a).translate(b) == s.translate(a.add(b))
                k = rng.randrange(-2, 3)
                assert s.union(t).dilate(k) == s.dilate(k).union(t.dilate(k))
                assert s.intersect(t).dilate(k) == s.dilate(k).intersect(t.dilate(k))
                assert s.translate(a).dilate(k) == s.dilate(k).translate(a.dilate(-k))


class TestAeEquality:
    def test_reflexive(self):
        for p in (2, 3):
            s = random_pset(p)
            assert s.ae_equal(s)

    def test_children_equal_parent(self):
        p = 3
        children = PSet(
            p,
            [Cylinder(p, 1, ((1, d),)) if d else Cylinder(p, 1, ()) for d in range(p)],
        )
        assert children.ae_equal(unit_cell(p))

    def test_nesting(self):
        for p in (2, 3):
            assert theta_ball(p, 1).is_subset_ae(unit_cell(p))
            assert not unit_cell(p).is_subset_ae(theta_ball(p, 1))

    def test_equivalence_relation(self):
        for p in (2, 3):
            a = random_pset(p)
            b = PSet(p, a.cylinders, validate=False)
            assert a.ae_equal(b) and b.ae_equal(a)


class TestSerialization:
    def test_cylinder_json_round_trip(self):
        c = Cylinder(3, 2, ((-1, 2), (2, 1)))
        assert Cylinder.from_json(3, c.to_json()) == c

    def test_pset_json_round_trip(self):
        for p in (2, 3):
            s = random_pset(p)
            assert PSet.from_json(p, s.to_json()) == s
