import decimal
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vilenkin_wavelets import setalg
from vilenkin_wavelets.errors import DigitError, OverlapError, ResolutionCapError
from vilenkin_wavelets.group import check_base, from_digits, identity, lambda_decode
from vilenkin_wavelets.setalg import (
    Cylinder,
    Measure,
    PSet,
    _decimal,
    _merge_siblings,
    _NestingIndex,
    _truncate,
    annulus,
    expanded_unit,
    theta_ball,
    unit_cell,
)

from .families import empty_set
from .oracle import CellSet, contains, cylinder_relation, set_contains_point

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


# (count, p, scale) of Measure.make.
MEASURE_FIELDS = st.tuples(st.integers(0, 60), st.sampled_from([2, 3, 5, 7]), st.integers(-5, 8))


class TestMeasure:
    def test_canonical(self):
        assert Measure.make(4, 2, 3) == Measure(1, 2, 1)
        assert Measure.make(0, 3, 5) == Measure.zero(3)

    def test_exact_strings(self):
        assert Measure.make(7, 2, 3).exact_string() == "7*2^-3"
        assert Measure.make(9, 3, -1).exact_string() == "1*3^3"

    def test_exact_strings_of_long_counts(self):
        # Counts past the interpreter's int-to-str digit limit are written
        # by binary splitting; shorter ones keep the bytes str() gives.
        # Decimal writes its digits without that limit.
        counts = [10**k + d for k in (599, 600, 1199, 1200, 4299, 4300) for d in (-1, 1)]
        counts += [2**15000 + 1, 7**40000 + 3 * 10**600]
        with decimal.localcontext() as ctx:
            ctx.prec = 50_000
            wants = [f"{decimal.Decimal(c)}*2^-1" for c in counts]
        assert [Measure(c, 2, 1).exact_string() for c in counts] == wants

    def test_long_counts_match_str(self):
        # Random counts on both sides of the str() fast path and of every
        # split: the digits str() gives once its digit limit is lifted.
        gen = random.Random("decimal")
        counts = [gen.getrandbits(b) for b in (1999, 2000, 2001, 4096, 14_000, 60_000) for _ in range(3)]
        counts += [1 << 2000, (1 << 2000) - 1, 10**5000, 10**5000 - 1]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            wants = [str(c) for c in counts]
        finally:
            sys.set_int_max_str_digits(limit)
        assert [_decimal(c) for c in counts] == wants

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

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(
        MEASURE_FIELDS,
        st.one_of(
            MEASURE_FIELDS.map(lambda t: Measure.make(*t)),
            st.integers(-3, 400),
            st.fractions(max_denominator=3**8),
            st.booleans(),
        ),
    )
    def test_comparisons_match_fractions(self, fields, other):
        count, p, scale = fields
        m = Measure.make(count, p, scale)
        value = Fraction(count) / Fraction(p) ** scale
        ref = other.as_fraction() if isinstance(other, Measure) else Fraction(other)
        assert (m == other, m != other) == (value == ref, value != ref)
        assert (m < other, m <= other, m > other, m >= other) == (
            value < ref, value <= ref, value > ref, value >= ref
        )
        assert hash(m) == hash(value)
        if m == other:
            assert hash(m) == hash(other)

    def test_values_compare_across_bases(self):
        assert Measure.make(1, 2, 0) == Measure.make(1, 3, 0) == 1
        assert Measure.make(9, 3, 2) == Measure.make(1, 2, 0)
        assert {Measure.make(1, 2, 0), Measure.make(1, 5, 0), 1, Fraction(1)} == {1}
        assert Measure.make(1, 2, 1) < Measure.make(1, 3, 0) > Measure.make(2, 3, 1)

    def test_other_types_do_not_compare(self):
        m = Measure.make(1, 2, 1)
        assert m != 0.5 and not m == "1*2^-1"
        with pytest.raises(TypeError):
            m < 0.5
        with pytest.raises(TypeError):
            m >= "x"


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
        assert set_contains_point(shifted, from_digits(p, {2: 1}))
        assert not set_contains_point(shifted, from_digits(p, {0: 1}))

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
            assert s == PSet(p, reversed(s.cylinders))

    def test_children_equal_parent(self):
        p = 3
        children = PSet(
            p,
            [Cylinder(p, 1, ((1, d),)) if d else Cylinder(p, 1, ()) for d in range(p)],
        )
        assert children == unit_cell(p)

    def test_nesting(self):
        for p in (2, 3):
            assert theta_ball(p, 1).difference(unit_cell(p)).is_empty
            assert not unit_cell(p).difference(theta_ball(p, 1)).is_empty

    def test_equivalence_relation(self):
        for p in (2, 3):
            a = random_pset(p)
            b = PSet(p, a.cylinders, validate=False)
            assert a == b and b == a


class TestPlainReferences:
    @pytest.mark.parametrize("p", [2, 3])
    def test_relation_and_membership_match_cell_sets(self, p):
        # The plain references other tests compare against, checked on cells.
        gen = random.Random(f"references-{p}")
        seen = set()

        def cylinder():
            r = gen.randint(WINDOW_LO, WINDOW_HI)
            digits = ((pos, gen.randrange(p)) for pos in range(WINDOW_LO, r + 1))
            return Cylinder(p, r, tuple((pos, d) for pos, d in digits if d))

        for _ in range(300):
            a, b = cylinder(), cylinder()
            cells_a, cells_b = as_cells(PSet(p, (a,))), as_cells(PSet(p, (b,)))
            meet = cells_a.intersect(cells_b)
            if meet.is_empty():
                want = "disjoint"
            elif cells_a.equals(cells_b):
                want = "equal"
            else:
                want = "contains" if meet.equals(cells_b) else "within"
            assert cylinder_relation(a, b) == want, (a, b)
            seen.add(want)
            x = random_element(gen, p, WINDOW_LO, WINDOW_HI)
            inside = contains(cells_a, dict(x.support()))
            assert set_contains_point(PSet(p, (a,)), x) == inside, (a, x)
            seen.add(inside)
        assert len(seen) == 6


# Cylinder objects as a family file may hold them, most of them valid:
# digit keys that int() reads in more than one way ("01", " 3", "+3",
# "1_0") or not at all ("a"), and digits and resolutions of every JSON type.
ODD_NUMBERS = [True, False, 1.0, 2.5, float("nan"), float("inf"), "1", "a", None, 255, 256, 300]
ODD_KEYS = ["a", " 3", "+3", "1_0", "01", "-0", "", "1.0"]
CYLINDER_FIELDS = {
    "resolution": st.sampled_from(list(range(-3, 9)) * 6 + ODD_NUMBERS),
    "digits": st.dictionaries(
        st.sampled_from([str(k) for k in range(-4, 7)] * 6 + ODD_KEYS),
        st.sampled_from(list(range(0, 6)) * 12 + ODD_NUMBERS),
        max_size=4,
    ),
}
CYLINDER_OBJECTS = st.one_of(
    st.fixed_dictionaries(CYLINDER_FIELDS),
    st.fixed_dictionaries({}, optional=CYLINDER_FIELDS),
)


class TestSerialization:
    def test_cylinder_json_round_trip(self):
        c = Cylinder(3, 2, ((-1, 2), (2, 1)))
        assert Cylinder.from_json(3, c.to_json()) == c

    def test_pset_json_round_trip(self):
        for p in (2, 3):
            s = random_pset(p)
            assert PSet.from_json(p, s.to_json()) == s

    @pytest.mark.parametrize(
        "obj,message",
        [
            ({"resolution": 0.9, "digits": {"0": 1.7}}, "expected an integer, got 1.7"),
            ({"resolution": 0, "digits": {"0": 1.0}}, "expected an integer, got 1.0"),
            ({"resolution": 0, "digits": {"0": True}}, "expected an integer, got true"),
            ({"resolution": 0, "digits": {"0": "1"}}, 'expected an integer, got "1"'),
            ({"resolution": 2.0, "digits": {}}, "expected an integer, got 2.0"),
            ({"resolution": False}, "expected an integer, got false"),
        ],
    )
    def test_from_json_refuses_non_integer_numbers(self, obj, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            Cylinder.from_json(2, obj)
        with pytest.raises(TypeError, match=f"^{message}$"):
            PSet.from_json(2, [obj])

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(st.sampled_from([2, 3, 5, 256]), CYLINDER_OBJECTS)
    @example(3, {"resolution": 4, "digits": {"1": 1, "01": 2}})
    @example(3, {"resolution": 4, "digits": {"1_0": 1, " 3": 2, "+3": 1}})
    @example(3, {"resolution": 12, "digits": {"1_0": 1, " 3": 2, "+2": 1}})
    @example(3, {"resolution": 2, "digits": {"a": 1}})
    @example(3, {"resolution": 2, "digits": {"0": 0, "1": 3}})
    @example(3, {"resolution": 2, "digits": {"0": 3}})
    @example(3, {"resolution": 2, "digits": {"3": 1}})
    @example(256, {"resolution": 2, "digits": {"0": 300}})
    @example(256, {"resolution": 2, "digits": {"0": 1}})
    @example(2, {"resolution": None, "digits": {"0": None}})
    @example(2, {"resolution": "1", "digits": {"0": 1}})
    @example(2, {"resolution": float("nan")})
    @example(2, {"resolution": 1, "digits": {"0": float("inf")}})
    @example(2, {"digits": {"0": 1}})
    @example(2, {"resolution": 1, "digits": None})
    def test_from_json_matches_the_reference_parse(self, p, obj):
        # The same cylinder, or the same exception type and message.
        got, want = outcome(Cylinder.from_json, p, obj), outcome(reference_from_json, p, obj)
        if isinstance(want, Cylinder):
            assert type(got) is Cylinder and got == want
            assert type(got.digits) is tuple
        else:
            assert (type(got), str(got)) == (type(want), str(want))


def reference_json_int(value):
    number = int(value)
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return number


def reference_from_json(p, obj):
    """Cylinder.from_json before it became one loop, with the checks its
    Cylinder(...) call ran inlined, kept as the reference."""
    digits = tuple(
        sorted((int(pos), reference_json_int(d)) for pos, d in obj.get("digits", {}).items())
    )
    resolution = reference_json_int(obj["resolution"])
    check_base(p)
    last = None
    for pos, d in digits:
        if pos > resolution:
            raise DigitError(f"fixed digit at position {pos} above resolution {resolution}")
        if not 0 < d < p:
            raise DigitError(f"digit {d} out of range for base {p}")
        if last is not None and pos <= last:
            raise DigitError("digit positions must be strictly increasing")
        last = pos
    return Cylinder(p, resolution, digits)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the reference may raise anything
        return exc


# -- trusted constructors and the counting merge ------------------------------------


def random_root(gen, p, lo=-2):
    return tuple((pos, gen.randrange(1, p)) for pos in range(lo - 2, lo + 1) if gen.random() < 0.5)


def random_mixed_pset(gen, p, root=None, lo=-2, hi=4):
    """Random disjoint union of cylinders at resolutions lo..hi, merged.

    Cells are split at random from one resolution-lo root cylinder that
    pins digits at positions lo - 2..lo (random unless given), so
    negative resolutions and negative positions both occur.
    """
    if root is None:
        root = random_root(gen, p, lo)
    leaves, stack = [], [Cylinder(p, lo, root)]
    while stack:
        c = stack.pop()
        if c.resolution < hi and gen.random() < 1.6 / p:
            stack.extend(c.refine_to(c.resolution + 1))
        elif gen.random() < 0.7:
            leaves.append(c)
    return PSet(p, leaves)


def old_merge_siblings(p, items):
    """The queue-driven merge the counting merge replaced, kept as the reference."""
    pool = set(items)
    queue = list(pool)
    while queue:
        item = queue.pop()
        if item not in pool:
            continue
        res, digs = item
        base = tuple((pos, d) for pos, d in digs if pos != res)
        siblings = [
            (res, base if d == 0 else tuple(sorted(base + ((res, d),))))
            for d in range(p)
        ]
        if all(s in pool for s in siblings):
            for s in siblings:
                pool.discard(s)
            parent = (res - 1, base)
            pool.add(parent)
            queue.append(parent)
    return sorted(pool)


def pairwise_overlap_message(cyls):
    """The O(n^2) scan the hashed disjointness check replaced, kept as the reference."""
    for i, a in enumerate(cyls):
        for b in cyls[i + 1 :]:
            if cylinder_relation(a, b) != "disjoint":
                return f"cylinders overlap: {a.to_json()} and {b.to_json()}"
    return None


def hashed_overlap_message(cyls):
    try:
        PSet._check_disjoint(tuple(cyls))
    except OverlapError as exc:
        return str(exc)
    return None


def keys(cylinders):
    return [(c.resolution, c.digits) for c in cylinders]


def random_split(gen, c, depth):
    """A random partition of c into sub-cylinders at most depth levels finer."""
    if depth == 0 or gen.random() < 0.4:
        return [c]
    return [
        piece
        for child in c.refine_to(c.resolution + 1)
        for piece in random_split(gen, child, depth - 1)
    ]


def random_element(gen, p, lo=-5, hi=6):
    return from_digits(p, {pos: gen.randrange(p) for pos in range(lo, hi + 1)})


class TestTrustedPaths:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_results_match_merging_constructor(self, p):
        # dilate, translate, intersect and the congruence pieces skip the
        # merge; each result must be what the merging constructor gives,
        # in the same order.
        from vilenkin_wavelets.verifier import congruence_partition

        gen = random.Random(f"trusted-{p}")
        nonempty_intersections = negative = 0
        for _ in range(60):
            root = random_root(gen, p)
            a, b = random_mixed_pset(gen, p, root), random_mixed_pset(gen, p, root)
            t = random_element(gen, p)
            results = [a.dilate(gen.randrange(-3, 4)), a.translate(t), b.translate(t.negate())]
            results += [a.intersect(b), b.intersect(a), a.intersect(b.translate(t))]
            for _, piece, shifted in congruence_partition(a):
                results += [piece, shifted]
            for result in results:
                assert type(result) is PSet and result.p == p
                assert PSet(p, result.cylinders).cylinders == result.cylinders
            nonempty_intersections += not a.intersect(b).is_empty
            negative += any(c.resolution < 0 for c in a.cylinders)
        assert nonempty_intersections > 5 and negative > 5

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cylinder_actions_match_validated_cylinders(self, p):
        gen = random.Random(f"cylinder-actions-{p}")
        for _ in range(40):
            for c in random_mixed_pset(gen, p).cylinders:
                t = random_element(gen, p)
                for out in (c.dilate(gen.randrange(-3, 4)), c.translate(t)):
                    assert out == Cylinder(out.p, out.resolution, out.digits)
                    assert type(out) is Cylinder
                assert c.translate(t).translate(t.negate()) == c

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_counting_merge_matches_old_merge_on_disjoint_input(self, p):
        gen = random.Random(f"merge-disjoint-{p}")
        merged = 0
        for _ in range(80):
            s = random_mixed_pset(gen, p)
            pieces = [piece for c in s.cylinders for piece in random_split(gen, c, 3)]
            gen.shuffle(pieces)
            items = keys(pieces)
            got = _merge_siblings(p, items)
            assert got == old_merge_siblings(p, items) == keys(s.cylinders)
            merged += len(items) > len(got)
        assert merged > 20

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_counting_merge_matches_old_merge_on_nested_input(self, p):
        # Nested input: a canonical set plus a split of one of its
        # cylinders (which merges back into a key already present), part
        # of one split, or one strict ancestor (which may complete a family).
        gen = random.Random(f"merge-nested-{p}")
        kinds = set()
        for _ in range(120):
            s = random_mixed_pset(gen, p)
            if s.is_empty:
                continue
            c = gen.choice(s.cylinders)
            kind = gen.choice(["split", "partial", "ancestor"])
            if kind == "split":
                extra = list(c.refine_to(c.resolution + gen.randrange(1, 3)))
            elif kind == "partial":
                extra = gen.sample(list(c.refine_to(c.resolution + 1)), p - 1)
            else:
                r = c.resolution - gen.randrange(1, 3)
                extra = [Cylinder(p, r, tuple((pos, d) for pos, d in c.digits if pos <= r))]
            items = keys(s.cylinders) + keys(extra)
            gen.shuffle(items)
            got = _merge_siblings(p, items)
            assert got == old_merge_siblings(p, items)
            kinds.add((kind, got == keys(s.cylinders)))
        assert {("split", True), ("partial", False), ("ancestor", False)} <= kinds

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_hashed_disjointness_check_matches_pairwise_scan(self, p):
        # Same inputs raise, naming the same first pair (i, j) in scan order.
        gen = random.Random(f"disjoint-{p}")
        raised = 0
        for _ in range(150):
            cyls = list(random_mixed_pset(gen, p).cylinders)
            for _ in range(gen.choice([0, 0, 1, 2, 3])):
                if not cyls:
                    break
                c = gen.choice(cyls)
                extra = gen.choice(
                    [
                        c,
                        next(c.refine_to(c.resolution + 2)),
                        Cylinder(p, c.resolution - 1, _truncate(c.digits, c.resolution - 1)),
                        Cylinder(p, c.resolution + 1, c.digits + ((c.resolution + 1, 1),)),
                    ]
                )
                cyls.insert(gen.randrange(len(cyls) + 1), extra)
            gen.shuffle(cyls)
            want = pairwise_overlap_message(cyls)
            assert hashed_overlap_message(cyls) == want
            raised += want is not None
        assert raised > 40

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.sampled_from([2, 3, 5]), st.data())
    def test_hashed_disjointness_check_property(self, p, data):
        # Resolutions and positions below 0 included, and some cylinders
        # repeated, equal pairs being the ones the sort keeps adjacent.
        raw = data.draw(
            st.lists(
                st.tuples(
                    st.integers(-4, 4),
                    st.dictionaries(st.integers(-5, 4), st.integers(1, p - 1), max_size=4),
                ),
                max_size=12,
            )
        )
        cyls = [
            Cylinder(p, r, tuple(sorted((pos, d) for pos, d in digits.items() if pos <= r)))
            for r, digits in raw
        ]
        if cyls:
            cyls = data.draw(st.permutations(cyls + data.draw(st.lists(st.sampled_from(cyls), max_size=3))))
        assert hashed_overlap_message(cyls) == pairwise_overlap_message(cyls)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_disjointness_check_on_chains_and_far_nests(self, p):
        # A chain of cylinders, one per resolution, each pinning its own
        # last position, from resolutions below 0; then equal copies, and
        # ancestors and descendants up to 20 levels away.  A split keeps
        # the set disjoint: it replaces a cylinder c by c's zero-digit
        # descendant a far below and a cylinder x inside c that pins a
        # digit above a's resolution, which sorts right after a and so
        # must be told apart from a's contents.
        gen = random.Random(f"disjoint-chain-{p}")
        raised = splits = 0
        for _ in range(100):
            lo = gen.randrange(-12, 3)
            root = tuple((pos, gen.randrange(1, p)) for pos in range(lo - 3, lo) if gen.random() < 0.5)
            cyls = [
                Cylinder(p, r, root + ((r, gen.randrange(1, p)),))
                for r in range(lo, lo + gen.randrange(1, 40))
            ]
            for _ in range(gen.choice([0, 1, 2, 3])):
                c = gen.choice(cyls)
                r, far, d = c.resolution, gen.randrange(1, 21), gen.randrange(1, p)
                kind = gen.choice(["equal", "ancestor", "descendant", "zero descendant", "split"])
                if kind == "split":
                    cyls.remove(c)
                    at = r + gen.randrange(1, far + 1)
                    cyls += [
                        Cylinder(p, r + far, c.digits),
                        Cylinder(p, r + far + gen.randrange(3), c.digits + ((at, d),)),
                    ]
                    splits += 1
                    continue
                cyls.append(
                    {
                        "equal": c,
                        "ancestor": Cylinder(p, r - far, _truncate(c.digits, r - far)),
                        "descendant": Cylinder(p, r + far, c.digits + ((r + far, d),)),
                        "zero descendant": Cylinder(p, r + far, c.digits),
                    }[kind]
                )
            gen.shuffle(cyls)
            want = pairwise_overlap_message(cyls)
            assert hashed_overlap_message(cyls) == want
            raised += want is not None
        assert 25 < raised < 75 and splits > 15

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_disjoint_sets_make_no_walk(self, p, monkeypatch):
        # The walk runs only to name the pair of an overlap.
        calls = []
        walk = setalg._nested_pairs
        monkeypatch.setattr(setalg, "_nested_pairs", lambda groups: calls.append(1) or walk(groups))
        gen = random.Random(f"no-walk-{p}")
        for _ in range(40):
            pieces = [c for s in [random_mixed_pset(gen, p)] for c in s.cylinders]
            pieces = [piece for c in pieces for piece in random_split(gen, c, 3)]
            gen.shuffle(pieces)
            assert PSet(p, pieces).measure() == PSet(p, pieces, validate=False).measure()
        assert calls == []
        with pytest.raises(OverlapError):
            PSet(p, [Cylinder(p, 0, ()), Cylinder(p, 5, ((5, 1),))])
        assert calls == [1]

    def test_long_chain_validates_without_the_walk(self, monkeypatch):
        # A valid chain 20,000 resolutions deep, as a family member may
        # hold: the walk costs a lookup per stored level for each
        # cylinder, quadratic in the depth, so it must not run.
        calls = []
        walk = setalg._nested_pairs
        monkeypatch.setattr(setalg, "_nested_pairs", lambda groups: calls.append(1) or walk(groups))
        n = 20_000
        chain = [Cylinder(2, r, ((r, 1),)) for r in range(1, n + 1)]
        start = time.perf_counter()
        s = PSet(2, chain)
        elapsed = time.perf_counter() - start
        assert calls == [] and len(s.cylinders) == n
        assert elapsed < 2, elapsed

    def test_load_rejects_overlap_with_the_same_message(self):
        p = 2
        cyls = [
            Cylinder(p, 2, ((1, 1),)),
            Cylinder(p, 0, ((0, 1),)),
            Cylinder(p, 3, ((0, 1), (2, 1))),
            Cylinder(p, 2, ((1, 1),)),
        ]
        with pytest.raises(OverlapError) as info:
            PSet(p, cyls)
        assert str(info.value) == pairwise_overlap_message(cyls)
        assert str(info.value) == (
            "cylinders overlap: {'resolution': 2, 'digits': {'1': 1}} and "
            "{'resolution': 2, 'digits': {'1': 1}}"
        )


class TestResolutionCapParity:
    def test_dilate_names_first_over_cap_cylinder_in_sorted_order(self):
        p = 2
        s = PSet(
            p,
            [
                Cylinder(p, 26, ((0, 1), (26, 1))),
                Cylinder(p, 20, ((0, 1), (1, 1))),
                Cylinder(p, 30, ((-1, 1),)),
            ],
        )
        # Dilation is exact past MAX_RESOLUTION: every position moves,
        # and the canonical order is kept.
        assert s.dilate(1).cylinders == (
            Cylinder(p, 21, ((1, 1), (2, 1))),
            Cylinder(p, 27, ((1, 1), (27, 1))),
            Cylinder(p, 31, ((0, 1),)),
        )
        for k in (5, 40, -6):
            assert s.dilate(k).cylinders == tuple(
                Cylinder(p, c.resolution + k, tuple((pos + k, d) for pos, d in c.digits))
                for c in s.cylinders
            )
        assert s.dilate(5).max_resolution == 35 and s.dilate(40).dilate(-40) == s
        assert s.dilate(-6).max_resolution == 24

    def test_refine_keeps_its_argument_checks(self):
        s = PSet(2, [Cylinder(2, 3, ((1, 1), (3, 1))), Cylinder(2, 1, ((0, 1),))])
        assert s.refine(3) is s and s.refine(12) is s
        assert s.refine(0, allow_partial=True) is s
        coarser = "^refinement target 2 is coarser than resolution 3$"
        with pytest.raises(ResolutionCapError, match=coarser):
            s.refine(2)
        with pytest.raises(ResolutionCapError, match="^resolution 25 exceeds the cap 24$"):
            s.refine(25)
        too_many = "^refining by 22 positions would produce 4194304 cells$"
        with pytest.raises(ResolutionCapError, match=too_many):
            unit_cell(2).refine(22)
        assert empty_set(3).refine(999) == empty_set(3)


# -- the nesting index ------------------------------------------------------------


def old_cylinder_difference(a, b):
    """a minus b as disjoint cylinders, splitting only toward b."""
    rel = cylinder_relation(a, b)
    if rel == "disjoint":
        return [a]
    if rel in ("within", "equal"):
        return []
    out = []
    for child in a.refine_to(a.resolution + 1):
        if cylinder_relation(child, b) == "disjoint":
            out.append(child)
        else:
            out.extend(old_cylinder_difference(child, b))
    return out


def old_difference(a, b):
    """PSet.difference before the nesting index, kept as the reference: drop
    each cylinder of a that a cylinder of b contains, and split the others
    toward every finer cylinder of b inside them, one pair at a time."""
    own_resolutions = sorted({c.resolution for c in a.cylinders})
    inner = {r: {} for r in own_resolutions}
    for c in b.cylinders:
        for r in own_resolutions:
            if r < c.resolution:
                inner[r].setdefault(_truncate(c.digits, r), []).append(c)
    theirs = set(keys(b.cylinders))
    out = []
    for c in a.cylinders:
        if any(r <= c.resolution and (r, _truncate(c.digits, r)) in theirs for r, _ in theirs):
            continue
        pieces = [c]
        for inside in inner[c.resolution].get(c.digits, ()):
            pieces = [
                shard for piece in pieces for shard in old_cylinder_difference(piece, inside)
            ]
        out.extend(pieces)
    return PSet(a.p, out, validate=False)


def sparse_mixed_pset(gen, p, root, n=24):
    """Up to n disjoint cylinders at resolutions -3..8, split at random
    from the children of the resolution -4 root (see random_root)."""
    leaves, stack = [], list(Cylinder(p, -4, root).refine_to(-3))
    while stack and len(leaves) < n:
        c = stack.pop(gen.randrange(len(stack)) if gen.random() < 0.3 else -1)
        if c.resolution < 8 and gen.random() < 0.6:
            stack.extend(c.refine_to(c.resolution + 1))
        elif gen.random() < 0.5:
            leaves.append(c)
    return PSet(p, leaves)


def nested_pset(gen, s):
    """s plus cylinders nested with its own (part of a split, an ancestor
    or a repeat), kept unmerged by validate=False."""
    p = s.p
    cyls = list(s.cylinders)
    for c in gen.sample(cyls, min(len(cyls), 3)):
        r = c.resolution - gen.randrange(1, 3)
        cyls += gen.choice(
            [
                list(c.refine_to(c.resolution + 1))[: p - 1],
                [Cylinder(p, r, _truncate(c.digits, r))],
                [c],
            ]
        )
    return PSet(p, cyls, validate=False)


def random_cell(gen, s):
    """A random cell near s: an identity ball, a cell derived from one of
    its cylinders (a truncation, the cylinder itself or a sub-cell), or an
    arbitrary cell."""
    p = s.p
    r = gen.randrange(-8, s.max_resolution + 3)
    kind = gen.random()
    if kind < 0.1:
        digits = ()
    elif kind < 0.55:
        c = gen.choice(s.cylinders)
        digits = _truncate(c.digits, r) + tuple(
            (pos, d) for pos in range(c.resolution + 1, r + 1) if (d := gen.randrange(p))
        )
    else:
        digits = tuple((pos, d) for pos in range(-10, r + 1) if (d := gen.randrange(p)))
    return Cylinder(p, r, digits)


class TestNestingIndex:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_difference_matches_pairwise_reference(self, p):
        # Disjoint and nested inputs on both sides, resolutions -3..8;
        # the cylinders must come out the same and in the same order.
        gen = random.Random(f"difference-{p}")
        split = nested = 0
        for _ in range(60):
            root = random_root(gen, p, lo=-4)
            a, b = sparse_mixed_pset(gen, p, root), sparse_mixed_pset(gen, p, root)
            c = nested_pset(gen, a)
            for x in (a, b, c):
                for y in (a, b, c):
                    got = x.difference(y)
                    assert got.cylinders == old_difference(x, y).cylinders
                    split += any(piece not in x.cylinders for piece in got.cylinders)
            nested += any(
                cylinder_relation(x, y) != "disjoint"
                for i, x in enumerate(c.cylinders)
                for y in c.cylinders[i + 1 :]
            )
        assert split > 30 and nested > 30

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["disjoint", "nested"])
    def test_queries_match_relation_scan(self, p, kind):
        gen = random.Random(f"index-{p}-{kind}")
        seen = set()
        for _ in range(6):
            s = sparse_mixed_pset(gen, p, random_root(gen, p, lo=-4))
            if kind == "nested":
                s = nested_pset(gen, s)
            if s.is_empty:
                continue
            index = _NestingIndex(s.cylinders)
            for _ in range(300):
                cell = random_cell(gen, s)
                q, digits = cell.resolution, cell.digits
                rel = [cylinder_relation(cell, c) for c in s.cylinders]
                for top in (q, q - 1):
                    want = any(
                        r in ("within", "equal") and c.resolution <= top
                        for r, c in zip(rel, s.cylinders)
                    )
                    assert index.covers(digits, top) == want, (cell, top)
                    seen.add(("covers", top - q, want))
                want = "contains" in rel
                assert index.straddled(q, digits) == want, cell
                seen.add(("straddled", not digits, want))
                if kind == "disjoint":
                    check_outside(index, s, cell)
        assert len(seen) == 8, seen


def check_outside(index, s, cell):
    """The count-0 parts() of one cell against the relation scan: they lie
    in the cell, meet neither each other (by the hashed disjointness
    check) nor s, are maximal (each strict parent inside the cell meets
    s) and fill the cell minus s.  Every part's count is the number of
    cylinders of s that contain it."""
    p = s.p
    weight = dict.fromkeys(((c.resolution, c.digits) for c in s.cylinders), 1)
    counted = index.parts(p, [cell], weight)
    for r, d, count in counted:
        part = Cylinder(p, r, d)
        assert count == sum(cylinder_relation(part, c) in ("within", "equal") for c in s.cylinders)
    parts = [Cylinder(p, r, d) for r, d, count in counted if not count]
    near = [c for c in s.cylinders if cylinder_relation(cell, c) != "disjoint"]
    PSet._check_disjoint(tuple(parts))
    for part in parts:
        assert cylinder_relation(cell, part) in ("contains", "equal")
        assert all(cylinder_relation(part, c) == "disjoint" for c in near)
        if part.resolution > cell.resolution:
            parent = Cylinder(p, part.resolution - 1, _truncate(part.digits, part.resolution - 1))
            assert any(cylinder_relation(parent, c) != "disjoint" for c in near)
    if any(cylinder_relation(cell, c) in ("within", "equal") for c in s.cylinders):
        inside = cell.measure()
    else:
        inside = sum(
            (c.measure() for c in s.cylinders if cylinder_relation(cell, c) == "contains"),
            Measure.zero(p),
        )
    total = sum((part.measure() for part in parts), Measure.zero(p))
    assert total + inside == cell.measure()
