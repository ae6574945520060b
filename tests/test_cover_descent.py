"""The one counting descent, _NestingIndex.parts, against the two it replaced.

PSet.difference keeps the parts of count 0, and verifier._cover_defects
the parts whose count is not 1.  The references below are the earlier
code: an outside() descent that stops at every stored key, and a cover
check that joined it with a second descent from each outermost
overlapping key, with its own index of those keys.  They are compared,
entries in order, on drawn covers of the unit cell and the annulus whose
pieces leave gaps, repeat, nest and overlap, with copies and cell
resolutions on either side of the finest key, and on the nested inputs
of test_setalg's difference test.

PSet.union reads the nested-pairs walk and calls no difference; it is
checked against the oracle's cells.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin_wavelets import mra
from vilenkin_wavelets.mra import verify_filter_identities
from vilenkin_wavelets.setalg import (
    Cylinder,
    PSet,
    _cylinder,
    _NestingIndex,
    _truncate,
    annulus,
    unit_cell,
)
from vilenkin_wavelets.verifier import _check_witness_count, _cover_defects

from .families import family_named
from .oracle import CellSet, cylinder_relation
from .test_filter_oracle import library_bank, variant_bank
from .test_setalg import nested_pset, random_mixed_pset, random_root, sparse_mixed_pset
from .test_verifier_paths import _Calls

# -- references ----------------------------------------------------------------------


def reference_outside(index, p, keys):
    """The parts of the given cells that no stored cylinder meets, split
    only toward stored cylinders; a stored key ends the descent."""
    at = dict(index.levels)
    out = []
    for r, digits in keys:
        if index.covers(digits, r):
            continue
        stack = [(r, digits)]
        while stack:
            r, digits = stack.pop()
            if digits in at.get(r, ()):
                continue
            if index.straddled(r, digits):
                stack.append((r + 1, digits))
                stack.extend((r + 1, digits + ((r + 1, d),)) for d in range(1, p))
            else:
                out.append((r, digits))
    return out


def reference_difference(a, b):
    parts = reference_outside(
        _NestingIndex(b.cylinders), a.p, [(c.resolution, c.digits) for c in a.cylinders]
    )
    return PSet(a.p, (_cylinder(a.p, r, d) for r, d in parts), validate=False)


def reference_cover_defects(target, pieces, copies=None, *, cell_resolution=0):
    """The cover check with two descents: the gaps from reference_outside,
    the overlaps from each outermost overlapping key."""
    p = target.p
    keys = {}
    for piece, k in zip(pieces, copies or itertools.repeat(1)):
        for c in piece.cylinders:
            key = c.resolution, c.digits
            keys[key] = keys.get(key, 0) + k
    levels = {r for r, _ in keys}
    res = max(0, target.max_resolution, *levels)
    index = _NestingIndex(c for piece in pieces for c in piece.cylinders)
    overlapping = [
        (r, digits)
        for (r, digits), m in keys.items()
        if m > 1 or len(levels) > 1 and index.covers(digits, r - 1)
    ]
    whole = sum(p ** (res - c.resolution) for c in target.cylinders)
    if not overlapping and sum(m * p ** (res - r) for (r, _), m in keys.items()) == whole:
        return []
    coarsest = min(c.resolution for c in target.cylinders)
    _check_witness_count("the cover check", p * sum(r - coarsest + 1 for r, _ in keys))
    defects = [
        (r, digits, 0)
        for r, digits in reference_outside(
            index, p, [(c.resolution, c.digits) for c in target.cylinders]
        )
    ]
    outer = _NestingIndex(_cylinder(p, r, digits) for r, digits in overlapping)
    for r, digits in overlapping:
        if outer.covers(digits, r - 1):
            continue  # split from the coarser overlapping cylinder around it
        count = sum(keys[key] for key in index.containing(digits, r))
        stack = [(r, digits, count)]
        while stack:
            q, node, count = stack.pop()
            if not index.straddled(q, node):
                defects.append((q, node, count))
                continue
            for child in (node, *(node + ((q + 1, d),) for d in range(1, p))):
                stack.append((q + 1, child, count + keys.get((q + 1, child), 0)))
    defects.sort(key=lambda defect: (defect[1], defect[0]))
    res = max(res, cell_resolution)
    out = []
    for r, digits, count in defects:
        entry = {"cell": _cylinder(p, r, digits).to_json(), "count": count}
        if r < res:
            entry["cells"] = f"{p}^{res - r}"
        out.append(entry)
    return out


# -- drawn covers ------------------------------------------------------------------------


def _near(rng, c):
    """A cylinder nested with c: c itself, an ancestor down to resolution
    0 (so inside the target) or a descendant one or two levels finer."""
    kind = rng.randrange(3)
    if kind == 0:
        return c
    if kind == 1 and c.resolution > 0:
        r = rng.randrange(0, c.resolution)
        return Cylinder(c.p, r, _truncate(c.digits, r))
    r = c.resolution + rng.randint(1, 2)
    tail = tuple((pos, d) for pos in range(c.resolution + 1, r + 1) if (d := rng.randrange(c.p)))
    return Cylinder(c.p, r, c.digits + tail)


def drawn_cover(seed, p):
    """(target, pieces, copies, cell_resolution): a random partition of
    the unit cell or the annulus dealt into 1-4 pieces, with some parts
    dropped (gaps) and some repeated, split or coarsened into another
    piece (overlaps); copies up to p**3 or none, and a cell resolution
    up to two below or above the finest key."""
    rng = random.Random(seed)
    target = rng.choice([unit_cell(p), annulus(p)])
    depth = {2: 4, 3: 3, 5: 2}[p]
    leaves, stack = [], list(target.cylinders)
    while stack:
        c = stack.pop()
        if c.resolution < depth and rng.random() < 0.55:
            stack.extend(c.refine_to(c.resolution + 1))
        else:
            leaves.append(c)
    groups = [[] for _ in range(rng.randint(1, 4))]

    def fits(c, group):
        return all(cylinder_relation(c, k) == "disjoint" for k in group)

    for c in leaves:
        roll = rng.random()
        if roll < 0.15:
            continue  # a gap
        free = [group for group in groups if fits(c, group)]
        if not free:
            groups.append([])
            free = groups[-1:]
        rng.choice(free).append(c)
        if roll > 0.8:
            extra, group = _near(rng, c), rng.choice(groups)
            if fits(extra, group):
                group.append(extra)
    pieces = [PSet(p, group) for group in groups]
    copies = None
    if rng.random() < 0.5:
        copies = [rng.choice([1, 1, 2, p, p**2, p**3]) for _ in pieces]
    finest = max([0, target.max_resolution] + [s.max_resolution for s in pieces])
    return target, pieces, copies, finest + rng.randint(-2, 2)


def assert_cover_matches(seed, p):
    target, pieces, copies, cell_resolution = drawn_cover(seed, p)
    got = _cover_defects(target, pieces, copies, cell_resolution=cell_resolution)
    assert got == reference_cover_defects(
        target, pieces, copies, cell_resolution=cell_resolution
    )
    return got


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32))
def test_cover_defects_match_two_descents(p, seed):
    assert_cover_matches(seed, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_drawn_covers_reach_every_case(p):
    # Gaps, overlaps and clean covers, copies above 1 on a defect, keys
    # repeated and nested across pieces, on both targets, and cell
    # resolutions below, at and above the finest key.
    seen = set()
    for seed in range(200):
        target, pieces, copies, cell_resolution = drawn_cover(seed, p)
        got = assert_cover_matches(seed, p)
        seen.add("annulus" if target == annulus(p) else "unit")
        seen.update("gap" if e["count"] == 0 else "overlap" for e in got)
        if not got:
            seen.add("clean")
        if got and copies and max(copies) > 1:
            seen.add("copies")
        cylinders = [(i, c) for i, s in enumerate(pieces) for c in s.cylinders]
        for (i, a), (j, b) in itertools.combinations(cylinders, 2):
            if i != j and cylinder_relation(a, b) != "disjoint":
                seen.add("repeat" if a == b else "nested")
        finest = max([0, target.max_resolution] + [s.max_resolution for s in pieces])
        seen.add(("cells", (cell_resolution > finest) - (cell_resolution < finest)))
    assert seen == {
        "unit", "annulus", "gap", "overlap", "clean", "copies", "repeat", "nested",
        ("cells", -1), ("cells", 0), ("cells", 1),
    }


@pytest.mark.parametrize("p", [2, 3, 5])
def test_difference_matches_outside_descent(p):
    # The draws of test_setalg's pairwise difference test: disjoint and
    # nested inputs on both sides; the same cylinders in the same order.
    gen = random.Random(f"difference-{p}")
    for _ in range(60):
        root = random_root(gen, p, lo=-4)
        a, b = sparse_mixed_pset(gen, p, root), sparse_mixed_pset(gen, p, root)
        c = nested_pset(gen, a)
        for x in (a, b, c):
            for y in (a, b, c):
                assert x.difference(y).cylinders == reference_difference(x, y).cylinders


# -- union --------------------------------------------------------------------------------


def drawn_union_inputs(seed, p):
    """Two sets over one root, each holding nested and repeated cylinders
    of its own and of the other's."""
    gen = random.Random(seed)
    root = random_root(gen, p)
    a = random_mixed_pset(gen, p, root, hi=2)
    b = random_mixed_pset(gen, p, root, hi=2)
    half = tuple(gen.sample(b.cylinders, len(b.cylinders) // 2))
    shared = PSet(p, a.cylinders + half, validate=False)
    return nested_pset(gen, a), nested_pset(gen, shared)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32))
def test_union_matches_oracle_cells(p, seed):
    a, b = drawn_union_inputs(seed, p)
    lo, hi = -4, 3
    with _Calls((PSet, "difference")) as calls:
        got = a.union(b)
    assert calls.counts == {}
    want = CellSet.from_pset(a, lo, hi).union(CellSet.from_pset(b, lo, hi))
    assert CellSet.from_pset(got, lo, hi).equals(want)


def test_canonical_unions_are_canonical():
    # Canonical inputs give the one canonical form, in either order.
    for seed in range(40):
        gen = random.Random(f"union-{seed}")
        p = gen.choice([2, 3, 5])
        root = random_root(gen, p)
        a, b = random_mixed_pset(gen, p, root, hi=2), random_mixed_pset(gen, p, root, hi=2)
        want = CellSet.from_pset(a, -4, 2).union(CellSet.from_pset(b, -4, 2)).to_pset()
        assert a.union(b).cylinders == b.union(a).cylinders == want.cylinders


@pytest.mark.parametrize("name", ["shannon2", "three-shell2", "coset-shuffle3"])
@pytest.mark.parametrize("variant", [None, "m0-unit", "m0-complement"])
def test_identities_build_each_failing_set_with_one_union(name, variant):
    bank = library_bank(family_named(name), 4)
    if variant is not None:
        bank = variant_bank(bank, variant)
    with _Calls((PSet, "union"), (PSet, "difference"), (mra, "_cover_defects")) as calls:
        report = verify_filter_identities(bank, max(bank.resolution, 1))
    assert report.passed == (variant is None)
    # Two failing sets (columns, rows), one union each, and no difference.
    assert calls.counts.get("union", 0) <= 2
    assert calls.counts.get("difference", 0) == 0
    assert calls.counts["_cover_defects"] == bank.p + 1


def test_union_draws_repeat_and_nest_across_the_sets():
    seen = set()
    for seed in range(20):
        a, b = drawn_union_inputs(seed, 3)
        seen.update(cylinder_relation(x, y) for x in a.cylinders for y in b.cylinders)
    assert {"equal", "contains", "within"} <= seen
