"""The verifier's one-index paths against the pairwise code they replace.

The member overlaps and the union are read off one nesting index over
all members' cylinders, and the congruence partition off the digit maps.
The references below are the earlier code: pairwise intersects, a
chained union, and a partition built by group arithmetic and
Cylinder.translate.  They are compared on the shipped family files, the
mutants and drawn families whose members overlap, nest, repeat and hold
cylinders coarser than resolution 0.
"""

import itertools
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin_wavelets import verifier
from vilenkin_wavelets.famio import parse_family_file
from vilenkin_wavelets.group import GroupElement, from_digits, lambda_encode
from vilenkin_wavelets.setalg import Cylinder, PSet, annulus, unit_cell
from vilenkin_wavelets.verifier import (
    WaveletFamily,
    _overlaps_and_union,
    congruence_partition,
    is_wavelet_set,
    search_wavelet_sets,
    shannon_family,
)

from .families import coset_shuffle_family, three_shell_family
from .mutants import all_mutants
from .oracle import cylinder_integer_part, cylinder_relation

FAMILY_FILES = sorted(pathlib.Path("families").glob("*.json"))


# -- references ----------------------------------------------------------------------


def reference_overlaps_and_union(sets):
    """Pairwise intersects and a chained union."""
    least = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(sets), 2):
        overlap = a.intersect(b)
        if not overlap.is_empty:
            c = min(overlap.cylinders, key=Cylinder.sort_key)
            least[i, j] = (c.resolution, c.digits)
    union = sets[0]
    for s in sets[1:]:
        union = union.union(s)
    return least, union


def reference_congruence_partition(s):
    """Groups by GroupElement integer part, each piece translated by -n."""
    p = s.p
    groups = {}
    for c in s.cylinders:
        n = cylinder_integer_part(c) if c.resolution >= 0 else from_digits(p, dict(c.digits))
        groups.setdefault(n, []).append(c)
    out = []
    for n in sorted(groups, key=lambda_encode):
        piece = PSet._canonical(p, tuple(groups[n]))
        coarse = piece.cylinders[0].resolution < 0
        out.append((n, piece, unit_cell(p) if coarse else piece.translate(n.negate())))
    return out


def reference_is_wavelet_set(family):
    """is_wavelet_set with the reference paths and freshly built constants."""
    with mock.patch.multiple(
        verifier,
        _overlaps_and_union=reference_overlaps_and_union,
        congruence_partition=reference_congruence_partition,
        _unit_cell=unit_cell,
        _annulus=annulus,
    ):
        return is_wavelet_set(family)


def assert_paths_match(family):
    least, union = _overlaps_and_union(family.sets)
    assert (least, union) == reference_overlaps_and_union(family.sets)
    assert union.cylinders == reference_overlaps_and_union(family.sets)[1].cylinders
    assert family.union() == union
    for s in family.sets:
        assert congruence_partition(s) == reference_congruence_partition(s)
    assert is_wavelet_set(family) == reference_is_wavelet_set(family)


# -- families --------------------------------------------------------------------------


@pytest.mark.parametrize("path", FAMILY_FILES, ids=lambda path: path.stem)
def test_family_files(path):
    assert_paths_match(parse_family_file(str(path)))


@pytest.mark.parametrize("mutant", all_mutants(), ids=lambda m: f"{m.name}-p{m.p}")
def test_mutants(mutant):
    assert_paths_match(mutant.family)


def test_named_and_searched_families():
    families = [three_shell_family(), coset_shuffle_family()]
    families += [shannon_family(p) for p in (2, 3, 5)]
    families += search_wavelet_sets(3, (0, 1)).families
    for family in families:
        assert_paths_match(family)


def _random_cylinder(rng, p):
    resolution = rng.randint(-2, 3)
    digits = tuple(
        (pos, d) for pos in range(-3, resolution + 1) if (d := rng.choice([0, 0, *range(1, p)]))
    )
    return Cylinder(p, resolution, digits)


def _child(rng, c):
    """A cylinder one or two resolutions finer inside c."""
    resolution = c.resolution + rng.randint(1, 2)
    tail = tuple(
        (pos, d)
        for pos in range(c.resolution + 1, resolution + 1)
        if (d := rng.randrange(c.p))
    )
    return Cylinder(c.p, resolution, c.digits + tail)


def drawn_family(seed, p):
    """p - 1 members drawn from a small shared pool, so that they overlap,
    nest and repeat; cylinders coarser than resolution 0 included."""
    rng = random.Random(seed)
    pool = [_random_cylinder(rng, p) for _ in range(3)]
    members = []
    for _ in range(p - 1):
        if members and rng.random() < 0.2:
            members.append(rng.choice(members))  # a repeated member
            continue
        kept = []
        for _ in range(rng.randint(1, 4)):
            base = rng.choice(pool)
            c = rng.choice([base, _child(rng, base), _random_cylinder(rng, p)])
            if all(cylinder_relation(c, k) == "disjoint" for k in kept):
                kept.append(c)
        members.append(PSet(p, kept))
    return WaveletFamily(p, tuple(f"omega{u}" for u in range(1, p)), tuple(members))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32))
def test_drawn_families(p, seed):
    assert_paths_match(drawn_family(seed, p))


def test_drawn_families_overlap_nest_and_go_coarse():
    # The draws above do reach every case the one index must handle.
    seen = set()
    for seed in range(300):
        family = drawn_family(seed, 3)
        cylinders = [c for s in family.sets for c in s.cylinders]
        for a, b in itertools.combinations(cylinders, 2):
            seen.add(cylinder_relation(a, b))
        if any(c.resolution < 0 for c in cylinders):
            seen.add("coarse")
        if _overlaps_and_union(family.sets)[0]:
            seen.add("overlap")
    assert {"equal", "contains", "within", "coarse", "overlap"} <= seen


# -- structure ----------------------------------------------------------------------------


class _Calls:
    """Counts calls of some methods while the context is open."""

    def __init__(self, *targets):
        self.targets = targets
        self.counts = {}

    def __enter__(self):
        self.patches = []
        for owner, name in self.targets:
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                self.counts[_name] = self.counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            patch = mock.patch.object(owner, name, counted)
            patch.start()
            self.patches.append(patch)
        return self

    def __exit__(self, *exc):
        for patch in reversed(self.patches):
            patch.stop()


@pytest.mark.parametrize(
    "name, family",
    [("shannon", shannon_family(5)), *((m.name, m.family) for m in all_mutants((5,)))],
)
def test_one_union_and_no_pairwise_set_operations(name, family):
    with _Calls(
        (PSet, "intersect"),
        (PSet, "union"),
        (PSet, "difference"),
        (verifier, "_overlaps_and_union"),
    ) as calls:
        is_wavelet_set(family)
    assert calls.counts.get("intersect", 0) == 0
    assert calls.counts.get("union", 0) == 0
    assert calls.counts.get("difference", 0) == 0
    assert calls.counts.get("_overlaps_and_union", 0) <= 1


def test_one_union_per_family_through_the_mra_stages():
    # The spectrum, the filters and Calderon each read the family union,
    # as a certify run does; the family computes it once.
    from vilenkin_wavelets import mra

    family = three_shell_family()
    verdict = is_wavelet_set(family)
    with _Calls((verifier, "_overlaps_and_union")) as calls:
        sigma = mra.accumulate_omega_sigma(family, 6, verdict=verdict)
        mra.build_filters(family, sigma)
        mra.verify_calderon(family, sigma, verdict=verdict)
    assert calls.counts == {"_overlaps_and_union": 1}
    assert family.union() is family.union()


def test_congruence_partition_does_no_group_arithmetic():
    sets = [s for m in all_mutants((5,)) for s in m.family.sets]
    sets += [s for family in search_wavelet_sets(3, (-1, 1)).families for s in family.sets]
    with _Calls(
        (GroupElement, "add"),
        (GroupElement, "negate"),
        (Cylinder, "translate"),
        (PSet, "translate"),
    ) as calls:
        for s in sets:
            congruence_partition(s)
    assert calls.counts == {}


def test_search_builds_only_the_found_members():
    # The walk decides every candidate: no verifier condition and no set
    # operation runs, and only the members of the found families are built.
    p = 5
    with _Calls(
        (verifier, "is_wavelet_set"),
        (verifier, "check_measure_one"),
        (verifier, "check_dilation_tiling"),
        (verifier, "check_translation_congruence"),
        (PSet, "intersect"),
        (PSet, "union"),
        (PSet, "difference"),
        (PSet, "__init__"),
        (PSet, "_canonical"),
    ) as calls:
        result = search_wavelet_sets(p, (0, 0))
    assert len(result.families) == 24
    assert calls.counts == {"__init__": (p - 1) * len(result.families)}
