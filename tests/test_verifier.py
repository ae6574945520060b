import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin_wavelets.errors import FamilyArityError
from vilenkin_wavelets.famio import family_from_document
from vilenkin_wavelets.group import from_digits, lambda_encode
from vilenkin_wavelets.setalg import (
    Cylinder,
    Measure,
    PSet,
    _truncate,
    annulus,
    theta_ball,
    unit_cell,
)
from vilenkin_wavelets.verifier import (
    ConditionRecord,
    WaveletFamily,
    _comb_upto,
    _cover_defects,
    _window_cell,
    check_dilation_tiling,
    check_measure_one,
    check_translation_congruence,
    congruence_defects,
    congruence_partition,
    is_wavelet_set,
    search_wavelet_sets,
    shannon_family,
)

from perfbench import gen, searchref

from .families import cells_set, empty_set
from .mutants import CONGRUENCE, MEASURE, TILING, all_mutants
from .oracle import CellSet, cylinder_integer_part, oracle_is_wavelet_set

rng = random.Random(90125)

_KEYS = {MEASURE: "measure", TILING: "tiling", CONGRUENCE: "congruence"}


def oracle_verdict(family, lo=-2, hi=3, **ranges):
    sets = [CellSet.from_pset(s, lo, hi) for s in family.sets]
    return oracle_is_wavelet_set(family.p, sets, **ranges)


class TestShannonFamilies:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_all_conditions_pass(self, p):
        report = is_wavelet_set(shannon_family(p))
        assert report.overall
        for record in report.conditions:
            assert record.passed and not record.witnesses

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_oracle(self, p):
        verdict = oracle_verdict(shannon_family(p), lo=0, hi=2)
        assert verdict["overall"]

    def test_certificate_translates_partition_unit_cell(self, p=3):
        family = shannon_family(p)
        for s in family.sets:
            parts = congruence_partition(s)
            union = parts[0][2]
            for _, _, piece in parts[1:]:
                assert union.intersect(piece).is_empty
                union = union.union(piece)
            assert union == unit_cell(p)

    def test_shannon_partition_is_single_translate(self, p=5):
        family = shannon_family(p)
        for u, s in enumerate(family.sets, start=1):
            parts = congruence_partition(s)
            assert len(parts) == 1
            n, piece, shifted = parts[0]
            from vilenkin_wavelets.group import lambda_encode

            assert lambda_encode(n) == u
            assert shifted == unit_cell(p)


class TestConditionChecks:
    def test_measure_one_reports_each_set(self):
        family = shannon_family(3).replace(1, theta_ball(3, 1))
        record = check_measure_one(family)
        assert not record.passed
        assert record.witnesses[0]["set"] == "omega1"
        assert record.witnesses[0]["measure"] == "1*3^-1"

    def test_unit_cell_in_family_is_degenerate(self):
        family = shannon_family(2).replace(1, unit_cell(2))
        record = check_dilation_tiling(family)
        kinds = {w["kind"] for w in record.witnesses}
        assert "contains-identity-neighborhood" in kinds
        assert "dilate-overlap" in kinds  # the d=1 self-overlap

    def test_unit_cell_is_trivially_congruent(self):
        family = shannon_family(2).replace(1, unit_cell(2))
        record, certificate = check_translation_congruence(family)
        assert record.passed
        assert certificate[0]["partition"][0]["lattice_index"] == 0

    def test_positive_position_digit_cannot_clear(self):
        family = shannon_family(2).replace(
            1, PSet(2, [Cylinder(2, 1, ((1, 1),))], validate=False)
        )
        record, _ = check_translation_congruence(family)
        assert not record.passed
        assert any(w["kind"] == "cover-gap" for w in record.witnesses)

    def test_empty_family_rejected(self):
        with pytest.raises(FamilyArityError):
            WaveletFamily(2, (), ())
        with pytest.raises(FamilyArityError):
            WaveletFamily(3, ("a",), (unit_cell(3),))


class TestMutants:
    @pytest.mark.parametrize("mutant", all_mutants(), ids=lambda m: f"p{m.p}-{m.name}")
    def test_expected_condition_outcomes(self, mutant):
        report = is_wavelet_set(mutant.family)
        assert not report.overall
        for name in mutant.must_fail:
            record = report.condition(name)
            assert not record.passed, f"{name} unexpectedly passed"
            assert record.witnesses, f"{name} failed without a witness"
        for name in mutant.must_pass:
            assert report.condition(name).passed, f"{name} unexpectedly failed"
        assert not report.condition(mutant.intended).passed

    @pytest.mark.parametrize(
        "mutant",
        [m for m in all_mutants((2, 3))],
        ids=lambda m: f"p{m.p}-{m.name}",
    )
    def test_against_oracle(self, mutant):
        report = is_wavelet_set(mutant.family)
        verdict = oracle_verdict(mutant.family)
        for name, key in _KEYS.items():
            assert report.condition(name).passed == verdict[key], name
        assert report.overall == verdict["overall"]

    def test_suite_is_large_enough(self):
        assert len(all_mutants()) >= 20

    def test_witnesses_are_deterministically_ordered(self):
        # Witness cells within one failure kind appear in lexicographic
        # (resolution, digits) order, so reports diff cleanly.
        for mutant in all_mutants((2, 3)):
            report = is_wavelet_set(mutant.family)
            for record in report.conditions:
                by_kind: dict = {}
                for witness in record.witnesses:
                    if "cell" in witness:
                        key = witness.get("kind", ""), witness.get("set", ""), witness.get("d", 0)
                        cell = witness["cell"]
                        cell_key = (
                            cell["resolution"],
                            tuple(sorted((int(k), v) for k, v in cell["digits"].items())),
                        )
                        by_kind.setdefault(key, []).append(cell_key)
                for cells in by_kind.values():
                    assert cells == sorted(cells)


class TestRangeRobustness:
    """The per-k reference over ranges 3 wider than L - w finds the
    verdict's tiling record: the fixed range is no tuning knob."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_widening_never_changes_shannon(self, p):
        assert_widening_changes_nothing(shannon_family(p), 3)

    @pytest.mark.parametrize("mutant", all_mutants((2, 3)), ids=lambda m: f"p{m.p}-{m.name}")
    def test_widening_never_changes_mutants(self, mutant):
        assert_widening_changes_nothing(mutant.family, 3)


class TestSearch:
    def test_contains_shannon(self):
        result = search_wavelet_sets(2, (0, 2))
        assert not result.exhausted
        shannon = shannon_family(2)
        assert any(f.sets == shannon.sets for f in result.families)

    def test_found_families_verify(self):
        result = search_wavelet_sets(2, (0, 2))
        for family in result.families:
            assert is_wavelet_set(family).overall

    def test_budget_zero(self):
        result = search_wavelet_sets(2, (0, 2), budget=0)
        assert result.families == [] and result.exhausted and result.examined == 0

    def test_budget_partial(self):
        full = search_wavelet_sets(2, (0, 2))
        part = search_wavelet_sets(2, (0, 2), budget=10)
        assert part.exhausted and part.examined == 10
        assert full.examined > part.examined

    def test_deterministic(self):
        a = search_wavelet_sets(2, (0, 2))
        b = search_wavelet_sets(2, (0, 2))
        assert [f.sets for f in a.families] == [f.sets for f in b.families]

    def test_full_search_matches_oracle(self):
        # Enumerate every candidate family independently and compare the
        # accepted sets cell-by-cell against the oracle's verdicts.
        p = 2
        atoms = [
            tuple((pos, d) for pos, d in zip(range(0, 3), combo) if d)
            for combo in itertools.product(range(p), repeat=3)
        ]
        accepted = []
        for combo in itertools.combinations(atoms, 4):
            family = WaveletFamily(
                p, ("omega1",), (cells_set(p, 2, combo),)
            )
            verdict = oracle_verdict(family, lo=0, hi=2)
            library = is_wavelet_set(family)
            assert library.overall == verdict["overall"]
            for name, key in _KEYS.items():
                assert library.condition(name).passed == verdict[key]
            if verdict["overall"]:
                accepted.append(family.sets)
        result = search_wavelet_sets(p, (0, 2))
        found = cylinders(f.sets for f in result.families)
        assert sorted(found, key=repr) == sorted(cylinders(accepted), key=repr)


class TestCongruenceImpliesMeasure:
    def test_every_congruent_candidate_has_measure_one(self):
        # Unit-translate congruence forces measure one; asserted over the
        # whole small-window candidate space rather than assumed.
        p = 2
        atoms = [
            tuple((pos, d) for pos, d in zip(range(0, 3), combo) if d)
            for combo in itertools.product(range(p), repeat=3)
        ]
        seen = 0
        for size in (2, 4, 6):
            for combo in itertools.combinations(atoms, size):
                family = WaveletFamily(
                    p, ("omega1",), (cells_set(p, 2, combo),)
                )
                record, _ = check_translation_congruence(family)
                if record.passed:
                    seen += 1
                    assert check_measure_one(family).passed
        assert seen > 0


class TestThreeShellFamily:
    def test_verifies_and_matches_oracle(self):
        from .families import three_shell_family

        family = three_shell_family()
        report = is_wavelet_set(family)
        assert report.overall
        verdict = oracle_verdict(family, lo=-1, hi=3)
        assert verdict["overall"]

    def test_range_widening_stable(self):
        from .families import three_shell_family

        family = three_shell_family()
        assert per_k_dilation_tiling(family, 3).passed
        assert_widening_changes_nothing(family, 3)

    def test_partition_uses_multiple_translates(self):
        from .families import three_shell_family
        from vilenkin_wavelets.group import lambda_encode

        family = three_shell_family()
        parts = congruence_partition(family.sets[0])
        indices = sorted(lambda_encode(n) for n, _, _ in parts)
        assert len(indices) > 1  # genuinely multi-piece congruence


class TestSearchBeyondBaseTwo:
    def test_p3_window_contains_coset_shuffles(self):
        result = search_wavelet_sets(3, (0, 1))
        assert not result.exhausted
        assert len(result.families) == 8
        shannon = shannon_family(3)
        assert any(f.sets == shannon.sets for f in result.families)
        for family in result.families:
            assert is_wavelet_set(family).overall


class TestRandomFamiliesAgainstOracle:
    @pytest.mark.parametrize("p", [2, 3])
    def test_random_candidates(self, p):
        # Random measure-one families, mostly invalid: both deciders must
        # agree on every condition.
        atoms = [
            tuple((pos, d) for pos, d in zip(range(0, 3), combo) if d)
            for combo in itertools.product(range(p), repeat=3)
        ]
        per_set = p**2
        for _ in range(60 if p == 2 else 25):
            pool = list(atoms)
            rng.shuffle(pool)
            sets = []
            ok = True
            for u in range(p - 1):
                chunk = pool[u * per_set : (u + 1) * per_set]
                if len(chunk) < per_set:
                    ok = False
                    break
                sets.append(cells_set(p, 2, chunk))
            if not ok:
                continue
            family = WaveletFamily(p, tuple(f"omega{u+1}" for u in range(p - 1)), tuple(sets))
            library = is_wavelet_set(family)
            verdict = oracle_verdict(family, lo=0, hi=2)
            for name, key in _KEYS.items():
                assert library.condition(name).passed == verdict[key]
            assert library.overall == verdict["overall"]


def brute_cover_defects(target, pieces):
    """Count every cell of every piece at the finest resolution present."""
    res = max([0, target.max_resolution] + [s.max_resolution for s in pieces if not s.is_empty])
    counts: dict = {}
    for piece in pieces:
        for cell in piece.cells_at(res):
            counts[cell] = counts.get(cell, 0) + 1
    return res, [
        (cell, counts.get(cell, 0))
        for cell in sorted(target.cells_at(res))
        if counts.get(cell, 0) != 1
    ]


def random_piece(gen, target, depth):
    """A union of a few random cylinders inside the target."""
    p = target.p
    piece = PSet(p, (), validate=False)
    for _ in range(gen.randint(1, 4)):
        top = gen.choice(target.cylinders)
        r = gen.randint(top.resolution, top.resolution + depth)
        tail = tuple((pos, d) for pos in range(top.resolution + 1, r + 1) if (d := gen.randrange(p)))
        piece = piece.union(PSet(p, (Cylinder(p, r, top.digits + tail),), validate=False))
    return piece


def tiling_pieces(family):
    union = family.union()
    level = union.max_resolution
    w_lo = union.min_fixed_position
    w_lo = level if w_lo is None else w_lo
    shell = annulus(family.p)
    return shell, [union.dilate(k).intersect(shell) for k in range(-level - 1, -w_lo + 2)]


@pytest.fixture
def refine_calls(monkeypatch):
    """(resolution, target) of every Cylinder.refine_to call in the test."""
    calls = []
    original = Cylinder.refine_to

    def recording_refine_to(self, L):
        calls.append((self.resolution, L))
        return original(self, L)

    monkeypatch.setattr(Cylinder, "refine_to", recording_refine_to)
    return calls


def defect_cells(p, entries, res):
    """The (cell, count) pairs at resolution res under the witness
    cylinders, sorted; each entry's "cells" must count them, and appear
    exactly when the entry is coarser than res."""
    cells = []
    for entry in entries:
        cylinder = Cylinder.from_json(p, entry["cell"])
        under = [c.digits for c in cylinder.refine_to(res)]
        assert ("cells" in entry) == (cylinder.resolution < res), entry
        base, _, depth = entry.get("cells", f"{p}^0").partition("^")
        assert (int(base), p ** int(depth)) == (p, len(under)), entry
        cells.extend((cell, entry["count"]) for cell in under)
    return res, sorted(cells)


def assert_defects_match_cells(target, pieces):
    """_cover_defects against counting every cell: the same cells with the
    same counts, from disjoint cylinders in (digits, resolution) order."""
    res, want = brute_cover_defects(target, pieces)
    entries = _cover_defects(target, pieces)
    assert defect_cells(target.p, entries, res) == (res, want)
    keys = [Cylinder.from_json(target.p, e["cell"]) for e in entries]
    assert [(c.digits, c.resolution) for c in keys] == sorted((c.digits, c.resolution) for c in keys)
    return entries


def assert_congruence_matches_cells(s):
    """congruence_defects against counting the cells of every resolution-0
    split of s, each moved into the unit cell on its own."""
    p = s.p
    cells = [cell for c in s.cylinders for cell in (c.refine_to(0) if c.resolution < 0 else (c,))]
    moved = [PSet(p, (cell.translate(cylinder_integer_part(cell).negate()),)) for cell in cells]
    res, want = brute_cover_defects(unit_cell(p), moved)
    _, entries = congruence_defects(s)
    assert defect_cells(p, entries, res) == (res, want)
    return entries


class TestCoverDefects:
    @pytest.mark.parametrize("p,depth", [(2, 4), (3, 3), (5, 2)])
    def test_random_pieces_match_cell_counting(self, p, depth):
        gen = random.Random(1000 + p)
        coarser = 0
        for target in (unit_cell(p), annulus(p)):
            for _ in range(80):
                pieces = [random_piece(gen, target, depth) for _ in range(gen.randint(1, 4))]
                entries = assert_defects_match_cells(target, pieces)
                coarser += sum("cells" in e for e in entries)
        assert coarser  # the cylinder form is exercised, not only single cells

    @pytest.mark.parametrize("mutant", all_mutants(), ids=lambda m: f"p{m.p}-{m.name}")
    def test_mutant_pieces_match_cell_counting(self, mutant):
        family = mutant.family
        for s in family.sets:
            translated = [t for _, _, t in congruence_partition(s)]
            assert_defects_match_cells(unit_cell(family.p), translated)
            assert_congruence_matches_cells(s)
        if not any(not c.digits for c in family.union().cylinders):
            shell, pieces = tiling_pieces(family)
            assert_defects_match_cells(shell, pieces)

    def test_overlap_splits_only_toward_finer_pieces(self):
        # Pieces (0, {0:1}), (1, {0:1}) and (3, {0:1}) of the shell: the
        # resolution-1 overlap splits along the chain toward the finest
        # one, so the witnesses are three cylinders, not 2**3 cells.
        p = 2
        pieces = [PSet(p, [Cylinder(p, r, ((0, 1),))]) for r in (0, 1, 3)]
        assert _cover_defects(annulus(p), pieces) == [
            {"cell": {"resolution": 3, "digits": {"0": 1}}, "count": 3},
            {"cell": {"resolution": 2, "digits": {"0": 1, "2": 1}}, "count": 2, "cells": "2^1"},
            {"cell": {"resolution": 3, "digits": {"0": 1, "3": 1}}, "count": 2},
        ]

    def test_congruence_splits_only_coarse_cylinders(self, refine_calls):
        # A 2-adic set congruent to the unit cell with 19 cylinders at
        # resolution 18: the cells of the chain (r, {r: 1}) for r = 1..18
        # plus the depth-18 ball, each moved by a different lattice point.
        R = 18
        chain = [Cylinder(2, r, ((r, 1),)) for r in range(1, R + 1)] + [Cylinder(2, R, ())]
        moved = [
            c.translate(from_digits(2, {-pos: 1 for pos in range(5) if (i >> pos) & 1}))
            for i, c in enumerate(chain)
        ]
        s = PSet(2, moved)
        assert s.max_resolution == R and len(s.cylinders) == R + 1

        family = WaveletFamily(2, ("omega1",), (s,))
        record, certificate = check_translation_congruence(family)
        assert record.passed and not record.witnesses
        assert len(certificate[0]["partition"]) == R + 1
        assert not refine_calls

    def test_negative_resolution_cylinder_is_one_piece(self, refine_calls):
        # (-1, {-1: 2}) spans three integer parts: one piece, whose
        # translated piece, the unit cell, counts three times.
        s = PSet(3, (Cylinder(3, -1, ((-1, 2),)),))
        [(n, piece, shifted)] = congruence_partition(s)
        assert (lambda_encode(n), piece, shifted) == (6, s, unit_cell(3))
        _, entries = congruence_defects(s)
        assert entries == [{"cell": {"resolution": 0, "digits": {}}, "count": 3}]
        assert not refine_calls
        assert assert_congruence_matches_cells(s) == entries

    @pytest.mark.parametrize("p", [2, 3])
    def test_coarse_cylinders_count_their_translates(self, p):
        # Random sets that mix cylinders coarser than resolution 0 with
        # finer ones: the defects are those of the resolution-0 split.
        gen = random.Random(f"coarse-{p}")
        coarse = 0
        for _ in range(40):
            cylinders = []
            for _ in range(gen.randint(1, 4)):
                r = gen.randint(-2, 2)
                digits = tuple((pos, d) for pos in range(-3, r + 1) if (d := gen.randrange(p)))
                cylinders.append(Cylinder(p, r, digits))
            s = empty_set(p)
            for c in cylinders:
                s = s.union(PSet(p, (c,)))
            coarse += any(c.resolution < 0 for c in s.cylinders)
            assert_congruence_matches_cells(s)
        assert coarse > 10


# -- transversal search against the enumeration it replaced ---------------------------

SEARCH_WINDOWS = searchref.WINDOWS + [(2, 0, 2), (2, 0, 0), (3, 0, 0), (2, 1, 2)]


@functools.lru_cache(maxsize=None)
def old_candidates(p, lo, hi):
    """Every candidate of the search before the transversal walk, in its
    order, as (atoms of each member, whether is_wavelet_set passes it)."""
    atoms = [
        tuple((pos, d) for pos, d in zip(range(lo, hi + 1), combo) if d)
        for combo in itertools.product(range(p), repeat=hi - lo + 1)
    ]
    per_set = p**hi

    def candidates(pool, chosen):
        if len(chosen) == p - 1:
            yield tuple(chosen)
            return
        for combo in itertools.combinations(pool, per_set):
            remaining = tuple(a for a in pool if a not in set(combo))
            chosen.append(combo)
            yield from candidates(remaining, chosen)
            chosen.pop()

    out = []
    if per_set * (p - 1) <= len(atoms):
        names = tuple(f"omega{u}" for u in range(1, p))
        for candidate in candidates(tuple(atoms), []):
            sets = tuple(cells_set(p, hi, maps) for maps in candidate)
            out.append((candidate, is_wavelet_set(WaveletFamily(p, names, sets)).overall))
    return tuple(out)


def old_count(p, lo, hi):
    """How many candidates old_candidates lists: each member chooses p**hi
    of the atoms the earlier members left."""
    n, per_set, count = p ** (hi - lo + 1), p**hi, 1
    for k in range(p - 1):
        count *= math.comb(max(n - k * per_set, 0), per_set)
    return count


# Every window of p = 2, 3, 5 with top 0..3 and at most 2,000 candidates.
CHEAP_WINDOWS = [
    (p, lo, hi)
    for p in (2, 3, 5)
    for hi in range(4)
    for lo in range(hi - 5, min(hi, 1) + 1)
    if old_count(p, lo, hi) <= 2000
]


def old_search(p, lo, hi, budget=None):
    """(examined, exhausted, found member sets) as the old loop gave them."""
    found, examined, exhausted = [], 0, False
    for candidate, passed in old_candidates(p, lo, hi):
        if budget is not None and examined >= budget:
            exhausted = True
            break
        examined += 1
        if passed:
            found.append(tuple(cells_set(p, hi, maps) for maps in candidate))
    return examined, exhausted, found


def assert_all_verify(families, lo, hi):
    """Each family passes is_wavelet_set and the oracle, whose default
    ranges reach every dilate a nesting pair of the window needs (at most
    hi - lo) and every shell piece of its three shells."""
    for family in families:
        assert is_wavelet_set(family).overall
        assert oracle_verdict(family, lo, hi)["overall"]


def cylinders(sets_list):
    return [[s.cylinders for s in sets] for sets in sets_list]


class TestTransversalSearch:
    @pytest.mark.parametrize("p,lo,hi", SEARCH_WINDOWS)
    def test_matches_old_search_at_every_budget(self, p, lo, hi):
        total = len(old_candidates(p, lo, hi))
        gen = random.Random(7000 + 100 * p + 10 * lo + hi)
        budgets = {None, 0, 1, 2, max(total - 1, 0), total, total + 1}
        budgets |= {gen.randint(0, total + 1) for _ in range(5)}
        for budget in budgets:
            examined, exhausted, found = old_search(p, lo, hi, budget)
            result = search_wavelet_sets(p, (lo, hi), budget=budget)
            assert (result.examined, result.exhausted) == (examined, exhausted), budget
            assert cylinders(f.sets for f in result.families) == cylinders(found), budget

    @pytest.mark.parametrize("p,lo,hi", SEARCH_WINDOWS)
    def test_decider_sees_exactly_the_families_that_verify(self, p, lo, hi):
        # The walk is the decision: it returns exactly the candidates that
        # verify, and each passes is_wavelet_set and the oracle.
        families = search_wavelet_sets(p, (lo, hi)).families
        assert cylinders(f.sets for f in families) == cylinders(old_search(p, lo, hi)[2])
        assert_all_verify(families, lo, hi)

    @pytest.mark.parametrize("p,lo,hi", [(2, -2, 2), (3, -1, 1)])
    def test_decider_sees_only_families_that_verify(self, p, lo, hi):
        # Windows too large for the old search (35,960 and 5,920,200
        # candidates); with p = 3 a later member can pick an atom whose
        # shell key contains an earlier member's key.
        families = search_wavelet_sets(p, (lo, hi)).families
        assert families
        assert_all_verify(families, lo, hi)

    @pytest.mark.parametrize("p,lo,hi", CHEAP_WINDOWS)
    @given(data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=15)
    def test_drawn_budgets_match_old_search(self, p, lo, hi, data):
        # The old search ran is_wavelet_set on every candidate; the walk
        # must examine, flag and find exactly what it did.  Every cheap
        # window is taken, so a walk that goes wrong on one never passes.
        total = len(old_candidates(p, lo, hi))
        budget = data.draw(st.one_of(
            st.sampled_from([None, 0, max(total - 1, 0), total, total + 1]),
            st.integers(0, total + 1),
        ))
        examined, exhausted, found = old_search(p, lo, hi, budget)
        result = search_wavelet_sets(p, (lo, hi), budget=budget)
        assert (result.examined, result.exhausted) == (examined, exhausted)
        assert cylinders(f.sets for f in result.families) == cylinders(found)

    @pytest.mark.parametrize("p,lo,hi", [(2, 0, 2), (2, -1, 1), (3, -1, 0)])
    def test_pruning_rules_decide_every_candidate(self, p, lo, hi):
        # The rules as stated, on each candidate: no zero atom, each member
        # a transversal of the fractional classes, no two nesting shell
        # keys, and shell keys that fill the shell by weight.
        shell = (p - 1) * p ** (hi - lo)
        for candidate, passed in old_candidates(p, lo, hi):
            atoms = [x for member in candidate for x in member]
            if not all(atoms):
                assert not passed
                continue
            transversal = all(
                len({tuple(pd for pd in x if pd[0] > 0) for x in member}) == len(member)
                for member in candidate
            )
            keys = [(hi - x[0][0], tuple((pos - x[0][0], d) for pos, d in x)) for x in atoms]
            nested = any(
                i != j and a[0] <= b[0] and _truncate(b[1], a[0]) == a[1]
                for i, a in enumerate(keys)
                for j, b in enumerate(keys)
            )
            weight = sum(p ** (x[0][0] - lo) for x in atoms)
            assert (transversal and not nested and weight == shell) == passed

    @pytest.mark.parametrize("p,lo,hi", [(2, -2, 1), (3, -1, 0), (5, 0, 0)])
    def test_window_cells_in_product_order(self, p, lo, hi):
        cells = [
            tuple((pos, d) for pos, d in zip(range(lo, hi + 1), combo) if d)
            for combo in itertools.product(range(p), repeat=hi - lo + 1)
        ]
        assert [_window_cell(p, lo, hi, i) for i in range(len(cells))] == cells

    def test_capped_binomials(self):
        for n in range(0, 14):
            for k in range(-1, n + 3):
                exact = math.comb(n, k) if k >= 0 else 0
                for cap in (1, 2, 7, 100, math.inf):
                    assert _comb_upto(n, k, cap) == min(exact, cap), (n, k, cap)

    def test_huge_budgeted_window_counts_without_huge_binomials(self):
        # comb(2**20, 2**19) alone takes seconds; the capped counts do not.
        result = search_wavelet_sets(2, (0, 19), budget=10)
        assert (result.examined, result.exhausted, result.families) == (10, True, [])

    @pytest.mark.parametrize("window", [(-2, -1), (2, 3), (5, 40)])
    def test_windows_without_candidates(self, window, monkeypatch):
        import vilenkin_wavelets.verifier as verifier

        monkeypatch.setattr(verifier, "_window_cell", None)
        for budget in (None, 0, 3):
            result = search_wavelet_sets(2, window, budget=budget)
            assert (result.examined, result.exhausted, result.families) == (0, False, [])


# -- dilation tiling against the per-k shell intersections -----------------------------


def per_k_dilation_tiling(family, extra_range=0):
    """check_dilation_tiling computed the direct way: every shell piece is
    the union dilated by k and intersected with the shell, for every k of
    the shell range, every overlap is a fresh intersection of the union
    with its dilate for every d of the dilate range, and the cover defects
    are counted cell by cell.  Counting cells past MAX_RESOLUTION raises,
    so this reference holds only below the cap.

    Both ranges are scanned extra_range wider than the fixed ones, L - w
    long, that the record reports; a wider scan that finds the same
    record shows that the fixed ranges miss nothing."""
    p = family.p
    witnesses = []
    for (n1, s1), (n2, s2) in itertools.combinations(zip(family.names, family.sets), 2):
        overlap = s1.intersect(s2)
        if not overlap.is_empty:
            witnesses.append({"kind": "set-overlap", "sets": [n1, n2], "cell": least(overlap)})
    union = family.union()
    theta_cells = [c for c in union.cylinders if not c.digits]
    degenerate = bool(theta_cells)
    if degenerate:
        witnesses.append({
            "kind": "contains-identity-neighborhood",
            "cell": min(theta_cells, key=Cylinder.sort_key).to_json(),
        })
    level = union.max_resolution
    w_lo = union.min_fixed_position
    w_lo = level if w_lo is None else w_lo
    # A degenerate union meets its dilate by every d >= 1; the overlaps
    # are listed up to L - w whatever the extra range.
    d_hi = max(level - w_lo, 1) if degenerate else max(level - w_lo, 0)
    d_scan = d_hi if degenerate else d_hi + extra_range
    for d in range(1, d_scan + 1):
        overlap = union.intersect(union.dilate(d))
        if not overlap.is_empty:
            witnesses.append({"kind": "dilate-overlap", "d": d, "cell": least(overlap)})
    if degenerate:
        return ConditionRecord("dilation-tiling", False, witnesses, {"resolution": level, "degenerate": True})
    shell = annulus(p)
    k_lo, k_hi = -level, -w_lo
    k_scan = range(k_lo - extra_range, k_hi + extra_range + 1)
    pieces = [union.dilate(k).intersect(shell) for k in k_scan]
    total = Measure.zero(p)
    for piece in pieces:
        total = total + piece.measure()
    res, defects = brute_cover_defects(shell, pieces)
    witnesses.extend(
        {"kind": "cover-defect", "cell": Cylinder(p, res, cell).to_json(), "count": got}
        for cell, got in defects
    )
    return ConditionRecord("dilation-tiling", not witnesses, witnesses, {
        "resolution": level,
        "lowest_fixed_position": w_lo,
        "dilate_range": [1, d_hi],
        "shell_range": [k_lo, k_hi],
        "shell_measure": total.exact_string(),
    })


def least(s):
    return min(s.cylinders, key=Cylinder.sort_key).to_json()


def cell_resolution(p, entries):
    """The cell resolution of _cover_defects entries: an entry of
    resolution r spans "p^(res - r)" cells of it."""
    res = None
    for entry in entries:
        base, _, depth = entry.get("cells", f"{p}^0").partition("^")
        assert int(base) == p, entry
        r = entry["cell"]["resolution"] + int(depth)
        assert res in (None, r), entries
        res = r
    return res


def expand_cover_defects(p, witnesses):
    """The witnesses with every cover-defect cylinder expanded into the
    cells under it, in the cell order of counting every cell."""
    defects = [w for w in witnesses if w["kind"] == "cover-defect"]
    if not defects:
        return witnesses
    res, cells = defect_cells(p, defects, cell_resolution(p, defects))
    rest = [w for w in witnesses if w["kind"] != "cover-defect"]
    return rest + [
        {"kind": "cover-defect", "cell": Cylinder(p, res, cell).to_json(), "count": got}
        for cell, got in cells
    ]


def tiling_outcome(p, record):
    """The record's fields, cover defects expanded into cells."""
    return record.name, record.passed, expand_cover_defects(p, record.witnesses), record.details


def assert_widening_changes_nothing(family, extra_range):
    """The verdict's tiling record is the per-k reference's over ranges
    extra_range wider: same verdict, witnesses and details."""
    record = is_wavelet_set(family).condition("dilation-tiling")
    want = tiling_outcome(family.p, per_k_dilation_tiling(family, extra_range))
    assert tiling_outcome(family.p, record) == want


def scan_wider(family, record, extra_range):
    """The d with a dilate overlap and the nonempty shell pieces {k: measure}
    of the union over the record's ranges widened by extra_range, by set
    operations alone: no cell is counted, so this holds past the cap."""
    union, shell = family.union(), annulus(family.p)
    _, d_hi = record.details["dilate_range"]
    k_lo, k_hi = record.details["shell_range"]
    overlaps = [
        d for d in range(1, d_hi + extra_range + 1) if not union.intersect(union.dilate(d)).is_empty
    ]
    pieces = {}
    for k in range(k_lo - extra_range, k_hi + extra_range + 1):
        piece = union.dilate(k).intersect(shell)
        if not piece.is_empty:
            pieces[k] = piece.measure()
    return overlaps, pieces


def seeded_families(p, strata):
    """PASS families of the given (R, w, cells) strata and their FAIL mutants."""
    gen_rng = random.Random(f"tiling:{p}")
    out = []
    for R, w, n in strata:
        base = gen.pass_family(gen_rng, p, R, w, n)
        fams = [base, gen.shift_mutant(gen_rng, base), gen.group_shift_mutant(gen_rng, base)]
        if p >= 3:
            fams.append(gen.dup_mutant(gen_rng, base))
        out.extend(family_from_document(f.document()) for f in fams if f is not None)
    return out


def random_atom_families(p, count):
    """Measure-one families of random resolution-2 atoms: most overlap
    their dilates, cover the shell twice or hold the identity cell."""
    gen_rng = random.Random(4242 + p)
    atoms = [
        tuple((pos, d) for pos, d in zip(range(-1, 3), combo) if d)
        for combo in itertools.product(range(p), repeat=4)
    ]
    names = tuple(f"omega{u}" for u in range(1, p))
    out = []
    for _ in range(count):
        pool = gen_rng.sample(atoms, (p - 1) * p**2)
        sets = tuple(cells_set(p, 2, pool[u * p**2 : (u + 1) * p**2]) for u in range(p - 1))
        out.append(WaveletFamily(p, names, sets))
    return out


def random_mixed_families(p, count):
    """Families of a few random cylinders of resolutions -1..2, so that a
    cylinder can lie strictly inside a dilate of a coarser one."""
    gen_rng = random.Random(777 + p)
    names = tuple(f"omega{u}" for u in range(1, p))
    out = []
    for _ in range(count):
        sets = []
        for _ in names:
            s = PSet(p, (), validate=False)
            for _ in range(gen_rng.randint(1, 4)):
                r = gen_rng.randint(-1, 2)
                digits = tuple((pos, d) for pos in range(-2, r + 1) if (d := gen_rng.randrange(p)))
                s = s.union(PSet(p, (Cylinder(p, r, digits),)))
            sets.append(s)
        out.append(WaveletFamily(p, names, tuple(sets)))
    return out


def identity_families(p):
    """Families holding an identity cylinder next to cylinders coarser and
    finer than it: their dilates fall into it from different d on."""
    names = tuple(f"omega{u}" for u in range(1, p))
    out = []
    for r in (1, 2, 3):
        cylinders = [
            Cylinder(p, r, ()),
            Cylinder(p, 0, ((-1, 1), (0, 1))),
            Cylinder(p, r + 1, ((0, 1), (r + 1, 1))),
            Cylinder(p, r - 1, ((-2, 1),)),
        ]
        sets = [PSet(p, cylinders)] + [PSet(p, [Cylinder(p, 0, ((-2, u),))]) for u in range(2, p)]
        out.append(WaveletFamily(p, names, tuple(sets)))
    return out


TILING_STRATA = {
    2: [(0, 0, 1), (2, -1, 6), (4, -2, 12), (6, -2, 24)],
    3: [(0, 0, 2), (2, -1, 14), (4, -2, 40)],
    5: [(0, 0, 4), (2, -1, 48)],
}


def hand_gaps(witnesses):
    """The shell gaps of a tiling record whose only cover defects are gaps,
    as (resolution, digits) keys."""
    defects = [w for w in witnesses if w["kind"] == "cover-defect"]
    assert defects and all(w["count"] == 0 for w in defects)
    return sorted(
        (w["cell"]["resolution"], tuple(sorted((int(k), v) for k, v in w["cell"]["digits"].items())))
        for w in defects
    )


def family_window(family):
    """The narrowest window around position 0 that holds the family's cylinders."""
    cylinders = [c for s in family.sets for c in s.cylinders]
    lo = min([0] + [c.min_fixed_position for c in cylinders if c.min_fixed_position is not None])
    return lo, max([0] + [c.resolution for c in cylinders])


class TestOracleRanges:
    """The oracle's default ranges, read off the cells' window."""

    @pytest.mark.parametrize("p,lo,hi", searchref.WINDOWS)
    def test_every_search_candidate_matches_the_library(self, p, lo, hi):
        for candidate, passed in old_candidates(p, lo, hi):
            sets = [CellSet.from_pset(cells_set(p, hi, maps), lo, hi) for maps in candidate]
            assert oracle_is_wavelet_set(p, sets)["overall"] == passed, candidate

    @pytest.mark.parametrize("mutant", all_mutants(), ids=lambda m: f"p{m.p}-{m.name}")
    def test_every_mutant_matches_the_library(self, mutant):
        report = is_wavelet_set(mutant.family)
        verdict = oracle_verdict(mutant.family, *family_window(mutant.family))
        for name, key in _KEYS.items():
            assert report.condition(name).passed == verdict[key], name
        assert report.overall == verdict["overall"]

    def test_p5_window_families_verify(self):
        # Fixed ranges (dilates to 8) would build sets of 5**9 cells here.
        families = search_wavelet_sets(5, (0, 0)).families
        assert len(families) == 24
        for family in families:
            assert oracle_verdict(family, 0, 0)["overall"]

    def test_default_dilate_range_reaches_the_window_width(self):
        # The dilate by hi - lo = 2 moves the cell (1, 0, 0) onto (0, 0, 1):
        # the only overlap, which no shell is checked for here.
        cells = CellSet(2, 0, 2, frozenset({(1, 0, 0), (0, 0, 1)}))
        assert not oracle_is_wavelet_set(2, [cells], shell_indices=())["tiling"]
        assert oracle_is_wavelet_set(2, [cells], dilate_range=1, shell_indices=())["tiling"]
        record = check_dilation_tiling(WaveletFamily(2, ("omega1",), (cells.to_pset(),)))
        assert [w["d"] for w in record.witnesses if w["kind"] == "dilate-overlap"] == [2]

    def test_explicit_ranges_override_the_window(self):
        # Shifts by 0 alone leave two of the three shells uncovered.
        family = shannon_family(2)
        assert oracle_verdict(family, 0, 2)["tiling"]
        assert not oracle_verdict(family, 0, 2, dilate_range=1, shift_range=0)["tiling"]


class TestShellPieces:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("extra_range", [0, 1, 2, 40])
    def test_matches_per_k_intersections(self, p, extra_range):
        families = seeded_families(p, TILING_STRATA[p]) + random_atom_families(p, 12)
        families += random_mixed_families(p, 20) + identity_families(p)
        families += [m.family for m in all_mutants() if m.p == p]
        verdicts, degenerate = set(), 0
        for family in families:
            want = tiling_outcome(p, per_k_dilation_tiling(family, extra_range))
            assert tiling_outcome(p, check_dilation_tiling(family)) == want
            verdicts.add(want[1])
            degenerate += want[3].get("degenerate", False)
        assert verdicts == {True, False} and degenerate >= 4

    def test_cylinder_inside_a_coarser_dilate_is_an_overlap(self):
        # The dilate by 1 of the resolution-0 cylinder is the resolution-1
        # cylinder pinning 1 at position 0, which holds the other one.
        coarse, fine = Cylinder(2, 0, ((-1, 1),)), Cylinder(2, 3, ((0, 1), (3, 1)))
        family = WaveletFamily(2, ("omega1",), (PSet(2, [coarse, fine]),))
        record = check_dilation_tiling(family)
        assert record.witnesses[0] == {"kind": "dilate-overlap", "d": 1, "cell": fine.to_json()}
        assert tiling_outcome(2, record) == tiling_outcome(2, per_k_dilation_tiling(family))

    def test_over_cap_union_keeps_the_dilate_error(self):
        # Resolutions 20, 26 and 30, which the per-d dilates used to stop
        # at the cap: the shell keys (20, {0, 1}), (26, {0, 26}) and
        # (31, {0}) nest nowhere, so there is no dilate overlap, and the
        # shell minus them is one gap per level of each key's chain.
        s = PSet(2, [
            Cylinder(2, 26, ((0, 1), (26, 1))),
            Cylinder(2, 20, ((0, 1), (1, 1))),
            Cylinder(2, 30, ((-1, 1),)),
        ])
        family = WaveletFamily(2, ("omega1",), (s,))
        keys = [(20, ((0, 1), (1, 1))), (26, ((0, 1), (26, 1))), (31, ((0, 1),))]
        gaps = sorted(
            [(q, ((0, 1), (1, 1), (q, 1))) for q in range(2, 21)]
            + [(q, ((0, 1), (q, 1))) for q in range(2, 26)]
            + [(q, ((0, 1), (q, 1))) for q in range(27, 32)]
        )
        assert sum(Fraction(1, 2**r) for r, _ in gaps + keys) == 1  # they tile the shell
        record = check_dilation_tiling(family)
        assert not record.passed
        assert {w["kind"] for w in record.witnesses} == {"cover-defect"}
        assert hand_gaps(record.witnesses) == gaps
        assert record.details["shell_measure"] == "2081*2^-31"  # 2^-20 + 2^-26 + 2^-31
        assert record.details["dilate_range"] == [1, 31]
        # Scans past the reported ranges find no other overlap or piece.
        for extra_range in (0, 2, 40):
            overlaps, pieces = scan_wider(family, record, extra_range)
            assert overlaps == []
            assert {k: m.exact_string() for k, m in pieces.items()} == {0: "65*2^-26", 1: "1*2^-31"}

    @pytest.mark.parametrize("w,extra_range", [(-28, 0), (-24, 3), (-24, 4), (-20, 8)])
    def test_shell_range_past_cap_keeps_the_dilate_error(self, w, extra_range):
        # All resolutions below 0, where the shell range used to reach past
        # the cap: the one cylinder's shell key is (-2 - w, {0}), and the
        # shell minus it is the chain of gaps (q, {0, q}) for q up to -2 - w.
        family = WaveletFamily(2, ("omega1",), (PSet(2, [Cylinder(2, -2, ((w, 1),))]),))
        record = check_dilation_tiling(family)
        assert not record.passed
        assert hand_gaps(record.witnesses) == [(q, ((0, 1), (q, 1))) for q in range(1, -1 - w)]
        assert record.details["shell_measure"] == f"1*2^{2 + w}"
        assert record.details["shell_range"] == [2, -w]
        # A scan extra_range past the reported ranges, to -w + extra_range
        # beyond the cap, finds only the one piece, and no overlap.
        overlaps, pieces = scan_wider(family, record, extra_range)
        assert overlaps == []
        assert {k: m.exact_string() for k, m in pieces.items()} == {-w: f"1*2^{2 + w}"}
        congruence, _ = check_translation_congruence(family)
        assert congruence.witnesses == [
            {"kind": "translate-overlap", "set": "omega1", "cell": {"resolution": 0, "digits": {}}, "count": 4}
        ]
