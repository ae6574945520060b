"""The filter tables and the quadrature identities against brute force.

tests/oracle.py builds the `filters` report rows from the definitions,
point by point over digit tuples, and decides the identities cell by
cell as a p x p permutation test.  The library must agree on PASS
families (named, searched and drawn at random) and on hand-made banks
that break the identities.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from vilenkin_wavelets.famio import family_from_document
from vilenkin_wavelets.mra import (
    accumulate_omega_sigma,
    build_filters,
    check_mra_condition,
    verify_filter_identities,
)
from vilenkin_wavelets.setalg import unit_cell
from vilenkin_wavelets.verifier import search_wavelet_sets

from .families import family_named
from .oracle import (
    CellSet,
    oracle_filter_rows,
    oracle_permutation_test,
    oracle_tables,
)

NAMED = ["shannon2", "shannon3", "shannon5", "three-shell2", "coset-shuffle3"]
VARIANTS = ["m0-unit", "m0-complement", "bands-swapped"]


def library_bank(family, depth):
    sigma = accumulate_omega_sigma(family, depth)
    return build_filters(family, sigma, mra=check_mra_condition(sigma))


def oracle_rows(family, r):
    lo = min(s.min_fixed_position for s in family.sets)
    hi = max(s.max_resolution for s in family.sets)
    return oracle_filter_rows(family.p, [CellSet.from_pset(s, lo, hi) for s in family.sets], r)


def report_rows(bank, lo):
    """The library's report rows, keyed as the oracle keys them."""
    out = {}
    for row in bank.to_json()["rows"]:
        cell = row["cell"]
        assert cell["resolution"] == bank.resolution
        digits = {int(pos): d for pos, d in cell["digits"].items()}
        assert min(digits, default=lo) >= lo
        key = tuple(digits.get(pos, 0) for pos in range(lo, bank.resolution + 1))
        out[key] = (row["m0"], tuple(row["m1"]))
    return out


def bank_tables(bank):
    """The bank's level sets as oracle tables at resolution max(r, 1)."""
    r = max(bank.resolution, 1)
    out = []
    for table in bank.all_tables():
        cells = CellSet.from_pset(table, 1, r).cells
        out.append({f: int(f in cells) for f in itertools.product(range(bank.p), repeat=r)})
    return out


def variant_bank(bank, name):
    """A hand-made bank that breaks build_filters' output."""
    if name == "bands-swapped":
        return dataclasses.replace(bank, m1=(bank.m1[1], bank.m1[0], *bank.m1[2:]))
    unit = unit_cell(bank.p)
    return dataclasses.replace(bank, m0=unit if name == "m0-unit" else unit.difference(bank.m0))


def variant_tables(tables, name):
    m0, *bands = tables
    if name == "bands-swapped":
        return [m0, bands[1], bands[0], *bands[2:]]
    flip = (lambda v: 1) if name == "m0-unit" else (lambda v: 1 - v)
    return [{f: flip(v) for f, v in m0.items()}, *bands]


def entry_cells(p, entry, level):
    """The digit tuples, at positions 1..level, of the resolution-level
    cells under a failing entry; "cells" must count them."""
    r = entry["cell"]["resolution"]
    digits = {int(pos): d for pos, d in entry["cell"]["digits"].items()}
    assert min(digits, default=1) >= 1 and r <= level
    assert entry.get("cells") == (f"{p}^{level - r}" if r < level else None), entry
    head = tuple(digits.get(pos, 0) for pos in range(1, r + 1))
    return [head + tail for tail in itertools.product(range(p), repeat=level - r)]


def assert_identities_match(bank, level, tables=None):
    """verify_filter_identities against the oracle's per-cell permutation
    test, on the bank's own tables unless others are given: every column
    whose sum is not 1 and every cell whose row sum is not 1 is a failing
    entry with that count, and the failing cells with their rotations
    are the cells whose matrix is no permutation."""
    p = bank.p
    if tables is None:
        tables = bank_tables(bank)
    want = oracle_permutation_test(p, tables, max(bank.resolution, 1), level)
    got = verify_filter_identities(bank, level)
    names = ["m0", *(f"m1[{u}]" for u in range(1, p))]
    expected = {}
    for cell, (_, columns, rows) in want.items():
        for name, count in zip(names, columns):
            if count != 1:
                expected["columns", name, cell] = count
        if rows[0] != 1:
            expected["rows", None, cell] = rows[0]
    found = {}
    for entry in got.failing_cells:
        for cell in entry_cells(p, entry, level):
            key = (entry["formulation"], entry.get("table"), cell)
            assert key not in found, entry
            found[key] = entry["count"]
    assert found == expected
    orbit = {((cell[0] + k) % p,) + cell[1:] for _, _, cell in found for k in range(p)}
    assert orbit == {cell for cell, (ok, _, _) in want.items() if not ok}
    assert got.passed == (not found) and got.formulations_agree
    assert got.checked_cells == p**level and got.exact
    return got


def assert_bank_matches(family, depth, extra=1):
    """Rows, tables and identities of the library bank against the oracle."""
    bank = library_bank(family, depth)
    r = bank.resolution
    rows = oracle_rows(family, r)
    assert report_rows(bank, min(family.union().min_fixed_position + 1, 1)) == rows
    tables = oracle_tables(family.p, rows, r)
    assert bank_tables(bank) == tables
    assert assert_identities_match(bank, r + extra, tables).passed
    return bank, tables


@pytest.mark.parametrize("name", NAMED)
def test_named_families(name):
    family = family_named(name)
    for depth in (4, 9):
        assert_bank_matches(family, depth, extra=depth % 3)


@pytest.mark.parametrize("p,window", [(2, (-1, 3)), (3, (0, 1))])
def test_searched_families(p, window):
    families = search_wavelet_sets(p, window).families
    assert len(families) >= 5
    for family in families:
        assert_bank_matches(family, 6)


# (p, R, w, cells) strata of gen.pass_family that it fills quickly.
STRATA = [
    (2, 2, -1, 6), (2, 3, -1, 10), (2, 4, -1, 12), (2, 4, -2, 12), (2, 5, -2, 16),
    (3, 2, -1, 14), (3, 3, -1, 30),
]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(stratum=st.sampled_from(STRATA), seed=st.integers(0, 2**16), extra=st.integers(0, 2))
def test_random_pass_families(stratum, seed, extra):
    p, R, w, n = stratum
    family = family_from_document(gen.pass_family(random.Random(seed), p, R, w, n).document())
    assert_bank_matches(family, R - w + extra, extra)


@pytest.mark.parametrize(
    "name,variant",
    [
        (name, variant)
        for name in ["shannon2", "three-shell2", "shannon3", "coset-shuffle3", "shannon5"]
        for variant in VARIANTS
        if not (variant == "bands-swapped" and name.endswith("2"))  # one band
    ],
)
def test_hand_made_banks(name, variant):
    family = family_named(name)
    bank, tables = assert_bank_matches(family, 6)
    r = bank.resolution
    for level in (r, r + 2):
        got = assert_identities_match(
            variant_bank(bank, variant), level, variant_tables(tables, variant)
        )
        # Swapping two bands permutes the matrix columns: still a permutation.
        assert got.passed == (variant == "bands-swapped")
