"""The refinement equations and the low-pass product against brute force.

tests/oracle.py evaluates both sides of each two-scale identity point by
point over digit tuples, with its own spectrum and filter tables.  The
failing cells of verify_two_scale must be exactly the cells where the
oracle's sides differ, with the same values, on PASS families (named
and drawn at random), with the correct bank and with banks whose
low-pass or last band is flipped.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from vilenkin_wavelets.famio import family_from_document
from vilenkin_wavelets.mra import accumulate_omega_sigma, build_filters, verify_two_scale
from vilenkin_wavelets.setalg import unit_cell

from .families import family_named
from .oracle import oracle_filter_rows, oracle_tables, oracle_two_scale
from .test_spectrum_oracle import members_of

NAMED = ["shannon2", "shannon3", "shannon5", "three-shell2", "coset-shuffle3"]
VARIANTS = ["correct", "m0-flipped", "m1-flipped"]
# m0 = 1 on the whole unit cell: the product's sets get pieces coarser
# than resolution 0, which the refinement step keeps whole.
ALL_VARIANTS = [*VARIANTS, "m0-unit"]


def variant_bank(bank, variant):
    """The bank, or one with its low-pass or its last band flipped on
    the unit cell, or with the low-pass one on all of it."""
    unit = unit_cell(bank.p)
    if variant == "m0-unit":
        return dataclasses.replace(bank, m0=unit)
    if variant == "m0-flipped":
        return dataclasses.replace(bank, m0=unit.difference(bank.m0))
    if variant == "m1-flipped":
        return dataclasses.replace(bank, m1=(*bank.m1[:-1], unit.difference(bank.m1[-1])))
    return bank


def variant_tables(tables, variant):
    if variant == "m0-unit":
        return [{f: 1 for f in tables[0]}, *tables[1:]]
    flip = {"m0-flipped": 0, "m1-flipped": len(tables) - 1}.get(variant)
    return [
        {f: 1 - v for f, v in t.items()} if c == flip else t for c, t in enumerate(tables)
    ]


def expected_failures(values):
    """The (identity, cell) pairs whose sides differ, with their values."""
    return {
        (name, cell): sides
        for name, cells in values.items()
        for cell, sides in cells.items()
        if sides[0] != sides[1]
    }


def report_failures(report, p, lo, hi):
    """The report's failing entries, split into the oracle's cells at
    positions lo..hi."""
    out = {}
    for entry in report.failing_cells:
        r = entry["cell"]["resolution"]
        digits = {int(pos): d for pos, d in entry["cell"]["digits"].items()}
        assert min(digits, default=lo) >= lo and r <= hi, entry
        head = tuple(digits.get(pos, 0) for pos in range(lo, r + 1))
        for tail in itertools.product(range(p), repeat=hi - r):
            for problem in entry["problems"]:
                key = (problem["identity"], head + tail)
                assert key not in out, entry
                out[key] = (problem["lhs"], problem["rhs"])
    return out


def assert_two_scale_matches(family, sigmas, windows, variants=VARIANTS):
    """verify_two_scale on every resolved spectrum of `sigmas`, for each
    variant bank and window, against one oracle evaluation each."""
    p = family.p
    members = members_of(family)
    banks = [build_filters(family, sigma) for sigma in sigmas]
    r = banks[0].resolution
    assert all(bank.resolution == r for bank in banks)
    tables = oracle_tables(p, oracle_filter_rows(p, members, r), r)
    for variant in variants:
        for window in windows:
            want = expected_failures(
                oracle_two_scale(members, variant_tables(tables, variant), r, window)
            )
            assert (not want) == (variant == "correct"), (variant, window)
            for sigma, bank in zip(sigmas, banks):
                got = verify_two_scale(family, sigma, variant_bank(bank, variant), window=window)
                key = (variant, window, sigma.depth)
                assert report_failures(got, p, 1 - window, r + 1) == want, key
                assert got.passed == (not want) and got.window == window, key


def default_window(family):
    return max(2, 1 - family.union().min_fixed_position)


@pytest.mark.parametrize("name", NAMED)
def test_named_families(name):
    family = family_named(name)
    sigmas = [accumulate_omega_sigma(family, J) for J in range(1, 13)]
    w = default_window(family)
    windows = [w] if family.p == 5 else [w, w + 1]
    assert_two_scale_matches(family, sigmas, windows, ALL_VARIANTS)


# (p, R, w, cells) strata of gen.pass_family that it fills quickly.
STRATA = [(2, 2, -1, 6), (2, 3, -1, 10), (2, 4, -2, 12), (3, 2, -1, 14)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(stratum=st.sampled_from(STRATA), seed=st.integers(0, 2**16), extra=st.integers(0, 2))
def test_random_pass_families(stratum, seed, extra):
    p, R, w, n = stratum
    family = family_from_document(gen.pass_family(random.Random(seed), p, R, w, n).document())
    sigma = accumulate_omega_sigma(family, R - w + extra)
    assert_two_scale_matches(family, [sigma], [default_window(family) + extra % 2])
