"""The scaling spectrum, its fixed point and the Calderon identity
against brute force.

tests/oracle.py builds the depth-J truncation as the union of the
family's dilates, and its fixed point, over digit tuples.  The library
reads deep truncations off the fixed point, and verify_calderon checks
them against a spectrum it closes from a bounded number of dilates; both
must agree with the oracle on PASS families (named and drawn at random),
and Calderon must refuse truncations that are not the union of the
dilates 1 to J.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from vilenkin_wavelets.famio import family_from_document
from vilenkin_wavelets.mra import accumulate_omega_sigma, verify_calderon

from .families import family_named
from .oracle import (
    CellSet,
    oracle_calderon,
    oracle_fixed_point,
    oracle_spectrum,
)

#: Name: the deepest J compared (the windows grow as p^J).
NAMED = {"shannon2": 12, "shannon3": 7, "shannon5": 5, "three-shell2": 10, "coset-shuffle3": 7}


def members_of(family):
    lo = min(s.min_fixed_position for s in family.sets)
    hi = max(s.max_resolution for s in family.sets)
    return [CellSet.from_pset(s, lo, hi) for s in family.sets]


def assert_spectrum_matches(family, J):
    """accumulate_omega_sigma and verify_calderon at depth J against the
    oracle's truncation, Calderon report and fixed point, the last found
    at max(J, L - w, 1).  Returns the oracle's fixed point at J itself,
    None when the depth-J truncation does not close into it."""
    members = members_of(family)
    sigma = accumulate_omega_sigma(family, J)
    union = family.union()
    settle = max(J, union.max_resolution - union.min_fixed_position, 1)
    lo = min(m.lo for m in members) + 1  # every spectrum point pins nothing below
    hi = max(m.hi for m in members) + settle
    truncation = oracle_spectrum(members, J)
    assert CellSet.from_pset(sigma.truncated, lo, hi).equals(truncation), J
    fixed = oracle_fixed_point(members, settle)
    assert fixed is not None and CellSet.from_pset(sigma.resolved, lo, hi).equals(fixed), J
    report = verify_calderon(family, sigma)
    assert vars(report) == oracle_calderon(members, truncation, J), J
    assert report.passed, J
    return fixed if settle == J else oracle_fixed_point(members, J)


@pytest.mark.parametrize("name", NAMED)
def test_named_families(name):
    family = family_named(name)
    closed = [J for J in range(1, NAMED[name] + 1) if assert_spectrum_matches(family, J)]
    assert closed and closed == list(range(closed[0], NAMED[name] + 1))


def corrupted(members, J):
    """Truncations reported at depth J that are not the union of the
    dilates 1 to J, by name."""
    exact = oracle_spectrum(members, J)
    first = min(exact.cells)
    return {
        "cell-dropped": CellSet(exact.p, exact.lo, exact.hi, exact.cells - {first}),
        "depth-short": oracle_spectrum(members, J - 1),
        "depth-over": oracle_spectrum(members, J + 1),
    }


@pytest.mark.parametrize("name", ["shannon2", "three-shell2", "coset-shuffle3"])
def test_corrupted_truncations(name):
    # The library's report on a wrong truncation, field by field.
    family = family_named(name)
    members = members_of(family)
    for J in (3, 5):
        sigma = accumulate_omega_sigma(family, J)
        for label, truncation in corrupted(members, J).items():
            sigma.truncated = truncation.to_pset()
            report = verify_calderon(family, sigma)
            want = oracle_calderon(members, truncation, J)
            assert not want["passed"] and want["pieces_disjoint"], label
            assert vars(report) == want, (label, J)


# (p, R, w, cells) strata of gen.pass_family that it fills quickly.
STRATA = [(2, 2, -1, 6), (2, 3, -1, 10), (2, 4, -2, 12), (3, 2, -1, 14)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(stratum=st.sampled_from(STRATA), seed=st.integers(0, 2**16), data=st.data())
def test_random_pass_families(stratum, seed, data):
    p, R, w, n = stratum
    family = family_from_document(gen.pass_family(random.Random(seed), p, R, w, n).document())
    settle = max(R - w, 1)
    J = data.draw(st.integers(max(settle - 2, 1), settle + (2 if p == 2 else 1)), label="J")
    assert assert_spectrum_matches(family, J) is not None or J < settle
