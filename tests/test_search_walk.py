"""The transversal walk against its reference, on windows past the reach
of the brute-force loop in test_verifier, and the digit identity its
class bitmask rests on."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin_wavelets.verifier import _window_cell, search_wavelet_sets

from .walkref import reference_search

# 6,480 to 5,920,200 candidates, far too many for old_search in
# test_verifier, but the walk prunes each in under a second.
WALK_WINDOWS = [(2, -2, 2), (2, -3, 2), (3, -1, 1), (3, -3, 0), (2, -5, 1), (5, -1, 0)]


@functools.lru_cache(maxsize=None)
def reference(p, lo, hi, budget):
    """(family cylinders in order, examined, exhausted) of the reference walk."""
    return summary(reference_search(p, (lo, hi), budget=budget))


def summary(result):
    return (
        [[s.cylinders for s in f.sets] for f in result.families],
        result.examined,
        result.exhausted,
    )


def total(p, lo, hi):
    return reference(p, lo, hi, None)[1]


@pytest.mark.parametrize("p,lo,hi", WALK_WINDOWS)
def test_walk_matches_reference_at_edge_budgets(p, lo, hi):
    n = total(p, lo, hi)
    assert reference(p, lo, hi, None)[0], "the window holds a wavelet family"
    for budget in (None, 0, 1, n - 1, n, n + 1):
        got = summary(search_wavelet_sets(p, (lo, hi), budget=budget))
        assert got == reference(p, lo, hi, budget), budget


@pytest.mark.parametrize("p,lo,hi", WALK_WINDOWS)
@given(data=st.data())
@settings(derandomize=True, deadline=None, max_examples=6)
def test_walk_matches_reference_at_drawn_budgets(p, lo, hi, data):
    budget = data.draw(st.integers(0, total(p, lo, hi) + 1))
    got = summary(search_wavelet_sets(p, (lo, hi), budget=budget))
    assert got == reference(p, lo, hi, budget)


@pytest.mark.parametrize(
    "p,lo,hi",
    [(2, -2, 2), (3, -1, 1), (5, -1, 1), (2, 0, 3), (3, -2, 0), (5, 0, 0), (2, 1, 3), (3, 1, 1)],
)
def test_fractional_digits_follow_the_low_digits_of_the_index(p, lo, hi):
    # The walk gives atom i the class bit 1 << (i % p**hi): that is sound
    # exactly when an atom's fractional digits (positions 1..hi) are a
    # function of i % p**hi, one-to-one with it.
    classes = {}
    for i in range(p ** (hi - lo + 1)):
        frac = tuple(pd for pd in _window_cell(p, lo, hi, i) if pd[0] > 0)
        assert classes.setdefault(i % p**hi, frac) == frac, i
    assert len(classes) == len(set(classes.values())) == p**hi
