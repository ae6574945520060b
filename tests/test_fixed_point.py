"""The exact scaling spectrum against the construction it replaced.

mra._fixed_point decides the disjointness of all the dilates of the
family union U on U's shell keys and lists only the dilates outside the
identity ball.  reference_fixed_point below is the construction it
replaced: the dilates 1 to k through the validating PSet constructor,
unioned with the ball, then the same closure check.  The two must build
the same set on every verifying family; elsewhere the shell-key check
may refuse more, but only a union that does meet one of its dilates.
"""

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from vilenkin_wavelets import mra
from vilenkin_wavelets.errors import OverlapError, VilenkinError
from vilenkin_wavelets.famio import family_from_document, parse_family_file
from vilenkin_wavelets.mra import accumulate_omega_sigma, verify_calderon
from vilenkin_wavelets.setalg import Cylinder, PSet, theta_ball
from vilenkin_wavelets.verifier import VerdictReport, is_wavelet_set, shannon_family

from .families import family_named
from .mutants import all_mutants

FAMILY_FILES = sorted((pathlib.Path(__file__).resolve().parent.parent / "families").glob("*.json"))
VERIFYING = ["shannon2", "shannon3", "shannon5", "three-shell2", "coset-shuffle3"]
MUTANTS = all_mutants()
STRATA = [(2, 2, -1, 6), (2, 4, -2, 12), (2, 7, -2, 24), (3, 2, -1, 14), (3, 4, -2, 40), (5, 2, -1, 48)]


def drawn(p, R, w, n, seed=1):
    return family_from_document(gen.pass_family(random.Random(seed), p, R, w, n).document())


def reference_fixed_point(union, beyond=0):
    """The dilates of the union by 1 to k = max(L - w, 1) + beyond, one
    validating PSet, unioned with theta_ball(p, w + k); it must equal its
    image sigma(union) | sigma(itself)."""
    w = union.min_fixed_position
    depth = max(union.max_resolution - w, 1) + beyond
    dilates = PSet(union.p, (c.dilate(j) for j in range(1, depth + 1) for c in union.cylinders))
    candidate = dilates.union(theta_ball(union.p, w + depth))
    if union.dilate(1).union(candidate.dilate(1)) != candidate:
        raise VilenkinError(f"the dilates 1 to {depth} do not close into the spectrum")
    return candidate


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the reference may raise anything
        return exc


def meets_a_dilate(union):
    """Whether the union meets one of its dilates, by set algebra: an
    identity cylinder meets all of them, and otherwise none past L - w."""
    if any(not c.digits for c in union.cylinders):
        return True
    span = union.max_resolution - union.min_fixed_position
    return any(not union.intersect(union.dilate(d)).is_empty for d in range(1, span + 1))


def assert_agrees(union, beyond):
    """_fixed_point against the reference: the same set, the same closure
    refusal, or an overlap refusal that set algebra confirms."""
    want, got = outcome(reference_fixed_point, union, beyond), outcome(mra._fixed_point, union, beyond)
    if isinstance(got, PSet):
        assert got == want
    elif isinstance(got, OverlapError):
        assert meets_a_dilate(union)
    else:
        assert isinstance(got, VilenkinError) and str(got) == str(want)
    return got


def assert_builds_the_reference(family):
    union = family.union()
    for beyond in (0, 2):
        assert isinstance(assert_agrees(union, beyond), PSet), beyond


@pytest.mark.parametrize("path", FAMILY_FILES, ids=lambda path: path.stem)
def test_family_files(path):
    family = parse_family_file(str(path))
    if is_wavelet_set(family).overall:
        assert_builds_the_reference(family)
    else:
        for beyond in (0, 2):
            assert_agrees(family.union(), beyond)


@pytest.mark.parametrize("name", VERIFYING)
def test_verifying_families(name):
    assert_builds_the_reference(family_named(name))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.name}-p{m.p}")
def test_mutants(mutant):
    # No mutant verifies; the Shannon family each one perturbs is among
    # VERIFYING.
    assert not is_wavelet_set(mutant.family).overall
    for beyond in (0, 2):
        assert_agrees(mutant.family.union(), beyond)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(stratum=st.sampled_from(STRATA), seed=st.integers(0, 2**16))
def test_drawn_families(stratum, seed):
    assert_builds_the_reference(drawn(*stratum, seed=seed))


# -- a verdict that does not hold -----------------------------------------------------


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.name}-p{m.p}")
def test_forged_verdict(mutant):
    # A passing verdict handed in for a family that does not verify: one
    # made by hand, and the verdict of another family of the same base.
    # The spectrum and Calderon refuse both.
    family = mutant.family
    shannon = shannon_family(family.p)
    spectrum = accumulate_omega_sigma(shannon, 4)
    for forged in (VerdictReport(p=family.p, overall=True, conditions=[]), is_wavelet_set(shannon)):
        assert forged.overall
        for call in (
            lambda: accumulate_omega_sigma(family, 1, verdict=forged),
            lambda: verify_calderon(family, spectrum, verdict=forged),
        ):
            with pytest.raises(VilenkinError, match="^the verdict was not decided on this family$"):
                call()
    # The spectrum build those calls would reach, at the depths of the
    # spectrum and of Calderon, never fails with an IndexError or a
    # TypeError -- which, on a union with an identity cylinder and no
    # pinned digit, it once did -- and agrees with the reference.
    for beyond in (0, 2):
        assert not isinstance(assert_agrees(family.union(), beyond), (IndexError, TypeError))


# -- what the build lists -------------------------------------------------------------


# Families whose union spans several lowest positions, so that the dilates
# listed are fewer than the k |U| dilates 1 to k.
DEEP = {f"drawn-p{p}-R{R}": (p, R, w, n) for p, R, w, n in [(2, 7, -2, 24), (3, 4, -2, 40), (5, 3, -1, 80)]}


@pytest.mark.parametrize("name", VERIFYING + list(DEEP))
@pytest.mark.parametrize("beyond", [0, 2])
def test_dilates_listed(name, beyond, monkeypatch):
    # The dilates outside the ball, sum over c of (w + k - m_c), and the
    # closure check's sigma(U) and sigma(S): never the k |U| dilates 1
    # to k.
    family = drawn(*DEEP[name]) if name in DEEP else family_named(name)
    union = family.union()
    w = union.min_fixed_position
    k = max(union.max_resolution - w, 1) + beyond
    calls = []
    dilate = Cylinder.dilate

    def counted(c, j):
        calls.append(j)
        return dilate(c, j)

    monkeypatch.setattr(Cylinder, "dilate", counted)
    spectrum = mra._fixed_point(union, beyond)
    kept = sum(w + k - c.digits[0][0] for c in union.cylinders)
    assert len(calls) == kept + len(union.cylinders) + len(spectrum.cylinders)
    assert max(calls) == k
    if name in DEEP:
        assert kept < k * len(union.cylinders)
