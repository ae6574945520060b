"""The MRA overlap table against brute force.

tests/oracle.py translates the cells of a set by every lattice element
whose digits lie in the set's window and intersects, over digit tuples.
check_mra_condition's rows must be the truncation's overlap measures at
exactly the differences of integer parts and the p digit-0 shifts, its
witnesses the least cylinder of each nonzero overlap, first of the
truncation and then, tagged "tail", of the resolved spectrum.  The
inputs are PASS families (named and drawn at random) and hand-built
spectra whose lattice translates overlap.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from vilenkin_wavelets.errors import DigitError
from vilenkin_wavelets.famio import family_from_document
from vilenkin_wavelets.mra import OmegaSigma, accumulate_omega_sigma, check_mra_condition
from vilenkin_wavelets.setalg import Cylinder, PSet

from .families import cells_set, family_named
from .oracle import (
    CellSet,
    oracle_least_cylinder,
    oracle_overlap_table,
    oracle_translation_candidates,
)
from .test_spectrum_oracle import NAMED, STRATA


def window(s: PSet) -> CellSet:
    """The cells of s on the least window that holds position 0."""
    lo = min(s.min_fixed_position or 0, 0)
    return CellSet.from_pset(s, lo, max(s.max_resolution, 0))


def measure_value(text: str) -> Fraction:
    """The value of a Measure.exact_string, 'count*p^e'."""
    count, power = text.split("*")
    base, exponent = power.split("^")
    return int(count) * Fraction(int(base)) ** int(exponent)


def oracle_report(sigma: OmegaSigma) -> tuple[list, list]:
    """The truncation's rows as (lattice index, measure), and the nonzero
    overlaps as (lattice index, overlap, tail): the truncation's, then
    the resolved spectrum's."""
    rows, overlaps = [], []
    for s, tail in ((sigma.truncated, False), (sigma.resolved, True)):
        cells = window(s)
        table = oracle_overlap_table(cells)
        candidates = oracle_translation_candidates(cells)
        assert {n for n, overlap in table.items() if overlap.cells} <= set(candidates)
        for n in candidates:
            if not tail:
                rows.append((n, table[n].measure()))
            if n and table[n].cells:
                overlaps.append((n, table[n], tail))
    return rows, overlaps


def assert_table_matches(sigma: OmegaSigma):
    p = sigma.p
    report = check_mra_condition(sigma)
    rows, overlaps = oracle_report(sigma)
    assert [(r.lattice_index, r.measure.as_fraction()) for r in report.rows] == rows
    assert len(report.witnesses) == len(overlaps)
    for witness, (n, overlap, tail) in zip(report.witnesses, overlaps):
        cell = CellSet.from_pset(
            PSet(p, [Cylinder.from_json(p, witness["cell"])]), overlap.lo, overlap.hi
        )
        assert cell.cells <= overlap.cells, witness
        assert measure_value(witness["measure"]) == overlap.measure(), witness
        want = {
            "lattice_index": n,
            "measure": witness["measure"],
            "cell": oracle_least_cylinder(overlap),
        }
        assert witness == ({**want, "tail": True} if tail else want)
    assert report.status == ("FAIL" if overlaps else "PASS")
    return report


@pytest.mark.parametrize("name", NAMED)
def test_named_families(name):
    family = family_named(name)
    statuses = {
        assert_table_matches(accumulate_omega_sigma(family, J)).status
        for J in range(1, NAMED[name] + 1)
    }
    assert statuses == {"PASS"}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(stratum=st.sampled_from(STRATA), seed=st.integers(0, 2**16), data=st.data())
def test_random_pass_families(stratum, seed, data):
    p, R, w, n = stratum
    family = family_from_document(gen.pass_family(random.Random(seed), p, R, w, n).document())
    settle = max(R - w, 1)
    J = data.draw(st.integers(max(settle - 2, 1), settle + 1), label="J")
    assert_table_matches(accumulate_omega_sigma(family, J))


def hand_built(p, truncated, resolved, depth=6):
    return OmegaSigma(
        p=p, depth=depth, truncated=truncated, level=truncated.max_resolution,
        lowest_fixed=truncated.min_fixed_position or 0, resolved=resolved,
    )


def fixed_spectra():
    """Spectra whose lattice translates overlap, by name: the two cells a
    lattice shift apart of test_failing_spectrum_matches_two_passes with
    the same, a wider and an overlapping exact spectrum, and p = 3 cells
    of several resolutions over four integer parts, with the same and a
    wider exact spectrum."""
    p = 2
    cells = [Cylinder(p, 1, ()), Cylinder(p, 1, ((0, 1),))]
    spectrum = PSet(p, cells)
    wider = spectrum.union(PSet(p, [Cylinder(p, 2, ((-1, 1), (1, 1)))]))
    out = {
        "p2-same": hand_built(p, spectrum, spectrum),
        "p2-wider": hand_built(p, spectrum, wider),
        "p2-overlapping": hand_built(p, PSet(p, cells[:1]), spectrum),
    }
    p = 3
    truncated = PSet(p, [
        Cylinder(p, 1, ((1, 1),)),
        Cylinder(p, 1, ((0, 1), (1, 1))),
        Cylinder(p, 2, ((0, 2), (1, 1), (2, 2))),
        Cylinder(p, 2, ((-1, 1), (1, 2), (2, 1))),
    ])
    exact = truncated.union(PSet(p, [Cylinder(p, 1, ((-1, 2), (1, 2)))]))
    out["p3-same"] = hand_built(p, truncated, truncated)
    out["p3-wider"] = hand_built(p, truncated, exact)
    return out


@pytest.mark.parametrize("name", list(fixed_spectra()))
def test_fixed_overlapping_spectra(name):
    report = assert_table_matches(fixed_spectra()[name])
    assert report.status == "FAIL"


def random_spectrum(rng: random.Random, p: int) -> OmegaSigma:
    """Cells of a few fractional patterns over random integer parts, so
    that pieces of different parts meet; the truncation is a nonempty
    part of them, and the exact spectrum all of them or the truncation."""
    lo, hi = -rng.randint(0, 2), rng.randint(0, 2)
    fractions = [tuple(rng.randrange(p) for _ in range(hi)) for _ in range(rng.randint(1, 3))]
    cells = sorted({
        tuple(rng.randrange(p) for _ in range(1 - lo)) + rng.choice(fractions)
        for _ in range(rng.randint(1, 8))
    })
    kept = rng.sample(cells, rng.randint(1, len(cells)))

    def build(chosen):
        return cells_set(p, hi, (tuple((lo + k, d) for k, d in enumerate(c) if d) for c in chosen))

    exact = build(cells) if rng.random() < 0.7 else build(kept)
    return hand_built(p, build(kept), exact, depth=rng.randint(1, 9))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1))
def test_random_overlapping_spectra(p, seed):
    sigma = random_spectrum(random.Random(seed), p)
    if any(c.resolution < 0 for s in (sigma.truncated, sigma.resolved) for c in s.cylinders):
        with pytest.raises(DigitError, match="integer part requires resolution >= 0"):
            check_mra_condition(sigma)
        return
    assert_table_matches(sigma)


def test_random_spectra_reach_every_outcome():
    # The drawn spectra fail on the truncation, on the tail only, and pass.
    # The truncation lies in the spectrum, so its overlaps are the
    # spectrum's too and every FAIL has "tail" witnesses.
    outcomes = set()
    for seed in range(300):
        sigma = random_spectrum(random.Random(seed), [2, 3, 5][seed % 3])
        try:
            report = check_mra_condition(sigma)
        except DigitError:
            continue
        tails = {"tail" in w for w in report.witnesses}
        outcomes.add((report.status, frozenset(tails)))
    assert outcomes == {
        ("FAIL", frozenset({False, True})), ("FAIL", frozenset({True})), ("PASS", frozenset())
    }
