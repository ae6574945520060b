"""Mutated wavelet families with hand-derived expected condition outcomes.

Each mutant perturbs the Shannon-type family for a given base and records
which verifier conditions must fail (with a witness) and which must still
pass.  Conditions not listed either way are left unconstrained; the
oracle cross-check in the verifier tests pins those down for p in {2, 3}.
"""

from __future__ import annotations

from dataclasses import dataclass

from vilenkin_wavelets.group import lambda_decode
from vilenkin_wavelets.setalg import Cylinder, PSet, annulus, theta_ball, unit_cell
from vilenkin_wavelets.verifier import WaveletFamily, shannon_family

from .families import cells_set

MEASURE = "measure-one"
TILING = "dilation-tiling"
CONGRUENCE = "translation-congruence"


@dataclass
class Mutant:
    name: str
    p: int
    family: WaveletFamily
    must_fail: frozenset
    must_pass: frozenset
    intended: str  # the headline condition this mutant was built to break


def _single(p: int, resolution: int, digits) -> PSet:
    return PSet(p, [Cylinder(p, resolution, tuple(digits))], validate=False)


def mutants_for(p: int) -> list[Mutant]:
    fam = shannon_family(p)
    out = []

    # The whole unit cell dilation-overlaps itself (and, as the identity
    # neighborhood, is rejected up front); measure and congruence hold.
    out.append(
        Mutant(
            "swap-to-unit-cell", p, fam.replace(1, unit_cell(p)),
            must_fail=frozenset({TILING}),
            must_pass=frozenset({MEASURE, CONGRUENCE}),
            intended=TILING,
        )
    )

    # A digit pinned at a positive position cannot be cleared by lattice
    # translations: the translated piece covers only a 1/p sliver of the
    # unit cell.  The dilates still tile.
    out.append(
        Mutant(
            "positive-position-digit", p, fam.replace(1, _single(p, 1, [(1, 1)])),
            must_fail=frozenset({CONGRUENCE, MEASURE}),
            must_pass=frozenset({TILING}),
            intended=CONGRUENCE,
        )
    )

    # Contracted set of measure 1/p.
    out.append(
        Mutant(
            "measure-deficit", p, fam.replace(1, theta_ball(p, 1)),
            must_fail=frozenset({MEASURE}),
            must_pass=frozenset(),
            intended=MEASURE,
        )
    )

    # Move one refined cell from digit position 0 to digit position 1:
    # same measure, but the moved cell collides with a contracted dilate.
    maps = set(fam.sets[0].cells_at(2))
    maps.remove(((0, 1),))
    maps.add(((1, 1),))
    out.append(
        Mutant(
            "moved-cylinder", p, fam.replace(1, cells_set(p, 2, maps)),
            must_fail=frozenset({TILING}),
            must_pass=frozenset({MEASURE}),
            intended=TILING,
        )
    )

    # Double up one member set with a lattice translate of itself.
    shifted = fam.sets[0].translate(lambda_decode(p, p))
    out.append(
        Mutant(
            "duplicate-translate", p, fam.replace(1, fam.sets[0].union(shifted)),
            must_fail=frozenset({MEASURE, CONGRUENCE}),
            must_pass=frozenset(),
            intended=MEASURE,
        )
    )

    # A set pinned one position coarser: still measure one and congruent,
    # but the dilates now undercover the unit shell.
    out.append(
        Mutant(
            "coarse-digit-cover-gap", p, fam.replace(1, _single(p, 0, [(-1, 1)])),
            must_fail=frozenset({TILING}),
            must_pass=frozenset({MEASURE, CONGRUENCE}),
            intended=TILING,
        )
    )

    if p >= 3:
        # Swap one refined cell between two member sets, landing each in a
        # foreign lattice coset: the union (hence tiling) and measures are
        # untouched, only congruence breaks.  This isolates condition (3).
        maps1 = set(fam.sets[0].cells_at(1))
        maps2 = set(fam.sets[1].cells_at(1))
        maps1.remove(((0, 1), (1, 1)))
        maps1.add(((0, 2),))
        maps2.remove(((0, 2),))
        maps2.add(((0, 1), (1, 1)))
        swapped = fam.replace(1, cells_set(p, 1, maps1)).replace(
            2, cells_set(p, 1, maps2)
        )
        out.append(
            Mutant(
                "cross-coset-swap", p, swapped,
                must_fail=frozenset({CONGRUENCE}),
                must_pass=frozenset({MEASURE, TILING}),
                intended=CONGRUENCE,
            )
        )

        # First member inflated to the whole unit shell: collides with the
        # other members and has measure p - 1.
        out.append(
            Mutant(
                "shell-inflate", p, fam.replace(1, annulus(p)),
                must_fail=frozenset({MEASURE, TILING}),
                must_pass=frozenset(),
                intended=MEASURE,
            )
        )

    return out


def all_mutants(bases=(2, 3, 5)) -> list[Mutant]:
    out = []
    for p in bases:
        out.extend(mutants_for(p))
    return out
