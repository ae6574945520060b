"""Named wavelet families used across the test modules."""

from collections.abc import Iterable

from vilenkin_wavelets.famio import dumps, family_to_document
from vilenkin_wavelets.setalg import Cylinder, DigitMap, PSet
from vilenkin_wavelets.verifier import WaveletFamily, search_wavelet_sets, shannon_family


def empty_set(p: int) -> PSet:
    return PSet(p, (), validate=False)


def save_family_file(family: WaveletFamily, path: str) -> None:
    """Write a family file that parse_family_file reads back."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(family_to_document(family)) + "\n")


def cells_set(p: int, L: int, maps: Iterable[DigitMap]) -> PSet:
    """The set of the resolution-L cells with these digit maps (disjoint)."""
    return PSet(p, (Cylinder(p, L, m) for m in maps), validate=False)


def three_shell_family() -> WaveletFamily:
    """A base-2 wavelet set spread over three shells.

    One quarter of the unit shell stays put, one cell moves one level
    coarser and two cells move one level finer; measures balance back to
    one and the dilates still tile.  Unlike the Shannon-type sets, its
    scaling spectrum is a nontrivial union of cells from two levels plus
    the contracted unit cell.
    """
    p = 2
    omega = PSet(
        p,
        [
            Cylinder(p, 1, ((-1, 1), (0, 1))),
            Cylinder(p, 2, ((0, 1), (1, 1), (2, 1))),
            Cylinder(p, 2, ((1, 1),)),
        ],
        validate=False,
    )
    return WaveletFamily(p, ("omega1",), (omega,))


def coset_shuffle_family() -> WaveletFamily:
    """A verified p=3 family that mixes lattice cosets inside each member;
    its union is still the full unit shell."""
    families = search_wavelet_sets(3, (0, 1)).families
    shannon = shannon_family(3)
    return next(f for f in families if f.sets != shannon.sets)


def family_named(name: str) -> WaveletFamily:
    """shannon2, shannon3, shannon5, three-shell2 or coset-shuffle3."""
    if name.startswith("shannon"):
        return shannon_family(int(name[-1]))
    return three_shell_family() if name == "three-shell2" else coset_shuffle_family()
