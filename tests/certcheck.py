"""An independent check of the translation-congruence certificate.

A `verify` report names each piece of a member's congruence partition by
its lattice index and the positions of its cylinders in the member's
canonical cylinder list.  check_certificate reads such a report against
its family file and checks, without the verdict code:

- every member has one entry, in family order, and its `piece` position
  lists partition range(len(member.cylinders)), each list increasing;
- the lattice indices of a member are strictly increasing;
- every cylinder of a piece has the piece's integer part (tests/oracle.py);
- when translation-congruence passed, the pieces moved by minus their
  integer part tile the unit cell, on the oracle's cells.  A piece
  coarser than resolution 0 is the unit cell moved, counted p**-r times.

PSet is used only to bring each member to its canonical cylinder list.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

from vilenkin_wavelets.group import from_digits
from vilenkin_wavelets.setalg import Cylinder, PSet

from .oracle import CellSet, cylinder_integer_part, lattice_index, unit_cells


def canonical_members(family_path: str) -> tuple[int, list[tuple[str, tuple[Cylinder, ...]]]]:
    """The base and each (name, canonical cylinder list) of a family file."""
    with open(family_path) as handle:
        document = json.load(handle)
    p = document["p"]
    return p, [
        (
            member["name"],
            PSet(p, [Cylinder.from_json(p, c) for c in member["cylinders"]]).cylinders,
        )
        for member in document["family"]
    ]


def integer_index(c: Cylinder) -> int:
    """The lattice index of a cylinder's integer part; a cylinder coarser
    than resolution 0 is named by its pinned digits."""
    if c.resolution >= 0:
        x = cylinder_integer_part(c)
    else:
        x = from_digits(c.p, dict(c.digits))
    digits = dict(x.support())
    lo = min(digits, default=0)
    return lattice_index(c.p, lo, tuple(digits.get(pos, 0) for pos in range(lo, 1)))


def _unit_cell_cells(c: Cylinder, hi: int) -> list[tuple]:
    """The cells, on the window 0..hi, of c moved by minus its integer
    part: its digits at positions 1..resolution, or the whole unit cell."""
    r = max(c.resolution, 0)
    fixed = tuple(c.digit(pos) for pos in range(1, r + 1))
    return [(0,) + fixed + extra for extra in itertools.product(range(c.p), repeat=hi - r)]


def check_certificate(family_path: str, report: dict) -> None:
    """Raise AssertionError where the report's certificate does not hold
    for the family file."""
    p, members = canonical_members(family_path)
    certificate = report["certificate"]
    assert [entry["set"] for entry in certificate] == [name for name, _ in members]
    [congruence] = [c for c in report["conditions"] if c["name"] == "translation-congruence"]
    for entry, (name, cylinders) in zip(certificate, members):
        partition = entry["partition"]
        positions = [i for part in partition for i in part["piece"]]
        assert sorted(positions) == list(range(len(cylinders))), name
        indices = [part["lattice_index"] for part in partition]
        assert all(a < b for a, b in zip(indices, indices[1:])), name
        hi = max(0, max(c.resolution for c in cylinders))
        copies: Counter = Counter()
        for part in partition:
            piece = part["piece"]
            assert piece and all(a < b for a, b in zip(piece, piece[1:])), name
            for i in piece:
                c = cylinders[i]
                assert integer_index(c) == part["lattice_index"], (name, i)
                if c.resolution < 0:
                    assert len(piece) == 1, (name, piece)
                if congruence["passed"]:
                    for cell in _unit_cell_cells(c, hi):
                        copies[cell] += p ** max(-c.resolution, 0)
        if congruence["passed"]:
            moved = CellSet(p, 0, hi, frozenset(copies))
            assert moved.equals(unit_cells(p, 0, hi)), name
            assert set(copies.values()) == {1}, name
