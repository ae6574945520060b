"""Exact decision procedures for multiwavelet-set candidates.

A candidate family consists of p - 1 named cylinder sets in the dual
group.  The family generates an orthonormal wavelet basis exactly when

  (1) every member set has measure one,
  (2) the contracting dilates of the union tile the dual group up to
      null sets, and
  (3) each member set is lattice-translation congruent to the unit cell.

All three conditions are decided exactly on the cylinder algebra; failed
conditions carry concrete witness cells.  The congruence check also
returns a partition certificate that names each member's pieces by
lattice index and cylinder positions (check_translation_congruence).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import inf

from .errors import FamilyArityError, ResolutionCapError
from .group import GroupElement, check_base, from_digits, lambda_encode
from .setalg import (
    MAX_REFINE_CELLS,
    Cylinder,
    DigitMap,
    Measure,
    PSet,
    _cylinder,
    _exceeds,
    _NestingIndex,
    _nested_pairs,
    _scaled_count,
    _union,
    _truncate,
    annulus,
    unit_cell,
)


@dataclass
class ConditionRecord:
    """Outcome of a single condition, with witnesses for any violation."""

    name: str
    passed: bool
    witnesses: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)


@dataclass
class VerdictReport:
    """Conjunction of condition records; overall passes iff all conditions do."""

    p: int
    overall: bool
    conditions: list[ConditionRecord]
    certificate: list[dict] = field(default_factory=list)
    sets: tuple[PSet, ...] = field(default=(), compare=False, repr=False)  # the sets judged

    def condition(self, name: str) -> ConditionRecord:
        for record in self.conditions:
            if record.name == name:
                return record
        raise KeyError(name)


@dataclass(frozen=True)
class WaveletFamily:
    """p - 1 named candidate sets indexed by u = 1, ..., p-1."""

    p: int
    names: tuple[str, ...]
    sets: tuple[PSet, ...]

    def __post_init__(self) -> None:
        if len(self.sets) != self.p - 1:
            raise FamilyArityError(
                f"family must contain exactly {self.p - 1} sets for base {self.p}, "
                f"got {len(self.sets)}"
            )
        if len(self.names) != len(self.sets):
            raise FamilyArityError("every member set needs a name")
        for s in self.sets:
            if s.p != self.p:
                raise FamilyArityError("member set base differs from family base")
            if s.is_empty:
                raise FamilyArityError("member sets must be nonempty")

    def union(self) -> PSet:
        """The union of the members, merged once (see _overlaps_and_union)
        and kept: the family is frozen and its sets immutable."""
        return self._union

    @functools.cached_property
    def _union(self) -> PSet:
        return _overlaps_and_union(self.sets)[1]

    def replace(self, u: int, new_set: PSet) -> "WaveletFamily":
        """Family with the u-th member (1-based) swapped out."""
        sets = list(self.sets)
        sets[u - 1] = new_set
        return WaveletFamily(self.p, self.names, tuple(sets))


def shannon_family(p: int) -> WaveletFamily:
    """The family whose u-th set pins digit u at position 0 (measure one each)."""
    sets = tuple(
        PSet(p, (Cylinder(p, 0, ((0, u),)),), validate=False) for u in range(1, p)
    )
    names = tuple(f"omega{u}" for u in range(1, p))
    return WaveletFamily(p, names, sets)


# -- condition (1): measure one ------------------------------------------------


def check_measure_one(family: WaveletFamily) -> ConditionRecord:
    witnesses = []
    measures = {}
    for name, s in zip(family.names, family.sets):
        m = s.measure()
        measures[name] = m.exact_string()
        if m != 1:
            witnesses.append({"set": name, "measure": m.exact_string()})
    return ConditionRecord(
        name="measure-one",
        passed=not witnesses,
        witnesses=witnesses,
        details={"measures": measures},
    )


# -- constant sets ------------------------------------------------------------------


@functools.cache
def _unit_cell(p: int) -> PSet:
    """unit_cell(p), built once per base: a PSet is immutable, and there
    are at most MAX_BASE bases."""
    return unit_cell(p)


@functools.cache
def _annulus(p: int) -> PSet:
    """annulus(p), built once per base, as _unit_cell."""
    return annulus(p)


# -- the members as one index ---------------------------------------------------------


def _overlaps_and_union(
    sets: Sequence[PSet],
) -> tuple[dict[tuple[int, int], tuple[int, DigitMap]], PSet]:
    """The least overlap cell of each pair of member sets, and their union.

    Members i and j overlap on the cylinders of one that _nested_pairs
    finds inside a cylinder of the other; the pair (i, j), i < j, maps to
    the least as a (resolution, digits) key, the least cylinder of
    s_i.intersect(s_j) and the witness of their overlap.  A pair that
    does not overlap is absent.  The union is setalg._union over the
    members, read off the same walk."""
    groups = [s.cylinders for s in sets]
    pairs = list(_nested_pairs(groups))
    least: dict[tuple[int, int], tuple[int, DigitMap]] = {}
    for j, b, i, _ in pairs:
        cell = (b.resolution, b.digits)
        pair = (i, j) if i < j else (j, i)
        if pair not in least or cell < least[pair]:
            least[pair] = cell
    return least, _union(sets[0].p, groups, pairs)


# -- condition (2): dilation tiling ---------------------------------------------


def _least_cell(cylinders: Sequence[Cylinder]) -> dict:
    return min(cylinders, key=Cylinder.sort_key).to_json()


def _check_witness_count(what: str, count: int) -> None:
    """Refuse, before listing them, more witnesses than MAX_REFINE_CELLS."""
    if count > MAX_REFINE_CELLS:
        raise ResolutionCapError(
            f"{what} could list {count} witnesses, more than the cap {MAX_REFINE_CELLS}"
        )


def _cover_defects(
    target: PSet,
    pieces: list[PSet],
    copies: list[int] | None = None,
    *,
    cell_resolution: int = 0,
) -> list[dict]:
    """The parts of the target that the pieces do not cover exactly once.

    Every piece must lie inside the target; piece i counts copies[i]
    times (once each without copies).  Two cylinders are nested or
    disjoint, so when no piece cylinder lies inside another the pieces
    cover the target exactly once iff their measures add up to its
    measure.  Otherwise, and on a measure deficit, one descent,
    _NestingIndex.parts over the piece cylinders, splits the target's
    cylinders only toward piece cylinders and gives each maximal part
    its count, the copies of the keys that contain it.  The defects are
    the parts whose count is not 1, each a cylinder with the one count
    that holds on all of it: 0 on a gap, more than 1 on an overlap.  As
    the pieces lie in the target, only an equal key contains a target
    cylinder, so a part's count is the sum over the keys on its path.
    The descent splits only ancestors of piece cylinders, so the list
    holds at most p entries per piece cylinder and resolution below it,
    never p**resolution; past MAX_REFINE_CELLS it is refused before
    the descent.

    Entries are {"cell", "count"}, plus "cells", the number of cells at
    the cell resolution (the finest one present, at least
    cell_resolution) that the entry spans, when the entry is coarser
    than that; it is written as the exact power "p^k", k the entry's
    depth above the cell resolution, so an entry stays small however
    deep it is.  Entries are sorted by digits, then resolution.
    Expanded to cells, they are exactly the cells that counting every
    cell of every piece would flag.
    """
    p = target.p
    keys: dict[tuple[int, DigitMap], int] = {}
    for piece, k in zip(pieces, copies or itertools.repeat(1)):
        for c in piece.cylinders:
            key = c.resolution, c.digits
            keys[key] = keys.get(key, 0) + k
    levels = {r for r, _ in keys}
    res = max(0, target.max_resolution, *levels)

    # A key lies inside a coarser one only if the keys span two
    # resolutions; the index is built only then, or for the descent.
    index = None
    if len(levels) > 1:
        index = _NestingIndex(c for piece in pieces for c in piece.cylinders)
    overlapping = any(
        m > 1 or index and index.covers(digits, r - 1) for (r, digits), m in keys.items()
    )
    whole = _scaled_count(p, ((c.resolution, 1) for c in target.cylinders), res)
    if not overlapping and _scaled_count(p, ((r, m) for (r, _), m in keys.items()), res) == whole:
        return []

    index = index or _NestingIndex(c for piece in pieces for c in piece.cylinders)
    coarsest = min(c.resolution for c in target.cylinders)
    _check_witness_count("the cover check", p * sum(r - coarsest + 1 for r, _ in keys))
    parts = index.parts(p, target.cylinders, keys)
    defects = sorted((part for part in parts if part[2] != 1), key=lambda d: (d[1], d[0]))
    res = max(res, cell_resolution)
    out = []
    for r, digits, count in defects:
        entry = {"cell": _cylinder(p, r, digits).to_json(), "count": count}
        if r < res:
            entry["cells"] = f"{p}^{res - r}"
        out.append(entry)
    return out


def _shell_overlaps(
    union: PSet,
) -> tuple[Cylinder | None, list[list[Cylinder]], dict[int, tuple[int, DigitMap]]]:
    """The shell keys of a disjoint set D and the overlaps of D with its
    dilates read off them (check_dilation_tiling's docstring proves it).

    Returns D's identity cylinder, if any; the shell keys
    K(c) = c.dilate(-m_c) of its other cylinders, one list per lowest
    nonzero position m_c, each a run of D's cylinders moved by -m_c and
    so canonical: the shell piece of -m_c; and, for every d >= 1 at
    which D meets its dilate by d, the least cell of that overlap as a
    (resolution, digits) key.  One _nested_pairs walk over the key lists
    finds the overlaps at every d at once.  The identity cylinder's own
    overlaps are left to the caller.
    """
    p = union.p
    theta = None
    groups: dict[int, list[Cylinder]] = {}
    for c in union.cylinders:
        if not c.digits:
            theta = c  # D is disjoint, so it holds at most one
            continue
        m = c.digits[0][0]
        key = tuple((pos - m, x) for pos, x in c.digits)
        groups.setdefault(m, []).append(_cylinder(p, c.resolution - m, key))
    lowest, keys = list(groups), list(groups.values())

    # Nesting pairs: keys of two groups, the finer one moved back.
    overlaps: dict[int, tuple[int, DigitMap]] = {}
    for j, x, i, _ in _nested_pairs(keys):
        top = max(lowest[i], lowest[j])
        cell = (x.resolution + top, tuple((pos + top, v) for pos, v in x.digits))
        d = abs(lowest[i] - lowest[j])
        if d not in overlaps or cell < overlaps[d]:
            overlaps[d] = cell
    return theta, keys, overlaps


def check_dilation_tiling(family: WaveletFamily) -> ConditionRecord:
    """Decide whether the contracting dilates of the family tile the dual group.

    Covering is decided on the single shell between the expanded and
    plain unit cells, whose dilates partition everything except the
    identity.  Each cylinder c of the union D, other than an identity
    cylinder, meets exactly one dilate of the shell, and lies inside it:
    the shell pins position 0 to a nonzero digit and all lower positions
    to zero, so the dilate by k meets the shell iff k = -m_c for the
    lowest nonzero position m_c of c, and then the shell key
    K(c) = c.dilate(-m_c) has resolution L_c - m_c >= 0 and lies in the
    shell.  The keys moved by the same k make up the shell piece of k.

    The overlaps of D with its dilates are read off the same keys.  A
    cylinder a of D meets b.dilate(d), for b in D and d >= 1, iff the two
    nest; nested cylinders share their lowest nonzero position, so then
    m_a = m_b + d and moving both by -m_a gives K(a) and K(b).  So D
    meets its dilate by d exactly where two keys K(x), K(y) nest with
    |m_x - m_y| = d, and there the overlap is the finer key moved back
    by max(m_x, m_y).  Distinct cylinders of D are disjoint, so nesting
    keys have m_x != m_y.  As w <= m_c <= L_c <= L for the lowest pinned
    position w of D and its finest resolution L, a nesting pair always
    has 1 <= d <= L - w: the dilates by more never meet D.

    An identity cylinder t of resolution r rejects the family up front,
    as the single shell no longer accounts for everything.  D then meets
    its dilate by every d >= 1 -- t.dilate(d) lies in t, and so does
    b.dilate(d) for every other cylinder b with m_b + d > r -- and the
    overlaps are listed for d in [1, max(L - w, 1)], a range read off D
    alone.

    _shell_overlaps builds the keys and reads the overlaps off them.  It
    is also the whole disjointness check of mra._fixed_point: as
    sigma^i(D) & sigma^j(D) = sigma^i(D & sigma^(j - i)(D)), no overlap
    at any d means all the dilates of D are pairwise disjoint, which
    verify_calderon's pieces_disjoint rests on.
    """
    p = family.p
    names = family.names
    shared, union = _overlaps_and_union(family.sets)
    witnesses: list[dict] = [
        {"kind": "set-overlap", "sets": [names[i], names[j]], "cell": _cylinder(p, *cell).to_json()}
        for (i, j), cell in sorted(shared.items())
    ]

    level = union.max_resolution
    w_lo = union.min_fixed_position
    if w_lo is None:
        w_lo = level  # all-zero cylinders only; ranges below are diagnostic

    theta, groups, overlaps = _shell_overlaps(union)

    if theta is not None:
        witnesses.append({"kind": "contains-identity-neighborhood", "cell": theta.to_json()})
        d_hi = max(level - w_lo, 1)
        _check_witness_count(f"the dilate range [1, {d_hi}]", d_hi)
        # Cylinders coarser than t come before t's dilate in canonical
        # order; b enters at its least d with m_b + d > r, and the least
        # entered one stays the least for every larger d.
        r = theta.resolution
        entering: dict[int, Cylinder] = {}
        for c in union.cylinders:
            if c.digits and c.resolution < r:
                entering.setdefault(r - c.digits[0][0] + 1, c)
        least = None
        for d in range(1, d_hi + 1):
            b = entering.get(d)
            if b is not None and (least is None or b.sort_key() < least.sort_key()):
                least = b
            b = least or theta
            cell = (b.resolution + d, tuple((pos + d, x) for pos, x in b.digits))
            if d in overlaps and overlaps[d] < cell:
                cell = overlaps[d]
            overlaps[d] = cell

    for d in sorted(overlaps):
        witnesses.append(
            {"kind": "dilate-overlap", "d": d, "cell": _cylinder(p, *overlaps[d]).to_json()}
        )

    if theta is not None:
        # The finite covering argument needs the identity cylinder excluded;
        # the condition already failed, so skip the shell count.
        return ConditionRecord(
            name="dilation-tiling",
            passed=False,
            witnesses=witnesses,
            details={"resolution": level, "degenerate": True},
        )

    pieces = [PSet._canonical(p, tuple(group)) for group in groups]
    top = max(x.resolution for group in groups for x in group)
    shell_total = _scaled_count(p, ((x.resolution, 1) for g in groups for x in g), top)
    witnesses.extend(
        {"kind": "cover-defect", **entry} for entry in _cover_defects(_annulus(p), pieces)
    )

    return ConditionRecord(
        name="dilation-tiling",
        passed=not witnesses,
        witnesses=witnesses,
        details={
            "resolution": level,
            "lowest_fixed_position": w_lo,
            "dilate_range": [1, max(level - w_lo, 0)],
            "shell_range": [-level, -w_lo],
            "shell_measure": Measure.make(shell_total, p, top).exact_string(),
        },
    )


# -- condition (3): lattice-translation congruence --------------------------------


def congruence_partition(s: PSet) -> list[tuple[GroupElement, PSet, PSet]]:
    """Split a set by the integer part of its cells.

    Returns (n, piece, piece translated by -n) triples, ordered by the
    lattice index of n; every translated piece lies inside the unit cell
    by construction.  The integer part of a cylinder of resolution >= 0
    is its leading digits, those at positions <= 0, and translating by -n
    strips exactly them: the translated piece is read off the digit maps,
    with no group arithmetic.  A cylinder coarser than resolution 0 pins
    only integer positions and spans p**-r integer parts, r its
    resolution: it is a piece of its own, n its pinned digits, and its
    translated piece is the unit cell, which its p**-r lattice translates
    each cover once, so it is never split.
    """
    p = s.p
    # Keyed by n's digits: a cylinder's digits at positions <= 0.  No
    # other cylinder of s has a coarse cylinder's integer part, as it
    # would lie inside it.
    groups: dict[DigitMap, tuple[list[Cylinder], list[Cylinder]]] = {}
    for c in s.cylinders:
        prefix = _truncate(c.digits, 0)
        if prefix not in groups:
            groups[prefix] = ([], [])
        piece, moved = groups[prefix]
        piece.append(c)
        if c.resolution >= 0:
            moved.append(_cylinder(p, c.resolution, c.digits[len(prefix):]))
    # A group is one coarse cylinder or an in-order run of cylinders of s
    # that share their leading digits, so it is canonical before and
    # after they are stripped.
    out = [
        (
            from_digits(p, dict(prefix)),
            PSet._canonical(p, tuple(piece)),
            PSet._canonical(p, tuple(moved)) if moved else _unit_cell(p),
        )
        for prefix, (piece, moved) in groups.items()
    ]
    out.sort(key=lambda part: lambda_encode(part[0]))
    return out


def congruence_defects(s: PSet) -> tuple[list[tuple[GroupElement, PSet, PSet]], list[dict]]:
    """Decide whether the lattice translates of s cover the unit cell once.

    Returns the congruence partition of s together with the parts of the
    unit cell that the translated pieces do not cover exactly once, as
    _cover_defects entries (none when s is congruent to the unit cell).
    A piece of resolution r < 0 counts p**-r times.
    """
    parts = congruence_partition(s)
    copies = [s.p ** max(-piece.cylinders[0].resolution, 0) for _, piece, _ in parts]
    return parts, _cover_defects(_unit_cell(s.p), [t for _, _, t in parts], copies)


def check_translation_congruence(family: WaveletFamily) -> tuple[ConditionRecord, list[dict]]:
    """Decide condition (3) for every member and name its pieces.

    The certificate holds one {"set", "partition"} entry per member.
    Each partition entry is {"lattice_index", "piece"}: the lattice index
    of the piece's integer part n, and the increasing positions of the
    piece's cylinders in the member's canonical cylinder list
    (PSet.cylinders, sorted by resolution then digits, siblings merged).
    Nothing derivable is written: the piece translated by -n is its
    cylinders with the digits at positions <= 0 stripped, or the unit
    cell for a piece coarser than resolution 0 (see congruence_partition).
    """
    witnesses: list[dict] = []
    certificate: list[dict] = []

    for name, s in zip(family.names, family.sets):
        parts, defects = congruence_defects(s)
        position = {c: i for i, c in enumerate(s.cylinders)}
        witnesses.extend(
            {
                "kind": "translate-overlap" if entry["count"] > 1 else "cover-gap",
                "set": name,
                **entry,
            }
            for entry in defects
        )
        certificate.append(
            {
                "set": name,
                "partition": [
                    {
                        "lattice_index": lambda_encode(n),
                        "piece": [position[c] for c in piece.cylinders],
                    }
                    for n, piece, _ in parts
                ],
            }
        )

    return (
        ConditionRecord(
            name="translation-congruence",
            passed=not witnesses,
            witnesses=witnesses,
            details={"sets": list(family.names)},
        ),
        certificate,
    )


# -- top-level decision --------------------------------------------------------------


def is_wavelet_set(family: WaveletFamily) -> VerdictReport:
    """Decide all conditions; measure one is implied by congruence but is
    checked independently for sharper diagnostics."""
    measure = check_measure_one(family)
    tiling = check_dilation_tiling(family)
    congruence, certificate = check_translation_congruence(family)
    conditions = [measure, tiling, congruence]
    return VerdictReport(
        p=family.p,
        overall=all(c.passed for c in conditions),
        conditions=conditions,
        certificate=certificate,
        sets=family.sets,
    )


# -- enumeration --------------------------------------------------------------------


@dataclass
class SearchResult:
    families: list[WaveletFamily]
    exhausted: bool
    examined: int


def search_wavelet_sets(p: int, window: tuple[int, int], *, budget: int | None = None) -> SearchResult:
    """Enumerate measure-one disjoint families inside a digit window and
    keep those that are wavelet sets.

    Atoms are the cells of resolution R, the window top, whose pinned
    digits sit inside the window; each member set takes p**R of them.
    Candidates are ranked in lexicographic order -- each member an
    increasing choice among the atoms the earlier members left -- so
    output order is deterministic.
    The budget bounds how many candidates are examined; hitting it flags
    the result as exhausted.

    The walk decides every candidate; no family is built to be verified.
    Dilating an atom by minus its lowest nonzero position m gives its
    shell key, a cylinder of resolution R - m in the shell between the
    expanded and plain unit cells.  The walk drops a partial family on
    the zero atom (an identity neighbourhood, so tiling fails), a
    fractional class repeated within a member (two atoms translate onto
    one cell, so congruence fails) or two nesting shell keys (a dilate
    overlap, so tiling fails), and adds the size of each dropped subtree
    to the rank in closed form.  A complete candidate that survives is a
    wavelet set exactly when its keys' weights fill the shell, by the
    three conditions of is_wavelet_set:

    * Measure one.  Each member is p**R distinct atoms of resolution R,
      each of measure p**-R.
    * Congruence.  A lattice shift rewrites only positions <= 0, so it
      moves an atom onto the unit-cell cell with the same fractional
      digits (positions 1..R).  The atoms' fractional classes hit each of
      the p**R classes once, so the translates cover the unit cell once.
    * Tiling, by the shell-key argument of check_dilation_tiling.
      - No atom is the zero atom, so the union holds no identity
        cylinder and the single shell accounts for all but the identity.
      - The members are disjoint: each draws from the atoms the earlier
        members left, and distinct atoms of one resolution are disjoint.
      - No two shell keys nest (equal keys included), so no dilate of the
        union by d >= 1 meets the union.
      - Keys that do not nest are disjoint cylinders of the shell, so
        they cover it once exactly when their measures add up to its
        measure p - 1.  Key measure p**(m - R) is weight p**(m - lo)
        over p**(R - lo), so that is a weight sum of (p - 1)*p**(R - lo).

    A window of more than MAX_REFINE_CELLS atoms is refused before any
    atom is listed; without a budget, so is a window with more families
    of transversals than that.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("window lower bound exceeds upper bound")
    check_base(p)
    if hi < 0 or lo > 1:
        # A member takes p**hi atoms: a fraction for hi < 0, and for lo > 1
        # p - 1 members need more than the p**(hi - lo + 1) in the window.
        return SearchResult(families=[], exhausted=False, examined=0)

    span = hi - lo + 1
    if _exceeds(p, span, MAX_REFINE_CELLS):
        raise ResolutionCapError(
            f"search window {lo}..{hi} holds {p}**{span} atoms, "
            f"more than the cap {MAX_REFINE_CELLS}"
        )
    per_set = p**hi
    # Each member of a candidate that survives the walk is a transversal:
    # one of p**(1 - lo) integer parts for each of the p**hi classes.
    if budget is None and _exceeds(p ** (1 - lo), per_set * (p - 1), MAX_REFINE_CELLS):
        raise ResolutionCapError(
            f"search window {lo}..{hi} has up to {p ** (1 - lo)}**{per_set * (p - 1)} "
            f"transversal families, more than the cap {MAX_REFINE_CELLS}; give a budget"
        )

    # Counts only meet the budget, so they are exact up to budget + 1.
    cap = inf if budget is None else budget + 1
    n = p**span
    # tail[k]: the choices of the members after member k, which do not
    # depend on what member k takes.
    tail = [1] * (p - 1)
    for k in range(p - 3, -1, -1):
        tail[k] = min(tail[k + 1] * _comb_upto(n - (k + 1) * per_set, per_set, cap), cap)
    total = min(_comb_upto(n, per_set, cap) * tail[0], cap)
    limit = total if budget is None else min(total, budget)
    found: list[WaveletFamily] = []
    if limit:
        _walk_transversals(p, lo, hi, per_set, tail, cap, limit, found)
    return SearchResult(
        families=found,
        exhausted=budget is not None and total > budget,
        examined=limit,
    )


def _comb_upto(n: int, k: int, cap: int | float) -> int:
    """min(comb(n, k), cap), without building a huge binomial.

    The partial products comb(n - k + i, i) grow with i, so the first
    one to reach the cap settles the answer.
    """
    k = min(k, n - k)
    if k < 0:
        return 0
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c >= cap:
            return cap
    return c


def _window_cell(p: int, lo: int, hi: int, i: int) -> DigitMap:
    """The i-th resolution-hi cell of the window in lexicographic order:
    position lo carries the most significant base-p digit of i."""
    digits = []
    for pos in range(hi, lo - 1, -1):
        i, d = divmod(i, p)
        if d:
            digits.append((pos, d))
    return tuple(reversed(digits))


def _walk_transversals(
    p: int,
    lo: int,
    hi: int,
    per_set: int,
    tail: list[int],
    cap: int | float,
    limit: int,
    found: list[WaveletFamily],
) -> None:
    """Visit the candidates of rank below `limit` in order, appending to
    `found` every complete candidate whose keys fill the shell
    (search_wavelet_sets proves each one a wavelet set).  Subtree sizes
    are counted up to `cap`, which exceeds `limit`.

    Each step is a few C-level operations.  A member's used fractional
    classes are one int bitmask: _window_cell gives position hi the least
    significant digit of i, so atom i's class bit is 1 << (i % p**hi).
    A dict counts the chosen atoms whose chains hold each chain key, and
    the sizes of dropped subtrees are memoized, the cap being fixed."""
    shell_weight = (p - 1) * p ** (hi - lo)
    names = tuple(f"omega{u}" for u in range(1, p))
    seen: dict[int, tuple] = {}
    chosen: set = set()  # shell keys of the chosen atoms
    inside: dict = {}  # chain key -> how many chosen atoms' chains hold it
    comb = functools.cache(lambda n, k: _comb_upto(n, k, cap))
    members: list[list[int]] = []
    rank = weight = 0

    def atom(i: int) -> tuple:
        """(cell, shell key, its truncations at resolutions 0..its own,
        class bit, weight) of atom i, worked out on first use; the zero
        atom has no key."""
        x = _window_cell(p, lo, hi, i)
        if not x:
            seen[i] = (x, None, (), 0, 0)
        else:
            m = x[0][0]
            digits = tuple((pos - m, d) for pos, d in x)
            chain = tuple(
                (q, tuple(pd for pd in digits if pd[0] <= q)) for q in range(hi - m + 1)
            )
            seen[i] = (x, chain[-1], chain, 1 << (i % per_set), p ** (m - lo))
        return seen[i]

    def walk(k: int, pool: Sequence[int]) -> None:
        """Member k's choices from pool, until the rank hits the limit."""
        nonlocal rank, weight
        size = len(pool)
        after = tail[k]
        used = 0  # class bits of the picks
        picks: list[int] = []  # pool indices, increasing
        j = 0
        while rank < limit:
            need = per_set - len(picks)
            if j > size - need:
                if not picks:
                    return
                j = picks.pop()
                _, key, chain, bit, w = seen[pool[j]]
                weight -= w
                used ^= bit
                chosen.discard(key)
                for c in chain:
                    inside[c] -= 1
                j += 1
                continue
            _, key, chain, bit, w = seen.get(pool[j]) or atom(pool[j])
            # Drop the zero atom (it holds an identity neighbourhood), a
            # class this member already holds and a key nesting with a chosen key.
            if key is None or used & bit or inside.get(key) or not chosen.isdisjoint(chain):
                rank += comb(size - j - 1, need - 1) * after
                j += 1
                continue
            weight += w
            used |= bit
            chosen.add(key)
            for c in chain:
                inside[c] = inside.get(c, 0) + 1
            picks.append(j)
            if need > 1:
                j += 1
                continue
            members.append([pool[i] for i in picks])
            if k + 2 < p:
                taken = set(members[-1])
                walk(k + 1, [a for a in pool if a not in taken])
            else:
                if weight == shell_weight:
                    # Atoms are cells of the window, so the constructor only merges.
                    sets = (
                        PSet(p, [_cylinder(p, hi, seen[i][0]) for i in m], validate=False)
                        for m in members
                    )
                    found.append(WaveletFamily(p, names, tuple(sets)))
                rank += 1
            members.pop()
            j = size + 1  # the member is whole, so the next step undoes its last pick

    walk(0, range(p ** (hi - lo + 1)))
