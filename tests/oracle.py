"""Brute-force reference implementations used for differential testing.

Sets are represented exhaustively as tuples of digits over an explicit
window of positions, one tuple per finest-resolution cell, with exact
Fraction measures.  This shares no code with the cylinder algebra: every
operation is plain tuple manipulation, so agreement between the two is
meaningful.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from vilenkin_wavelets.errors import BaseMismatchError
from vilenkin_wavelets.group import GroupElement, from_digits
from vilenkin_wavelets.setalg import Cylinder, PSet


@dataclass(frozen=True)
class CellSet:
    """Subset of the dual group pinned to zero below `lo`, free above `hi`.

    ``cells`` holds one digit tuple per member cell; entry k is the digit
    at position lo + k.
    """

    p: int
    lo: int
    hi: int
    cells: frozenset

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_pset(pset: PSet, lo: int, hi: int) -> "CellSet":
        cells = set()
        for c in pset.cylinders:
            assert c.resolution <= hi, "window too fine for this set"
            if c.min_fixed_position is not None:
                assert c.min_fixed_position >= lo, "window too coarse"
            fixed = [c.digit(pos) for pos in range(lo, c.resolution + 1)]
            span = hi - c.resolution
            for extra in itertools.product(range(pset.p), repeat=span):
                cells.add(tuple(fixed) + extra)
        return CellSet(pset.p, lo, hi, frozenset(cells))

    def to_pset(self) -> PSet:
        cyls = []
        for cell in self.cells:
            digits = tuple(
                (self.lo + k, d) for k, d in enumerate(cell) if d
            )
            cyls.append(Cylinder(self.p, self.hi, digits))
        return PSet(self.p, cyls, validate=False)

    # -- window bookkeeping ----------------------------------------------------

    def with_window(self, lo: int, hi: int) -> "CellSet":
        assert lo <= self.lo and hi >= self.hi
        pad = (0,) * (self.lo - lo)
        span = hi - self.hi
        cells = set()
        for cell in self.cells:
            base = pad + cell
            for extra in itertools.product(range(self.p), repeat=span):
                cells.add(base + extra)
        return CellSet(self.p, lo, hi, frozenset(cells))

    def _aligned(self, other: "CellSet") -> tuple["CellSet", "CellSet"]:
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return self.with_window(lo, hi), other.with_window(lo, hi)

    # -- set algebra ----------------------------------------------------------

    def union(self, other: "CellSet") -> "CellSet":
        a, b = self._aligned(other)
        return CellSet(self.p, a.lo, a.hi, a.cells | b.cells)

    def intersect(self, other: "CellSet") -> "CellSet":
        a, b = self._aligned(other)
        return CellSet(self.p, a.lo, a.hi, a.cells & b.cells)

    def difference(self, other: "CellSet") -> "CellSet":
        a, b = self._aligned(other)
        return CellSet(self.p, a.lo, a.hi, a.cells - b.cells)

    def equals(self, other: "CellSet") -> bool:
        a, b = self._aligned(other)
        return a.cells == b.cells

    def is_empty(self) -> bool:
        return not self.cells

    def measure(self) -> Fraction:
        return Fraction(len(self.cells)) * Fraction(self.p) ** (-self.hi)

    # -- group actions ----------------------------------------------------------

    def translate(self, t: GroupElement) -> "CellSet":
        lo, hi = self.lo, self.hi
        if t.min_pos is not None:
            lo = min(lo, t.min_pos)
        if t.max_pos is not None:
            assert t.max_pos <= hi, "translator finer than the window"
        base = self.with_window(lo, hi)
        shift = tuple(t.digit(pos) for pos in range(lo, hi + 1))
        cells = frozenset(
            tuple((d + s) % self.p for d, s in zip(cell, shift))
            for cell in base.cells
        )
        return CellSet(self.p, lo, hi, cells)

    def dilate(self, k: int) -> "CellSet":
        return CellSet(self.p, self.lo + k, self.hi + k, self.cells)


# -- plain references for single cylinders, points, characters and grid cells -------


def cylinder_relation(a: Cylinder, b: Cylinder) -> str:
    """One of 'disjoint', 'equal', 'contains', 'within', for a against b.

    Two cylinders meet iff they pin the same digits up to the coarser
    resolution, and then the coarser contains the finer.
    """
    r = min(a.resolution, b.resolution)
    if [pd for pd in a.digits if pd[0] <= r] != [pd for pd in b.digits if pd[0] <= r]:
        return "disjoint"
    if a.resolution == b.resolution:
        return "equal"
    return "contains" if a.resolution < b.resolution else "within"


def cylinder_integer_part(c: Cylinder) -> GroupElement:
    """The lattice element of a cylinder's pinned digits at positions <= 0;
    a cylinder coarser than resolution 0 spans several."""
    assert c.resolution >= 0, "integer part requires resolution >= 0"
    return from_digits(c.p, {pos: d for pos, d in c.digits if pos <= 0})


def set_contains_point(s: PSet, x: GroupElement) -> bool:
    """Whether x lies in s: in some cylinder c, its digits up to c's
    resolution are c's."""
    assert x.p == s.p, "point and set bases differ"
    support = tuple(x.support())
    return any(tuple(pd for pd in support if pd[0] <= c.resolution) == c.digits for c in s.cylinders)


def character_exponent(x: GroupElement, omega: GroupElement) -> int:
    """Exponent e in chi(x, omega) = exp(2*pi*i*e/p).

    The pairing sums x_j * omega_{1-j} over all positions j, reduced
    modulo p.  It is symmetric and bilinear, and shifting one argument by
    the contracting dilation equals shifting the other the same way.
    """
    if x.p != omega.p:
        raise BaseMismatchError(f"mixed bases {x.p} and {omega.p}")
    return sum(d * omega.digit(1 - j) for j, d in x.support()) % x.p


def grid_cell_element(grid, index: int) -> GroupElement:
    """The element of a QuotientGrid cell: index read as a base-p numeral
    over the grid positions, first position most significant."""
    digits = {}
    for pos in reversed(grid.positions):
        index, d = divmod(index, grid.p)
        if d:
            digits[pos] = d
    return from_digits(grid.p, digits)


def unit_cells(p: int, lo: int, hi: int) -> CellSet:
    """The unit cell (digits at positions <= 0 all zero) on a window."""
    assert lo <= 0
    cells = set()
    for combo in itertools.product(range(p), repeat=hi):
        cells.add((0,) * (1 - lo) + combo)
    return CellSet(p, lo, hi, frozenset(cells))


def shell_cells(p: int, m: int = 0) -> CellSet:
    """The shell of elements whose lowest nonzero digit sits at position m."""
    return CellSet(p, m, m, frozenset((d,) for d in range(1, p)))


# -- reference wavelet-set decision --------------------------------------------------


def oracle_is_wavelet_set(
    p: int,
    sets: list[CellSet],
    *,
    dilate_range: int | None = None,
    shell_indices=(-1, 0, 1),
    shift_range: int | None = None,
) -> dict:
    """Decide the wavelet-set conditions by enumeration.

    By default the ranges reach exactly as far as a dilate can matter on
    the cells' window [lo, hi].  The points of a cell that is not all zero
    have their lowest nonzero digit at one position in [lo, hi], so, as
    ``verifier.check_dilation_tiling`` proves for nesting pairs (no
    d > L - w), the union meets its dilate by d > hi - lo nowhere; an
    all-zero cell meets its dilate by 1 already.  The dilate by k meets
    shell m only if lo + k <= m <= hi + k, so |k| never exceeds the larger
    of |m - lo| and |m - hi|.  Passing either range overrides it.
    """
    lo = min(s.lo for s in sets)
    hi = max(s.hi for s in sets)
    if dilate_range is None:
        dilate_range = max(hi - lo, 1)
    if shift_range is None:
        shift_range = max((abs(m - end) for m in shell_indices for end in (lo, hi)), default=0)
    measures_ok = all(s.measure() == 1 for s in sets)

    union = sets[0]
    for s in sets[1:]:
        union = union.union(s)

    pairwise_sets_ok = True
    for a, b in itertools.combinations(sets, 2):
        if not a.intersect(b).is_empty():
            pairwise_sets_ok = False

    tiling_ok = pairwise_sets_ok
    for d in range(1, dilate_range + 1):
        if not union.intersect(union.dilate(d)).is_empty():
            tiling_ok = False
            break
    if tiling_ok:
        for m in shell_indices:
            shell = shell_cells(p, m)
            total = Fraction(0)
            covered = CellSet(p, shell.lo, shell.hi, frozenset())
            for k in range(-shift_range, shift_range + 1):
                piece = union.dilate(k).intersect(shell)
                total += piece.measure()
                covered = covered.union(piece)
            if total != shell.measure() or not covered.equals(shell):
                tiling_ok = False
                break

    congruence_ok = True
    for s in sets:
        assert s.hi >= 0, "congruence oracle needs cells refined into unit cosets"
        base = s.with_window(min(s.lo, 0), s.hi)
        n_span = 1 - base.lo  # positions <= 0 carried by each cell
        seen = set()
        ok = True
        for cell in base.cells:
            shifted = (0,) * n_span + cell[n_span:]
            if shifted in seen:
                ok = False
            seen.add(shifted)
        target = unit_cells(p, base.lo, base.hi)
        if not ok or frozenset(seen) != target.cells:
            congruence_ok = False

    return {
        "measure": measures_ok,
        "tiling": tiling_ok,
        "congruence": congruence_ok,
        "overall": measures_ok and tiling_ok and congruence_ok,
    }


# -- reference filters and quadrature identities -----------------------------------
#
# A point of the dual group with finitely many nonzero digits is a dict
# {position: digit}.


def contains(s: CellSet, x: dict) -> bool:
    """Whether the point x lies in s."""
    if any(d and pos < s.lo for pos, d in x.items()):
        return False
    return tuple(x.get(pos, 0) for pos in range(s.lo, s.hi + 1)) in s.cells


def _shifted(x: dict, k: int) -> dict:
    """The point x with every digit moved by k positions."""
    return {pos + k: d for pos, d in x.items() if d}


def _in_spectrum(union: CellSet, x: dict) -> bool:
    """Whether x != 0 lies in the dilate of the union by some j >= 1.

    The points of that dilate have their lowest nonzero digit at a
    position of at least union.lo + j, so j stops there."""
    lowest = min(pos for pos, d in x.items() if d)
    return any(contains(union, _shifted(x, -j)) for j in range(1, lowest - union.lo + 1))


def _filter_values(p: int, members: list[CellSet], union: CellSet, x: dict):
    """(m0, (m1_1, ..)) at x, or None off the spectrum: m1_u is the
    indicator of the first dilate of member u, m0 that of the rest of
    the spectrum."""
    if not _in_spectrum(union, x):
        return None
    bands = tuple(int(contains(s, _shifted(x, -1))) for s in members)
    return 1 - sum(bands), bands


def oracle_filter_rows(p: int, members: list[CellSet], r: int) -> dict:
    """The rows of the `filters` report at table resolution r.

    Keys are the digit tuples, at positions lo..r, of the resolution-r
    cells of the scaling spectrum (the union of the dilates of the
    family union by every j >= 1); lo = min(union.lo + 1, 1), as every
    spectrum point has its lowest nonzero digit past union.lo.  Values
    are (m0, (m1_1, .., m1_{p-1})).  The spectrum and the filters are
    unions of resolution-r cells, so a cell is decided by its points
    whose digits past r are a nonzero word at positions r + 1, r + 2,
    which must all agree.
    """
    union = members[0]
    for s in members[1:]:
        union = union.union(s)
    lo = min(union.lo + 1, 1)
    rows = {}
    for cell in itertools.product(range(p), repeat=r - lo + 1):
        pinned = dict(zip(range(lo, r + 1), cell))
        seen = {
            _filter_values(p, members, union, {**pinned, r + 1: a, r + 2: b})
            for a, b in itertools.product(range(p), repeat=2)
            if a or b
        }
        assert len(seen) == 1, f"not constant on the cell {cell}"
        (values,) = seen
        if values is not None:
            rows[cell] = values
    return rows


def oracle_tables(p: int, rows: dict, r: int) -> list[dict]:
    """The tables m0, m1_1, .. on the unit cell, each a dict from the
    digit tuple at positions 1..r to 0 or 1: the value of the one
    spectrum cell with those fractional digits (its lattice translates
    are disjoint and cover the unit cell)."""
    tables: list[dict] = [{} for _ in range(p)]
    for cell, (m0, bands) in rows.items():
        fraction = cell[len(cell) - r :]
        for table, value in zip(tables, (m0, *bands)):
            assert fraction not in table, f"two spectrum cells over {fraction}"
            table[fraction] = value
    assert all(len(t) == p**r for t in tables), "the spectrum misses a fraction"
    return tables


def oracle_permutation_test(p: int, tables: list[dict], r: int, level: int) -> dict:
    """The quadrature identities cell by cell at resolution `level` >= r.

    Keys are the digit tuples at positions 1..level of the unit cell's
    cells.  At a cell x the p x p matrix M[k][c] holds table c at the
    cell whose position-1 digit is x's plus k (mod p); the identities
    hold there iff M is a permutation matrix.  Values are (M is a
    permutation matrix, column sums, row sums)."""
    out = {}
    for cell in itertools.product(range(p), repeat=level):
        matrix = [
            [t[((cell[0] + k) % p,) + cell[1:r]] for t in tables] for k in range(p)
        ]
        columns = tuple(sum(row[c] for row in matrix) for c in range(p))
        rows = tuple(sum(row) for row in matrix)
        out[cell] = (columns == rows == (1,) * p, columns, rows)
    return out


# -- reference MRA overlap table ----------------------------------------------------


def lattice_index(p: int, lo: int, digits: tuple) -> int:
    """The lattice index of the digits at positions lo..0 of a digit tuple
    that starts at lo: the digit at position -k weighs p**k."""
    return sum(d * p ** (-lo - k) for k, d in enumerate(digits[: 1 - lo]))


def oracle_overlap_table(s: CellSet) -> dict[int, CellSet]:
    """S & (S + n), keyed by the lattice index of n, for every lattice n
    whose digits lie at positions lo..0: any other n moves a digit below
    lo, where every cell of s is zero, so its overlap is empty.  The
    window must hold position 0."""
    p, lo = s.p, s.lo
    assert lo <= 0 <= s.hi, "the window must hold position 0"
    width = 1 - lo
    table = {}
    for shift in itertools.product(range(p), repeat=width):
        moved = {
            tuple((d + t) % p for d, t in zip(cell, shift)) + cell[width:] for cell in s.cells
        }
        table[lattice_index(p, lo, shift)] = CellSet(p, lo, s.hi, s.cells & frozenset(moved))
    return table


def oracle_translation_candidates(s: CellSet) -> list[int]:
    """The lattice indices of the differences a - b of the integer parts
    (digits at positions lo..0) of two cells of s, and of the p shifts of
    the digit at position 0 alone, in increasing order."""
    p, width = s.p, 1 - s.lo
    parts = {cell[:width] for cell in s.cells}
    differences = {tuple((x - y) % p for x, y in zip(a, b)) for a in parts for b in parts}
    return sorted({lattice_index(p, s.lo, n) for n in differences} | set(range(p)))


def oracle_least_cylinder(s: CellSet) -> dict:
    """The least of the largest cylinders inside a nonempty s, as
    Cylinder.to_json writes it: the coarsest resolution at which some
    cylinder lies inside s, then the least of those cylinders' sorted
    (position, digit) pairs of nonzero digits."""
    for r in range(s.lo - 1, s.hi + 1):
        counts = Counter(cell[: r - s.lo + 1] for cell in s.cells)
        inside = [prefix for prefix, n in counts.items() if n == s.p ** (s.hi - r)]
        if inside:
            keys = [tuple((s.lo + k, d) for k, d in enumerate(prefix) if d) for prefix in inside]
            least = min(keys)
            return {"resolution": r, "digits": {str(pos): d for pos, d in least}}
    raise AssertionError("the empty set holds no cylinder")


# -- reference scaling spectrum and Calderon identity --------------------------------


def union_of(sets: list[CellSet]) -> CellSet:
    out = sets[0]
    for s in sets[1:]:
        out = out.union(s)
    return out


def ball_cells(p: int, m: int) -> CellSet:
    """The points whose digits at positions <= m are all 0."""
    return CellSet(p, m + 1, m + 1, frozenset((d,) for d in range(p)))


def lowest_nonzero(s: CellSet) -> int:
    """The lowest position at which some cell of s has a nonzero digit."""
    return s.lo + min(k for cell in s.cells for k, d in enumerate(cell) if d)


def oracle_spectrum(members: list[CellSet], J: int) -> CellSet:
    """The depth-J truncation: the union of the dilates of the family
    union by 1 to J."""
    union = union_of(members)
    return union_of([union.dilate(j) for j in range(1, J + 1)])


def oracle_fixed_point(members: list[CellSet], J: int) -> CellSet | None:
    """The depth-J truncation plus the ball of the points whose digits at
    positions <= w + J are 0, w the family union's lowest nonzero digit
    position, when that set S equals its image sigma(U) | sigma(S);
    else None."""
    union = union_of(members)
    p = union.p
    candidate = oracle_spectrum(members, J).union(ball_cells(p, lowest_nonzero(union) + J))
    image = union.dilate(1).union(candidate.dilate(1))
    return candidate if image.equals(candidate) else None


def oracle_calderon(members: list[CellSet], truncation: CellSet, J: int) -> dict:
    """The Calderon identity for a reported depth-J truncation: it passes
    when the truncation is the union of the dilates 1 to J and those
    pieces, sigma^j(D_u), are pairwise disjoint (their measures add up to
    the measure of their union).  Also the measures verify_calderon
    reports, with the truncation two levels deeper as the reference."""
    p = members[0].p
    exact = oracle_spectrum(members, J)
    deeper = oracle_spectrum(members, J + 2)
    pieces = sum(s.dilate(j).measure() for s in members for j in range(1, J + 1))
    disjoint = pieces == exact.measure()
    return {
        "passed": disjoint and truncation.equals(exact),
        "truncation_measure": truncation.measure(),
        "recomputed_measure": deeper.measure(),
        "symmetric_difference": truncation.difference(deeper)
        .union(deeper.difference(truncation))
        .measure(),
        "tail_allowance": Fraction(1, p**J) - Fraction(1, p ** (J + 2)),
        "pieces_disjoint": disjoint,
    }


# -- reference refinement equations and low-pass product ----------------------------


def _table_value(table: dict, x: dict, r: int, j: int = 0) -> int:
    """A lattice-periodic filter at p^j x: its table at x's digits
    1 - j .. r - j."""
    return table[tuple(x.get(pos, 0) for pos in range(1 - j, r + 1 - j))]


def oracle_two_scale(
    members: list[CellSet], tables: list[dict], r: int, window: int
) -> dict[str, dict]:
    """The two refinement equations and the low-pass product, point by point.

    The window is the cells at positions 1 - window .. r + 1, keyed by
    their digit tuples there; r is the tables' resolution.  Each cell is
    decided by its points whose only digit past r + 1 is a nonzero one
    at position r + 2, which must all agree.  At a point x, with
    Omega the scaling spectrum, x/p the point with every digit moved one
    position down and m0, m1_u the tables extended periodically:

    - "two-scale-m0": lhs Omega(x/p), rhs m0(x) Omega(x);
    - "two-scale-m1[u]": lhs D_u(x/p), rhs m1_u(x) Omega(x);
    - "low-pass-product": lhs the infinite product of m0(p^j x) over
      j >= 1, p^j x the point with every digit moved j positions up, and
      rhs Omega(x).  Once x's lowest nonzero digit moves past position r
      every factor is m0 at the zero fraction, so the product ends with
      that factor repeated forever.

    Returns one dict per identity from cell to (lhs, rhs)."""
    p = members[0].p
    union = union_of(members)
    m0 = tables[0]
    names = ["two-scale-m0", *(f"two-scale-m1[{u}]" for u in range(1, p))]
    limit = m0[(0,) * r]

    def values(x: dict) -> dict:
        omega = int(_in_spectrum(union, x))
        down = _shifted(x, -1)
        lhs = [int(_in_spectrum(union, down)), *(int(contains(s, down)) for s in members)]
        factors = [_table_value(t, x, r) for t in tables]
        out = {name: (a, m * omega) for name, a, m in zip(names, lhs, factors)}
        lowest = min(pos for pos, d in x.items() if d)
        product = limit
        for j in range(1, r - lowest + 1):
            product *= _table_value(m0, x, r, j)
        out["low-pass-product"] = (product, omega)
        return out

    lo, hi = 1 - window, r + 1
    found: dict[str, dict] = {name: {} for name in [*names, "low-pass-product"]}
    for cell in itertools.product(range(p), repeat=hi - lo + 1):
        pinned = dict(zip(range(lo, hi + 1), cell))
        seen = [values({**pinned, hi + 1: d}) for d in range(1, p)]
        assert all(v == seen[0] for v in seen), f"not constant on the cell {cell}"
        for name, value in seen[0].items():
            found[name][cell] = value
    return found
