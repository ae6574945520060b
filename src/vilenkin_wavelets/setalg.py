"""Exact algebra of cylinder subsets of the dual group.

A cylinder at resolution L pins every digit at positions <= L (finitely
many of them to nonzero values, the rest to zero) and leaves all finer
positions free; its Haar measure is exactly p**(-L).  Every set handled
here is a finite disjoint union of cylinders, which is closed under
boolean operations, lattice translations and dilations, so membership,
measure and almost-everywhere equality are all decided exactly.

Measures are p-adic rationals stored as (count, scale) with value
count * p**(-scale); no floating point is involved anywhere.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import (
    BaseMismatchError,
    DigitError,
    OverlapError,
    ResolutionCapError,
)
from .group import GroupElement, check_base, from_digits

#: Hard cap on cylinder resolutions; refinements past this raise.
MAX_RESOLUTION = 24

#: Cap on the number of cells a single refinement may produce.
MAX_REFINE_CELLS = 2_000_000


def _exceeds(base: int, exponent: int, limit: int) -> bool:
    """base**exponent > limit, without building a huge power."""
    return base > 1 and (exponent > limit.bit_length() or base**exponent > limit)

DigitMap = tuple[tuple[int, int], ...]

#: Decimal digits per chunk of a long count: str() refuses integers of
#: more digits than sys.get_int_max_str_digits() (4300 by default, 640
#: at the least).
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """str(n) for a nonnegative integer of any length, in chunks of digits."""
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _check_resolution(L: int) -> None:
    if L > MAX_RESOLUTION:
        raise ResolutionCapError(f"resolution {L} exceeds the cap {MAX_RESOLUTION}")


def _check_refinement(p: int, resolution: int, L: int) -> None:
    """The limits on splitting a resolution-`resolution` cylinder down to L."""
    if L < resolution:
        raise ResolutionCapError(
            f"cannot coarsen a cylinder from resolution {resolution} to {L}"
        )
    _check_resolution(L)
    if p ** (L - resolution) > MAX_REFINE_CELLS:
        raise ResolutionCapError(
            f"refining by {L - resolution} positions would produce {p ** (L - resolution)} cells"
        )


@dataclass(frozen=True, slots=True)
class Measure:
    """Exact p-adic rational count * p**(-scale), canonical (p does not divide count)."""

    count: int
    p: int
    scale: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("measures are nonnegative")
        if self.count == 0:
            if self.scale != 0:
                raise ValueError("zero measure must use scale 0")
        elif self.count % self.p == 0:
            raise ValueError("measure count must not be divisible by p")

    @staticmethod
    def make(count: int, p: int, scale: int) -> "Measure":
        """Normalize (count, scale) into canonical form."""
        if count == 0:
            return Measure(0, p, 0)
        while count % p == 0:
            count //= p
            scale -= 1
        return Measure(count, p, scale)

    @staticmethod
    def zero(p: int) -> "Measure":
        return Measure(0, p, 0)

    def as_fraction(self) -> Fraction:
        return Fraction(*self._terms())

    def __float__(self) -> float:
        return float(self.as_fraction())

    def __add__(self, other: "Measure") -> "Measure":
        if self.p != other.p:
            raise BaseMismatchError("cannot add measures over different bases")
        scale = max(self.scale, other.scale)
        count = self.count * self.p ** (scale - self.scale) + other.count * self.p ** (
            scale - other.scale
        )
        return Measure.make(count, self.p, scale)

    def _terms(self) -> tuple[int, int]:
        """(numerator, denominator) of the value, not necessarily in lowest terms."""
        if self.scale >= 0:
            return self.count, self.p**self.scale
        return self.count * self.p ** (-self.scale), 1

    def _cross(self, other) -> tuple[int, int] | None:
        """The values of self and of an int, Fraction or Measure other, each
        times the other's denominator (None for any other type): they
        compare as the values do."""
        if isinstance(other, Measure):
            num, den = other._terms()
        elif isinstance(other, int):
            num, den = other, 1
        elif isinstance(other, Fraction):
            num, den = other.numerator, other.denominator
        else:
            return None
        mine, own = self._terms()
        return mine * den, num * own

    def __eq__(self, other) -> bool:
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] == pair[1]

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __lt__(self, other) -> bool:
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] < pair[1]

    def __le__(self, other) -> bool:
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] <= pair[1]

    def __gt__(self, other) -> bool:
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] > pair[1]

    def __ge__(self, other) -> bool:
        pair = self._cross(other)
        return NotImplemented if pair is None else pair[0] >= pair[1]

    def exact_string(self) -> str:
        """Render as e.g. '7*2^-3'; the printed exponent is -scale."""
        return f"{_decimal(self.count)}*{self.p}^{-self.scale}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Measure({self.exact_string()})"


@dataclass(frozen=True, slots=True)
class Cylinder:
    """A single cylinder: resolution L plus the nonzero pinned digits."""

    p: int
    resolution: int
    digits: DigitMap  # sorted (position, digit), digit in [1, p), position <= L

    def __post_init__(self) -> None:
        check_base(self.p)
        last = None
        for pos, d in self.digits:
            if pos > self.resolution:
                raise DigitError(
                    f"fixed digit at position {pos} above resolution {self.resolution}"
                )
            if not 0 < d < self.p:
                raise DigitError(f"digit {d} out of range for base {self.p}")
            if last is not None and pos <= last:
                raise DigitError("digit positions must be strictly increasing")
            last = pos

    # -- basic structure -----------------------------------------------------

    def digit(self, pos: int) -> int:
        """Pinned digit at a position <= resolution (0 when unstored)."""
        if pos > self.resolution:
            raise DigitError(f"position {pos} is free at resolution {self.resolution}")
        for q, d in self.digits:
            if q == pos:
                return d
            if q > pos:
                break
        return 0

    def measure(self) -> Measure:
        return Measure.make(1, self.p, self.resolution)

    @property
    def min_fixed_position(self) -> int | None:
        """Lowest nonzero pinned position (None when all pinned digits are zero)."""
        return self.digits[0][0] if self.digits else None

    def sort_key(self) -> tuple:
        return (self.resolution, self.digits)

    # -- set relations ---------------------------------------------------------

    def relation(self, other: "Cylinder") -> str:
        """One of 'disjoint', 'equal', 'contains', 'within'.

        Cylinders intersect iff their pinned digits agree on the common
        pinned positions, in which case the coarser contains the finer.
        """
        a, b = (self, other) if self.resolution <= other.resolution else (other, self)
        da, db = a.digits, b.digits
        ra = a.resolution
        ia = ib = 0
        na, nb = len(da), len(db)
        while ia < na or ib < nb:
            pa = da[ia][0] if ia < na else None
            pb = db[ib][0] if ib < nb else None
            if pa is None or (pb is not None and pb < pa):
                # b pins a nonzero digit where a pins zero (if within range).
                if pb > ra:
                    break  # remaining b digits are in a's free tail
                return "disjoint"
            if pb is None or pa < pb:
                return "disjoint"  # a pins nonzero where b pins zero
            if da[ia][1] != db[ib][1]:
                return "disjoint"
            ia += 1
            ib += 1
        if self.resolution == other.resolution:
            return "equal"
        return "contains" if a is self else "within"

    def contains_point(self, x: GroupElement) -> bool:
        if x.p != self.p:
            raise BaseMismatchError("point and cylinder bases differ")
        for pos, d in self.digits:
            if x.digit(pos) != d:
                return False
        for pos, d in x.support():
            if pos <= self.resolution and self.digit(pos) != d:
                return False
        return True

    # -- transformations --------------------------------------------------------

    def refine_to(self, L: int) -> Iterator["Cylinder"]:
        """Split into the p**(L - resolution) sub-cylinders at resolution L."""
        _check_refinement(self.p, self.resolution, L)
        span = L - self.resolution
        if span == 0:
            yield self
            return
        new_positions = range(self.resolution + 1, L + 1)
        for extra in itertools.product(range(self.p), repeat=span):
            tail = tuple(
                (pos, d) for pos, d in zip(new_positions, extra) if d
            )
            yield _cylinder(self.p, L, self.digits + tail)

    def translate(self, t: GroupElement) -> "Cylinder":
        """Digitwise shift by t.

        Digits of t above the resolution lie in the cylinder's free tail
        subgroup and are absorbed: the translated set is unchanged by
        them, so only positions at or below the resolution shift.
        """
        if t.p != self.p:
            raise BaseMismatchError("translator base differs")
        shifted = dict(self.digits)
        for pos, d in t.support():
            if pos > self.resolution:
                break
            shifted[pos] = (shifted.get(pos, 0) + d) % self.p
        return _cylinder(
            self.p,
            self.resolution,
            tuple(sorted((pos, d) for pos, d in shifted.items() if d)),
        )

    def dilate(self, k: int) -> "Cylinder":
        """Apply the contracting shift k times: positions and resolution move by +k."""
        _check_resolution(self.resolution + k)
        return _cylinder(
            self.p, self.resolution + k, tuple((pos + k, d) for pos, d in self.digits)
        )

    def integer_part(self) -> GroupElement:
        """Lattice element read from the pinned digits at positions <= 0."""
        if self.resolution < 0:
            raise DigitError("integer part requires resolution >= 0")
        return from_digits(self.p, {pos: d for pos, d in self.digits if pos <= 0})

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "resolution": self.resolution,
            "digits": {str(pos): d for pos, d in self.digits},
        }

    @staticmethod
    def from_json(p: int, obj: dict) -> "Cylinder":
        digits = tuple(
            sorted((int(pos), _json_int(d)) for pos, d in obj.get("digits", {}).items())
        )
        return Cylinder(p, _json_int(obj["resolution"]), digits)


def _json_int(value) -> int:
    """A JSON integer.  int() names what is wrong with a value that is no
    number at all; a bool, a float or a string is refused, not truncated."""
    number = int(value)
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return number


_new = object.__new__
_set_cylinder_p = Cylinder.__dict__["p"].__set__
_set_cylinder_resolution = Cylinder.__dict__["resolution"].__set__
_set_cylinder_digits = Cylinder.__dict__["digits"].__set__


def _cylinder(p: int, resolution: int, digits: DigitMap) -> Cylinder:
    """A cylinder from fields that are valid by construction; no checks run."""
    c = _new(Cylinder)
    _set_cylinder_p(c, p)
    _set_cylinder_resolution(c, resolution)
    _set_cylinder_digits(c, digits)
    return c


class PSet:
    """A finite disjoint union of cylinders in canonical merged, sorted form."""

    __slots__ = ("p", "cylinders")

    def __init__(self, p: int, cylinders: Iterable[Cylinder], *, validate: bool = True):
        check_base(p)
        cyls = tuple(cylinders)
        for c in cyls:
            if c.p != p:
                raise BaseMismatchError("cylinder base differs from set base")
        if validate:
            self._check_disjoint(cyls)
        given = {(c.resolution, c.digits): c for c in cyls}
        merged = _merge_siblings(p, list(given))
        object.__setattr__(self, "p", p)
        object.__setattr__(
            self,
            "cylinders",
            tuple(given.get(key) or _cylinder(p, *key) for key in merged),
        )

    @staticmethod
    def _check_disjoint(cyls: tuple[Cylinder, ...]) -> None:
        """Raise on the first overlapping pair (i, j), i < j, in scan order.

        Two cylinders overlap iff the coarser one's digits are the finer
        one's truncated to its resolution, so each cylinder finds every
        coarser-or-equal partner by one lookup per resolution present.
        """
        at: dict[tuple[int, DigitMap], list[int]] = {}
        for i, c in enumerate(cyls):
            at.setdefault((c.resolution, c.digits), []).append(i)
        resolutions = sorted({c.resolution for c in cyls})
        first = None
        for j, b in enumerate(cyls):
            for r in resolutions:
                if r > b.resolution:
                    break
                for i in at.get((r, _truncate(b.digits, r)), ()):
                    if i != j:
                        pair = (i, j) if i < j else (j, i)
                        if first is None or pair < first:
                            first = pair
        if first is not None:
            a, b = cyls[first[0]], cyls[first[1]]
            raise OverlapError(f"cylinders overlap: {a.to_json()} and {b.to_json()}")

    @staticmethod
    def _canonical(p: int, cylinders: tuple[Cylinder, ...]) -> "PSet":
        """A set from cylinders already disjoint, merged and in canonical order."""
        s = _new(PSet)
        _set_pset_p(s, p)
        _set_pset_cylinders(s, cylinders)
        return s

    def __setattr__(self, *args) -> None:  # pragma: no cover
        raise AttributeError("PSet is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PSet)
            and self.p == other.p
            and self.cylinders == other.cylinders
        )

    def __hash__(self) -> int:
        return hash((self.p, self.cylinders))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PSet(p={self.p}, {len(self.cylinders)} cylinders)"

    # -- structural queries ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.cylinders

    @property
    def max_resolution(self) -> int:
        """Finest cylinder resolution (0 for the empty set)."""
        return max((c.resolution for c in self.cylinders), default=0)

    @property
    def min_fixed_position(self) -> int | None:
        """Lowest nonzero pinned digit position across the union, if any."""
        positions = [
            c.min_fixed_position
            for c in self.cylinders
            if c.min_fixed_position is not None
        ]
        return min(positions) if positions else None

    def contains_point(self, x: GroupElement) -> bool:
        return any(c.contains_point(x) for c in self.cylinders)

    def measure(self) -> Measure:
        if self.is_empty:
            return Measure.zero(self.p)
        scale = max(c.resolution for c in self.cylinders)
        count = sum(self.p ** (scale - c.resolution) for c in self.cylinders)
        return Measure.make(count, self.p, scale)

    # -- refinement and cells ------------------------------------------------------

    def refine(self, L: int, *, allow_partial: bool = False) -> "PSet":
        """The same set, after checking that it may be split down to resolution L.

        Canonical form merges every split cylinder straight back, so the
        set itself is the result.  Unless allow_partial is set, L must
        not be coarser than the finest cylinder already present; the
        coarsest cylinder finer than L must be splittable to L.
        """
        if not allow_partial and not self.is_empty and L < self.max_resolution:
            raise ResolutionCapError(
                f"refinement target {L} is coarser than resolution {self.max_resolution}"
            )
        if self.cylinders and self.cylinders[0].resolution < L:
            _check_refinement(self.p, self.cylinders[0].resolution, L)
        return self

    def cells_at(self, L: int) -> frozenset[DigitMap]:
        """Digit maps of the resolution-L refinement (requires L >= max resolution)."""
        if not self.is_empty and L < self.max_resolution:
            raise ResolutionCapError(
                f"cell resolution {L} is coarser than resolution {self.max_resolution}"
            )
        maps: set[DigitMap] = set()
        for c in self.cylinders:
            for piece in c.refine_to(L):
                maps.add(piece.digits)
        return frozenset(maps)

    @staticmethod
    def from_cells(p: int, L: int, maps: Iterable[DigitMap]) -> "PSet":
        """Rebuild a set from resolution-L digit maps (trusted disjoint)."""
        return PSet(
            p, (Cylinder(p, L, m) for m in maps), validate=False
        )

    # -- boolean algebra -------------------------------------------------------------
    #
    # Two cylinders are either disjoint or nested, so an intersection is
    # just the finer cylinder of each intersecting pair, and subtracting a
    # finer cylinder only splits along the chain of ancestors toward it.
    # No operation ever refines to a global common resolution.

    def _check_other(self, other: "PSet") -> None:
        if self.p != other.p:
            raise BaseMismatchError("sets live over different bases")

    def union(self, other: "PSet") -> "PSet":
        self._check_other(other)
        extra = other.difference(self)
        return PSet(self.p, self.cylinders + extra.cylinders, validate=False)

    def intersect(self, other: "PSet") -> "PSet":
        self._check_other(other)
        mine = _NestingIndex(self.cylinders)
        theirs = _NestingIndex(other.cylinders)
        out = [b for b in other.cylinders if mine.covers(b.digits, b.resolution)]
        out.extend(a for a in self.cylinders if theirs.covers(a.digits, a.resolution - 1))
        # Every piece is a cylinder of one canonical input, and no p
        # siblings can all come from two canonical sets, so only the
        # order needs restoring.
        return PSet._canonical(self.p, tuple(sorted(out, key=Cylinder.sort_key)))

    def difference(self, other: "PSet") -> "PSet":
        self._check_other(other)
        parts = _NestingIndex(other.cylinders).outside(
            self.p, [(c.resolution, c.digits) for c in self.cylinders]
        )
        return PSet(self.p, (_cylinder(self.p, r, d) for r, d in parts), validate=False)

    def is_subset_ae(self, other: "PSet") -> bool:
        return self.difference(other).is_empty

    def ae_equal(self, other: "PSet") -> bool:
        """Cylinder sets are closed under the algebra, so a.e. equality is equality."""
        return self == other

    # -- group actions ----------------------------------------------------------------

    def translate(self, t: GroupElement) -> "PSet":
        """Translate by t; digits finer than a cylinder are absorbed by its tail."""
        if t.p != self.p:
            raise BaseMismatchError("translator base differs")
        # A shift relabels the cylinders of each resolution bijectively and
        # maps complete sibling families to complete ones, incomplete to
        # incomplete, so canonical form survives up to order.
        translated = (c.translate(t) for c in self.cylinders)
        return PSet._canonical(self.p, tuple(sorted(translated, key=Cylinder.sort_key)))

    def dilate(self, k: int) -> "PSet":
        """Apply the contracting shift k times; measure scales by p**(-k).

        Moving every position by k keeps canonical form and order.  Past
        MAX_RESOLUTION the error names the first cylinder, in that order,
        whose dilate passes the cap.
        """
        return PSet._canonical(self.p, tuple(c.dilate(k) for c in self.cylinders))

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.cylinders]

    @staticmethod
    def from_json(p: int, obj: list) -> "PSet":
        return PSet(p, (Cylinder.from_json(p, item) for item in obj))


_set_pset_p = PSet.__dict__["p"].__set__
_set_pset_cylinders = PSet.__dict__["cylinders"].__set__


def _truncate(digits: DigitMap, resolution: int) -> DigitMap:
    """Digits restricted to positions <= resolution (input sorted)."""
    i = len(digits)
    while i and digits[i - 1][0] > resolution:
        i -= 1
    return digits[:i]


class _NestingIndex:
    """Where cells lie relative to some stored cylinders, from truncated keys.

    Two cylinders are nested or disjoint, and the coarser one's digits are
    the finer one's truncated to its resolution, so every question below
    is a lookup of truncated digit maps, never a comparison of cylinder
    pairs.  The stored cylinders may repeat or nest.
    """

    __slots__ = ("at", "levels", "inner")

    def __init__(self, cylinders: Iterable[Cylinder]):
        at: dict[int, set[DigitMap]] = {}
        for c in cylinders:
            at.setdefault(c.resolution, set()).add(c.digits)
        self.at = at
        self.levels = sorted(at.items())
        # inner[q]: the stored digit maps finer than q truncated to q,
        # filled in per resolution on first use.
        self.inner: dict[int, set[DigitMap]] = {}

    def containing(self, digits: DigitMap, top: int) -> Iterator[tuple[int, DigitMap]]:
        """The stored (resolution, digits) keys of resolution <= top that
        contain the cell with these digits (whose resolution is at least
        top), coarsest first.

        One pass over the sorted digits yields every truncation.
        """
        i, n = 0, len(digits)
        for r, keys in self.levels:
            if r > top:
                break
            while i < n and digits[i][0] <= r:
                i += 1
            if digits[:i] in keys:
                yield r, digits[:i]

    def covers(self, digits: DigitMap, top: int) -> bool:
        """Whether a stored cylinder of resolution <= top contains the cell
        with these digits (whose resolution is at least top)."""
        return next(self.containing(digits, top), None) is not None

    def straddled(self, q: int, digits: DigitMap) -> bool:
        """Whether the resolution-q cell with these digits strictly contains
        a stored cylinder.  The empty digit map is the truncation of every
        stored cylinder that pins nothing at or below q."""
        inner = self.inner.get(q)
        if inner is None:
            inner = self.inner[q] = {
                _truncate(key, q) for r, keys in self.levels if r > q for key in keys
            }
        return digits in inner

    def outside(
        self, p: int, keys: Iterable[tuple[int, DigitMap]]
    ) -> list[tuple[int, DigitMap]]:
        """The parts of the given (resolution, digits) cells that no stored
        cylinder meets, as cylinder keys, split only toward stored cylinders.

        Below a cell that no stored cylinder covers, only a stored key
        equal to a part can cover it, so that check is one set lookup.
        """
        out = []
        for r, digits in keys:
            if self.covers(digits, r):
                continue
            stack = [(r, digits)]
            while stack:
                r, digits = stack.pop()
                if digits in self.at.get(r, ()):
                    continue
                if self.straddled(r, digits):
                    stack.append((r + 1, digits))
                    stack.extend((r + 1, digits + ((r + 1, d),)) for d in range(1, p))
                else:
                    out.append((r, digits))
        return out


def _parent(key: tuple[int, DigitMap]) -> tuple[int, DigitMap]:
    """The key one resolution coarser: a child's own digit, if any, is its last."""
    res, digits = key
    if digits and digits[-1][0] == res:
        return res - 1, digits[:-1]
    return res - 1, digits


def _merge_siblings(p: int, items: list[tuple[int, DigitMap]]) -> list[tuple[int, DigitMap]]:
    """Merge every complete family of p siblings into its parent, repeatedly.

    Children are counted per parent key; a parent that reaches p merges
    and counts toward its own parent in turn.  A merged parent already
    among the keys (nested input) is not counted again.
    """
    pool = set(items)
    counts: dict[tuple[int, DigitMap], int] = {}
    for key in pool:
        parent = _parent(key)
        counts[parent] = counts.get(parent, 0) + 1
    ready = [parent for parent, n in counts.items() if n == p]
    while ready:
        res, base = ready.pop()
        pool.discard((res + 1, base))
        for d in range(1, p):
            pool.discard((res + 1, base + ((res + 1, d),)))
        if (res, base) in pool:
            continue
        pool.add((res, base))
        grand = _parent((res, base))
        counts[grand] = counts.get(grand, 0) + 1
        if counts[grand] == p:
            ready.append(grand)
    return sorted(pool)


# -- distinguished sets ------------------------------------------------------------


def empty_set(p: int) -> PSet:
    return PSet(p, (), validate=False)


def unit_cell(p: int) -> PSet:
    """The dual unit subgroup: all digits at positions <= 0 are zero; measure 1."""
    return PSet(p, (Cylinder(p, 0, ()),), validate=False)


def theta_ball(p: int, m: int) -> PSet:
    """The contracted unit cell at depth m (all digits at positions <= m zero)."""
    return PSet(p, (Cylinder(p, m, ()),), validate=False)


def expanded_unit(p: int, m: int) -> PSet:
    """The expanded unit cell (all digits at positions <= -m zero); measure p**m."""
    return PSet(p, (Cylinder(p, -m, ()),), validate=False)


def annulus(p: int) -> PSet:
    """The shell between the once-expanded unit cell and the unit cell.

    Its contracting dilates partition the dual group minus the identity,
    which is what makes a single-shell covering check sufficient.
    """
    return PSet(
        p,
        tuple(Cylinder(p, 0, ((0, d),)) for d in range(1, p)),
        validate=False,
    )
