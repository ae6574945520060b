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

import decimal
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    BaseMismatchError,
    DigitError,
    OverlapError,
    ResolutionCapError,
)
from .group import GroupElement, check_base

#: Cap on the resolution a refinement into cells may reach.
MAX_RESOLUTION = 24

#: Cap on the number of cells a single refinement may produce.
MAX_REFINE_CELLS = 2_000_000


def _exceeds(base: int, exponent: int, limit: int) -> bool:
    """base**exponent > limit, without building a huge power."""
    return base > 1 and (exponent > limit.bit_length() or base**exponent > limit)

DigitMap = tuple[tuple[int, int], ...]

#: Integers below this bound have fewer digits than str() ever refuses:
#: sys.get_int_max_str_digits() is 4300 by default and 640 at the least.
_STR_LIMIT = 1 << 2000

#: Binary splits stop at integers of this many bits.
_SPLIT_BITS = 128


def _decimal(n: int) -> str:
    """str(n) for a nonnegative integer of any length.

    A long integer is split into binary halves, recursively, and rebuilt
    as an exact Decimal, whose text has no length limit: the conversion
    of CPython 3.12's _pylong.int_to_decimal_string, near linear in the
    length where repeated division by a power of ten is quadratic.
    """
    if n < _STR_LIMIT:
        return str(n)
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        """2**w, kept for reuse across the splits."""
        if w not in powers:
            if w <= _SPLIT_BITS:
                powers[w] = decimal.Decimal(1 << w)
            else:
                powers[w] = power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        """n < 2**w as a Decimal."""
        if w <= _SPLIT_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        high = n >> half
        return convert(n - (high << half), half) + convert(high, w - half) * power(half)

    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def _check_refinement(p: int, resolution: int, L: int) -> None:
    """The limits on splitting a resolution-`resolution` cylinder down to L."""
    if L < resolution:
        raise ResolutionCapError(
            f"cannot coarsen a cylinder from resolution {resolution} to {L}"
        )
    if L > MAX_RESOLUTION:
        raise ResolutionCapError(f"resolution {L} exceeds the cap {MAX_RESOLUTION}")
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
        return _cylinder(
            self.p, self.resolution + k, tuple((pos + k, d) for pos, d in self.digits)
        )

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
        """Raise on the first overlapping pair (i, j), i < j, in scan order:
        the least pair of _nested_pairs over the cylinders, one group each."""
        pairs = [sorted((i, j)) for j, _, i, _ in _nested_pairs([(c,) for c in cyls])]
        if pairs:
            a, b = (cyls[k] for k in min(pairs))
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
        """Canonical form makes a.e. equality of cylinder sets equality."""
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

    def measure(self) -> Measure:
        scale = self.max_resolution
        count = _scaled_count(self.p, ((c.resolution, 1) for c in self.cylinders), scale)
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
        return _union(self.p, (self.cylinders, other.cylinders))

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
        weight = dict.fromkeys(((c.resolution, c.digits) for c in other.cylinders), 1)
        parts = _NestingIndex(other.cylinders).parts(self.p, self.cylinders, weight)
        kept = (_cylinder(self.p, r, d) for r, d, count in parts if not count)
        return PSet(self.p, kept, validate=False)

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

        Moving every position by k keeps canonical form and order.
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


def _scaled_count(p: int, terms: Iterable[tuple[int, int]], scale: int) -> int:
    """sum(w * p**(scale - r) for r, w in terms), every r at most scale, by
    Horner's rule over the increasing resolutions; the plain sum builds a
    power of up to scale - r digits per term, quadratic in the depth."""
    count, at = 0, None
    for r, w in sorted(terms):
        if at is not None and r != at:
            count *= p ** (r - at)
        count, at = count + w, r
    return count * p ** (scale - at) if at is not None else 0


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

    __slots__ = ("levels", "inner")

    def __init__(self, cylinders: Iterable[Cylinder]):
        at: dict[int, set[DigitMap]] = {}
        for c in cylinders:
            at.setdefault(c.resolution, set()).add(c.digits)
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

    def parts(
        self, p: int, cells: Iterable[Cylinder], weight: dict[tuple[int, DigitMap], int]
    ) -> list[tuple[int, DigitMap, int]]:
        """The given cells split only toward the stored cylinders, as
        maximal (resolution, digits, count) parts; a part's count is the
        total weight of the stored keys that contain it.

        weight maps every stored key to its weight.  A cell's count is
        the weight of the keys containing it, and each child adds the
        weight of its own key, the one key it may add.
        """
        out = []
        for cell in cells:
            r, digits = cell.resolution, cell.digits
            stack = [(r, digits, sum(weight[key] for key in self.containing(digits, r)))]
            while stack:
                q, node, count = stack.pop()
                if not self.straddled(q, node):
                    out.append((q, node, count))
                    continue
                for child in (node, *(node + ((q + 1, d),) for d in range(1, p))):
                    stack.append((q + 1, child, count + weight.get((q + 1, child), 0)))
        return out


def _nested_pairs(
    groups: Sequence[Sequence[Cylinder]],
) -> Iterator[tuple[int, Cylinder, int, int]]:
    """Every (j, b, i, r): a cylinder b of group j and a group i != j with
    a cylinder of resolution r containing b (an equal one included), once
    per such cylinder.  Two cylinders nest or are disjoint, so these are
    all the overlaps across groups, each on its finer cylinder.  One
    _NestingIndex over all the groups finds the containers, and one
    owner table their groups."""
    owners: dict[tuple[int, DigitMap], list[int]] = {}
    finest = [-math.inf] * len(groups)
    for i, group in enumerate(groups):
        for c in group:
            owners.setdefault((c.resolution, c.digits), []).append(i)
            if c.resolution > finest[i]:
                finest[i] = c.resolution
    # No container of b in another group is finer than the second finest
    # group, nor than b, so the lookups of a deepest group stop there.
    top = sorted(finest)[-2] if len(groups) > 1 else -math.inf
    index = _NestingIndex(c for group in groups for c in group)
    for j, group in enumerate(groups):
        for b in group:
            for key in index.containing(b.digits, min(b.resolution, top)):
                for i in owners[key]:
                    if i != j:
                        yield j, b, i, key[0]


def _union(p: int, groups: Sequence[Sequence[Cylinder]], pairs: Iterable | None = None) -> PSet:
    """The union of groups of cylinders, each group disjoint in itself:
    the cylinders that no cylinder of another group strictly contains,
    one of each equal group, merged once into canonical form.  pairs is
    _nested_pairs(groups), when the caller has already walked it."""
    inside = {
        (b.resolution, b.digits)
        for _, b, _, r in (_nested_pairs(groups) if pairs is None else pairs)
        if r < b.resolution
    }
    kept = (c for group in groups for c in group if (c.resolution, c.digits) not in inside)
    # The constructor keeps one of equal cylinders and merges siblings.
    return PSet(p, kept, validate=False)


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
