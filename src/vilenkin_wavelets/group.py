"""Exact arithmetic on Vilenkin group elements.

Group elements (and dual-group frequencies) are doubly infinite digit
sequences over {0, ..., p-1} with only finitely many nonzero digits.
Addition is digitwise modulo p; carries never propagate.  The dilation
automorphism shifts digit positions, the integer lattice consists of the
elements supported on nonpositive positions, and the duality pairing
matches the digit at position j with the dual digit at position 1 - j.

Text notation is radix-point: digits at positions <= 0 before the point
(most significant, i.e. most negative position, first) and digits at
positions >= 1 after it.  ``"10."`` has a single 1 at position -1,
``".1"`` a single 1 at position 1, and ``"."`` is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import BaseMismatchError, DigitError, LambdaDomainError, ParseError

#: Largest supported digit base; digits must fit in a byte.
MAX_BASE = 255

#: Single-character digit alphabet for radix-point text (bases up to 36).
_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"


def check_base(p: int) -> None:
    """Validate a digit base, enforcing 2 <= p <= MAX_BASE."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise DigitError(f"base must be an integer >= 2, got {p!r}")
    if p > MAX_BASE:
        raise DigitError(f"base {p} exceeds the supported maximum {MAX_BASE}")


@dataclass(frozen=True, slots=True)
class GroupElement:
    """A finitely supported digit sequence in canonical trimmed form.

    ``digits[i]`` is the digit at position ``support_lo + i``.  Canonical
    form stores no leading or trailing zero digits, and the identity is
    the empty sequence with ``support_lo == 0``, so structural equality
    is group equality.
    """

    p: int
    support_lo: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        check_base(self.p)
        if self.digits:
            if self.digits[0] == 0 or self.digits[-1] == 0:
                raise DigitError("digit window is not trimmed to canonical form")
            for d in self.digits:
                if not 0 <= d < self.p:
                    raise DigitError(f"digit {d} out of range for base {self.p}")
        elif self.support_lo != 0:
            raise DigitError("identity element must use support_lo == 0")

    # -- accessors ---------------------------------------------------------

    def digit(self, j: int) -> int:
        """Digit at position j (zero outside the stored window)."""
        i = j - self.support_lo
        if 0 <= i < len(self.digits):
            return self.digits[i]
        return 0

    def support(self) -> Iterator[tuple[int, int]]:
        """Yield (position, digit) for every nonzero digit, in position order."""
        for i, d in enumerate(self.digits):
            if d:
                yield self.support_lo + i, d

    @property
    def is_identity(self) -> bool:
        return not self.digits

    @property
    def min_pos(self) -> int | None:
        """Position of the lowest nonzero digit, or None for the identity."""
        return self.support_lo if self.digits else None

    @property
    def max_pos(self) -> int | None:
        """Position of the highest nonzero digit, or None for the identity."""
        return self.support_lo + len(self.digits) - 1 if self.digits else None

    # -- group structure ----------------------------------------------------

    def add(self, other: "GroupElement") -> "GroupElement":
        """Digitwise sum modulo p (no carries)."""
        if self.p != other.p:
            raise BaseMismatchError(f"mixed bases {self.p} and {other.p}")
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        lo = min(self.support_lo, other.support_lo)
        hi = max(self.support_lo + len(self.digits), other.support_lo + len(other.digits))
        window = [(self.digit(j) + other.digit(j)) % self.p for j in range(lo, hi)]
        return from_window(self.p, lo, window)

    def negate(self) -> "GroupElement":
        """Digitwise inverse: position j carries (p - d) mod p."""
        if self.is_identity:
            return self
        window = [(-d) % self.p for d in self.digits]
        return from_window(self.p, self.support_lo, window)

    def subtract(self, other: "GroupElement") -> "GroupElement":
        return self.add(other.negate())

    def dilate(self, k: int) -> "GroupElement":
        """Apply the expanding shift k times (digit at j moves to j - k)."""
        if self.is_identity or k == 0:
            return self
        return GroupElement(self.p, self.support_lo - k, self.digits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.p > len(_ALPHABET):  # no radix-point text for this base
            return f"GroupElement(p={self.p}, {self.support_lo}, {self.digits})"
        return f"GroupElement(p={self.p}, {format_element(self)!r})"


def identity(p: int) -> GroupElement:
    """The all-zero sequence."""
    check_base(p)
    return GroupElement(p, 0, ())


def from_window(p: int, lo: int, window: list[int] | tuple[int, ...]) -> GroupElement:
    """Build an element from a contiguous digit window, trimming zeros."""
    check_base(p)
    first = 0
    last = len(window)
    while first < last and window[first] == 0:
        first += 1
    while last > first and window[last - 1] == 0:
        last -= 1
    if first == last:
        return GroupElement(p, 0, ())
    return GroupElement(p, lo + first, tuple(window[first:last]))


def from_digits(p: int, digits: Mapping[int, int]) -> GroupElement:
    """Build an element from a sparse {position: digit} mapping."""
    check_base(p)
    nonzero = {j: d for j, d in digits.items() if d}
    if not nonzero:
        return GroupElement(p, 0, ())
    for j, d in nonzero.items():
        if not 0 < d < p:
            raise DigitError(f"digit {d} at position {j} out of range for base {p}")
    lo = min(nonzero)
    hi = max(nonzero)
    window = [nonzero.get(j, 0) for j in range(lo, hi + 1)]
    return GroupElement(p, lo, tuple(window))


# -- integer lattice ---------------------------------------------------------


def lambda_encode(x: GroupElement) -> int:
    """Nonnegative integer of a lattice element: digit at -k weighs p**k."""
    if x.max_pos is not None and x.max_pos > 0:
        raise LambdaDomainError(
            f"element has a nonzero digit at position {x.max_pos} > 0; "
            "only lattice elements encode to integers"
        )
    value = 0
    for j, d in x.support():
        value += d * x.p ** (-j)
    return value


def lambda_decode(value: int, p: int) -> GroupElement:
    """Lattice element of a nonnegative integer (base-p digit expansion)."""
    check_base(p)
    if value < 0:
        raise LambdaDomainError(f"lattice indices are nonnegative, got {value}")
    digits: dict[int, int] = {}
    pos = 0
    while value:
        value, d = divmod(value, p)
        if d:
            digits[pos] = d
        pos -= 1
    return from_digits(p, digits)


# -- text notation ------------------------------------------------------------


def check_text_base(p: int) -> None:
    """Validate a base for radix-point text: one character per digit."""
    check_base(p)
    if p > len(_ALPHABET):
        raise ParseError(
            f"text notation uses single-character digits and supports bases up to "
            f"{len(_ALPHABET)}; got {p}"
        )


def parse_element(text: str, p: int) -> GroupElement:
    """Parse radix-point notation (see module docstring)."""
    check_text_base(p)
    if text.count(".") != 1:
        raise ParseError(f"expected exactly one radix point in {text!r}")
    left, right = text.split(".")
    digits: dict[int, int] = {}
    for offset, ch in enumerate(reversed(left)):
        digits[-offset] = _digit_value(ch, p, text)
    for offset, ch in enumerate(right):
        digits[1 + offset] = _digit_value(ch, p, text)
    return from_digits(p, digits)


def _digit_value(ch: str, p: int, text: str) -> int:
    value = _ALPHABET.find(ch.lower())
    if value < 0:
        raise ParseError(f"invalid digit {ch!r} in {text!r}")
    if value >= p:
        raise ParseError(f"digit {ch!r} in {text!r} is >= base {p}")
    return value


def format_element(x: GroupElement) -> str:
    """Canonical radix-point text; inverse of parse_element."""
    check_text_base(x.p)
    if x.is_identity:
        return "."
    lo = min(x.min_pos, 1)  # type: ignore[type-var]
    hi = max(x.max_pos, 0)  # type: ignore[type-var]
    left = "".join(_ALPHABET[x.digit(j)] for j in range(min(lo, 0), 1))
    right = "".join(_ALPHABET[x.digit(j)] for j in range(1, hi + 1))
    return f"{left.lstrip('0')}.{right.rstrip('0')}"
