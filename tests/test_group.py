import random

import pytest

from vilenkin_wavelets.errors import (
    BaseMismatchError,
    LambdaDomainError,
    ParseError,
)
from vilenkin_wavelets.group import (
    GroupElement,
    format_element,
    from_digits,
    identity,
    lambda_decode,
    lambda_encode,
    parse_element,
)

from .oracle import character_exponent

rng = random.Random(20240817)


def random_element(p, lo=-4, hi=4, density=0.5):
    digits = {}
    for pos in range(lo, hi + 1):
        if rng.random() < density:
            digits[pos] = rng.randrange(p)
    return from_digits(p, digits)


class TestAddition:
    def test_digitwise_cancellation(self):
        x = parse_element("2.1", 3)
        y = parse_element("1.2", 3)
        assert x.add(y) == identity(3)

    def test_identity_is_neutral(self):
        for p in (2, 3, 5):
            for _ in range(50):
                x = random_element(p)
                assert x.add(identity(p)) == x
                assert identity(p).add(x) == x

    def test_self_inverse_base_two(self):
        x = parse_element("1.01", 2)
        assert x.add(x) == identity(2)

    def test_associative_commutative(self):
        for p in (2, 3, 5):
            for _ in range(100):
                x, y, z = (random_element(p) for _ in range(3))
                assert x.add(y) == y.add(x)
                assert x.add(y).add(z) == x.add(y.add(z))

    def test_negate_gives_inverse(self):
        assert identity(3).negate() == identity(3)
        assert parse_element("1.", 2).negate() == parse_element("1.", 2)
        assert parse_element("2.1", 3).negate() == parse_element("1.2", 3)
        for p in (2, 3, 5):
            for _ in range(50):
                x = random_element(p)
                assert x.add(x.negate()) == identity(p)

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatchError):
            identity(2).add(identity(3))


class TestDilation:
    def test_identity_fixed(self):
        assert identity(5).dilate(5) == identity(5)

    def test_single_digit_shift(self):
        for p in (2, 3):
            x = parse_element("1.", p)
            assert format_element(x.dilate(-1)) == ".1"

    def test_inverse_pair(self):
        for p in (2, 3):
            for _ in range(50):
                x = random_element(p)
                assert x.dilate(3).dilate(-3) == x

    def test_automorphism(self):
        for p in (2, 3):
            for _ in range(100):
                x, y = random_element(p), random_element(p)
                k = rng.randrange(-3, 4)
                assert x.add(y).dilate(k) == x.dilate(k).add(y.dilate(k))


class TestLattice:
    def test_zero_is_identity(self):
        assert lambda_decode(0, 3) == identity(3)

    def test_five_base_two(self):
        # 5 = 2^0 + 2^2 puts digits at positions 0 and -2.
        x = lambda_decode(5, 2)
        assert x.digit(0) == 1 and x.digit(-2) == 1 and x.digit(-1) == 0

    def test_round_trip(self):
        for p in (2, 3, 5):
            for k in range(p**4):
                assert lambda_encode(lambda_decode(k, p)) == k

    def test_encode_requires_lattice(self):
        with pytest.raises(LambdaDomainError):
            lambda_encode(parse_element(".1", 2))

    def test_carry_free_addition(self):
        # Digitwise addition never carries; it matches base-p addition
        # exactly when no digit column overflows.
        for p in (2, 3, 5):
            for _ in range(200):
                a = rng.randrange(p**5)
                b = rng.randrange(p**5)
                x, y = lambda_decode(a, p), lambda_decode(b, p)
                expected = 0
                power = 1
                aa, bb = a, b
                while aa or bb:
                    expected += ((aa + bb) % p) * power
                    aa //= p
                    bb //= p
                    power *= p
                assert lambda_encode(x.add(y)) == expected


class TestCharacters:
    def test_identity_pairs_trivially(self):
        for p in (2, 3):
            omega = random_element(p)
            assert character_exponent(identity(p), omega) == 0

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatchError):
            character_exponent(identity(2), identity(3))

    def test_single_term_base_two(self):
        x = lambda_decode(1, 2)
        omega = from_digits(2, {1: 1})
        assert character_exponent(x, omega) == 1

    def test_single_term_base_three(self):
        x = from_digits(3, {-1: 2})
        omega = from_digits(3, {2: 2})
        assert character_exponent(x, omega) == 1  # 2*2 mod 3

    def test_bilinear(self):
        for p in (2, 3, 5):
            for _ in range(100):
                x, y, w = (random_element(p) for _ in range(3))
                assert (
                    character_exponent(x.add(y), w)
                    == (character_exponent(x, w) + character_exponent(y, w)) % p
                )
                assert (
                    character_exponent(x, y.add(w))
                    == (character_exponent(x, y) + character_exponent(x, w)) % p
                )

    def test_symmetric(self):
        for p in (2, 3):
            for _ in range(100):
                x, w = random_element(p), random_element(p)
                assert character_exponent(x, w) == character_exponent(w, x)

    def test_dilation_transfers_between_arguments(self):
        for p in (2, 3):
            for _ in range(100):
                x, w = random_element(p), random_element(p)
                assert character_exponent(x.dilate(-1), w) == character_exponent(
                    x, w.dilate(-1)
                )

    def test_orthogonality_on_unit_cell(self):
        # Distinct lattice characters sum to zero over the unit-cell
        # quotient: this property pins down the pairing convention.
        import cmath
        import itertools

        for p in (2, 3):
            L = 3
            cells = [
                from_digits(p, {1 + i: d for i, d in enumerate(combo) if d})
                for combo in itertools.product(range(p), repeat=L)
            ]
            for a in range(p**L):
                for b in range(p**L):
                    na, nb = lambda_decode(a, p), lambda_decode(b, p)
                    total = sum(
                        cmath.exp(
                            2j
                            * cmath.pi
                            * (character_exponent(na, c) - character_exponent(nb, c))
                            / p
                        )
                        for c in cells
                    )
                    if a == b:
                        assert abs(total - p**L) < 1e-9
                    else:
                        assert abs(total) < 1e-9


class TestTextNotation:
    def test_identity(self):
        assert parse_element(".", 7) == identity(7)
        assert format_element(identity(7)) == "."

    def test_positional(self):
        x = parse_element("10.", 2)
        assert x.digit(-1) == 1 and lambda_encode(x) == 2

    def test_round_trip(self):
        assert format_element(parse_element("2.01", 3)) == "2.01"
        for p in (2, 3, 5):
            for _ in range(100):
                x = random_element(p)
                assert parse_element(format_element(x), p) == x

    def test_digit_too_large(self):
        with pytest.raises(ParseError):
            parse_element("2.", 2)

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_element("1..2", 3)
        with pytest.raises(ParseError):
            parse_element("x.", 5)

    def test_format_rejects_bases_above_36(self):
        # Radix-point text has one character per digit, as parse_element
        # requires; a base-37 digit 36 has no character.
        assert format_element(from_digits(36, {0: 35})) == "z."
        for x in (from_digits(37, {0: 36}), from_digits(37, {0: 1}), identity(37)):
            with pytest.raises(ParseError, match="bases up to 36; got 37"):
                format_element(x)


class TestCanonicalForm:
    def test_trimmed_windows_rejected(self):
        with pytest.raises(Exception):
            GroupElement(2, 0, (0, 1))
        with pytest.raises(Exception):
            GroupElement(2, 0, (1, 0))

    def test_structural_equality(self):
        a = from_digits(3, {0: 1, 2: 2})
        b = from_digits(3, {2: 2, 0: 1})
        assert a == b and hash(a) == hash(b)
