import random
from fractions import Fraction

import pytest

from normtower import padic
from normtower.numtheory import valuation
from normtower.padic import (
    INFINITE_PLACE,
    hensel_sqrt,
    hilbert_symbol,
    quaternion_splits_Q,
)
from padic_reference import (
    InsufficientPrecision,
    PadicNumber,
    PrecisionExhausted,
    padic_add,
    padic_mul,
    padic_neg,
    sum_of_two_squares_Q2,
    two_squares_class_oracle,
)
import padic_reference


def agrees(x, y):
    """Equality of two p-adic numbers to their shared precision."""
    if x.p != y.p:
        return False
    if x.is_zero or y.is_zero:
        return x.is_zero and y.is_zero
    if x.valuation != y.valuation:
        return False
    k = min(x.precision, y.precision)
    return x.unit % x.p**k == y.unit % y.p**k


def sqrt_2adic_by_bits(u, prec):
    """The root of a unit u = 1 mod 8 that is 1 mod 4, mod 2^(prec - 1),
    lifted one bit per step: the reference for hensel_sqrt at p = 2."""
    r = 1
    for k in range(3, prec):
        if (r * r - u) % 2 ** (k + 1):
            r += 2 ** (k - 1)
    assert (r * r - u) % 2**prec == 0
    return r % 2 ** (prec - 1)


def test_from_fraction_valuation_and_unit():
    x = PadicNumber.from_fraction(3, Fraction(18, 5), 4)
    assert x.valuation == 2
    assert x.unit * 5 % 3**4 == 2 % 3**4
    zero = PadicNumber.from_fraction(7, 0)
    assert zero.is_zero


def test_arithmetic_against_exact_rationals():
    rng = random.Random(12)
    for p in (2, 3, 5):
        for _ in range(40):
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
            b = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
            xa = PadicNumber.from_fraction(p, a)
            xb = PadicNumber.from_fraction(p, b)
            assert agrees(padic_mul(xa, xb), PadicNumber.from_fraction(p, a * b))
            if a + b != 0:
                assert agrees(padic_add(xa, xb), PadicNumber.from_fraction(p, a + b))


def test_full_cancellation_raises():
    x = PadicNumber.from_fraction(5, Fraction(7, 2), 6)
    with pytest.raises(PrecisionExhausted):
        padic_add(x, padic_neg(x))
    # partial cancellation only costs digits
    y = padic_add(
        PadicNumber.from_fraction(5, 26, 6), PadicNumber.from_fraction(5, -1, 6)
    )
    assert y.valuation == 2 and y.unit % 5 == 1


def test_insufficient_precision_guard():
    x = PadicNumber.from_fraction(2, 17, 3)
    with pytest.raises(InsufficientPrecision):
        x.residue_unit(5)
    with pytest.raises(ValueError):
        PadicNumber.zero(2).residue_unit(1)


def test_hensel_sqrt_17_frozen_digits():
    # the 1 mod 4 square root of 17 in Z_2, one digit short of the input's
    for digits, modulus in ((7, 64), (8, 128), (9, 256)):
        root = hensel_sqrt(17, digits)
        assert root == {64: 41, 128: 105, 256: 233}[modulus]
        assert (root * root - 17) % 2**digits == 0
    # the reference number type wraps the same root
    root = padic_reference.hensel_sqrt(PadicNumber.from_fraction(2, 17, 9))
    assert (root.valuation, root.unit, root.precision) == (0, 233, 8)
    assert agrees(padic_mul(root, root), PadicNumber.from_fraction(2, 17, 9))


def test_hensel_sqrt_2adic_rejects():
    assert hensel_sqrt(3, 8) is None  # 3 mod 8
    assert hensel_sqrt(5, 8) is None  # 5 mod 8
    assert hensel_sqrt(2, 8) is None  # not a unit
    assert hensel_sqrt(68, 8) is None  # 4 * 17, not a unit either
    assert hensel_sqrt(17, 3) == 1  # the root mod 4
    with pytest.raises(ValueError, match="at least 3 digits"):
        hensel_sqrt(17, 2)
    # the reference takes the valuation apart first: 68 = 4 * 17 has a root
    sqrt = padic_reference.hensel_sqrt
    assert sqrt(PadicNumber.from_fraction(2, 2, 8)) is None  # odd valuation
    assert sqrt(PadicNumber.from_fraction(2, 68, 8)).valuation == 1
    with pytest.raises(InsufficientPrecision):
        sqrt(PadicNumber.from_fraction(2, 17, 3))


def test_hensel_sqrt_2adic_newton_matches_bit_lift():
    rng = random.Random(8)
    for u, step in [(17, 1)] + [(8 * rng.getrandbits(2000) + 1, 13) for _ in range(2)]:
        full = sqrt_2adic_by_bits(u, 2000)
        for prec in [*range(4, 2001, step), 2000]:
            # the root that is 1 mod 4 is unique mod 2^(prec - 1)
            assert hensel_sqrt(u, prec) == full % 2 ** (prec - 1), prec
        for prec in (4, 5, 6, 7, 8, 63, 64, 65, 999, 1000):
            assert hensel_sqrt(u, prec) == sqrt_2adic_by_bits(u % 2**prec, prec), prec


def test_hensel_sqrt_odd_p():
    # sqrt(2) in Q_7: 3^2 = 2 mod 7, canonical branch has the smaller residue
    sqrt = padic_reference.hensel_sqrt
    root = sqrt(PadicNumber.from_fraction(7, 2, 10))
    assert root is not None
    assert root.residue_unit(1) == 3
    assert agrees(padic_mul(root, root), PadicNumber.from_fraction(7, 2, 10))
    assert sqrt(PadicNumber.from_fraction(7, 3, 10)) is None  # non-residue
    rng = random.Random(30)
    for p in (3, 5, 13):
        for _ in range(10):
            a = rng.randint(1, 400)
            x = PadicNumber.from_fraction(p, a * a)
            root = sqrt(x)
            assert root is not None
            assert agrees(padic_mul(root, root), x)


def test_hilbert_symbol_frozen_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_symbol(-1, -1, 7) == 1
    assert hilbert_symbol(2, 7, 7) == 1  # 2 is a square mod 7
    assert hilbert_symbol(3, 7, 7) == -1  # 3 is not
    assert hilbert_symbol(17, -1, 2) == 1  # 17 = 1 mod 8
    assert hilbert_symbol(2, -1, 2) == 1  # 2 = 1^2 + 1^2
    assert hilbert_symbol(1, 99, 2) == 1
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)


def test_hilbert_symbol_of_zero_raises_at_every_place():
    # the real place once answered 1 for (0, 3), where every finite place raised
    for place in (INFINITE_PLACE, 2, 3, 7):
        for a, b in ((0, 3), (3, 0), (Fraction(0), -1), (-1, Fraction(0)), (0, 0)):
            with pytest.raises(ValueError, match="Hilbert symbol of zero"):
                hilbert_symbol(a, b, place)


def test_two_squares_frozen_and_oracle_equivalence():
    yes = (2, 5, 10, 13, 4, 8, Fraction(1, 2), Fraction(5, 9))
    no = (-1, 3, 7, -2, 6, 14, Fraction(7, 5))
    for s in yes:
        x = PadicNumber.from_fraction(2, s)
        assert sum_of_two_squares_Q2(x)
        assert two_squares_class_oracle(x)
    for s in no:
        x = PadicNumber.from_fraction(2, s)
        assert not sum_of_two_squares_Q2(x)
        assert not two_squares_class_oracle(x)
    # equivalence on a sweep of integers
    for s in range(1, 300):
        for sign in (1, -1):
            x = PadicNumber.from_fraction(2, sign * s)
            assert sum_of_two_squares_Q2(x) == two_squares_class_oracle(x)


def test_symbol_at_2_matches_the_square_class_oracle_on_every_class():
    # every class (valuation mod 2, unit mod 8), each at several valuations
    # and through several units: every input the biquadratic verdict's
    # symbol (value, -1)_2 can see, and rationals besides
    rng = random.Random(5)
    for v in range(-7, 9):
        for unit in (1, 3, 5, 7):
            for _ in range(6):
                odd = unit + 8 * rng.randrange(10**6)
                x = odd << v if v >= 0 else Fraction(odd, 2**-v)
                for x in (x, Fraction(x, 9)):  # 9 = 1 mod 8 keeps the class
                    assert (hilbert_symbol(x, -1, 2) == 1) == two_squares_class_oracle(x), x
    # the table itself: a sum of two squares is 2^v times 1 or 5 mod 8
    assert padic_reference.TWO_SQUARE_CLASSES == {(e, u) for e in (0, 1) for u in (1, 5)}


def test_quaternion_reports():
    minus_one = quaternion_splits_Q(-1, -1)
    assert not minus_one.splits
    assert set(minus_one.ramified) == {INFINITE_PLACE, 2}
    split = quaternion_splits_Q(17, -1)
    assert split.splits
    assert split.ramified == ()
    # (2, -5): product formula forces an even ramification set
    report = quaternion_splits_Q(2, -5)
    assert len(report.ramified) % 2 == 0


def test_reciprocity_random_pairs():
    rng = random.Random(77)
    smalls = (2, 3, 5, 7, 11)
    for _ in range(150):
        def draw():
            x = Fraction(1)
            for q in smalls:
                if rng.random() < 0.4:
                    x *= Fraction(q) ** rng.choice((-1, 1, 2))
            return -x if rng.random() < 0.5 else x

        report = quaternion_splits_Q(draw(), draw())
        product = 1
        for _, s in report.symbols:
            product *= s
        assert product == 1


def local_data_fraction(x, p, digits):
    """The Fraction route _local_data took before it worked on the
    numerator and denominator ints: a test oracle."""
    f = Fraction(x)
    if f == 0:
        raise ValueError("Hilbert symbol of zero")
    num, den = f.numerator, f.denominator
    v = valuation(num, p) - valuation(den, p)
    num //= p ** max(valuation(num, p), 0)
    den //= p ** max(valuation(den, p), 0)
    pk = p**digits
    return v, num * pow(den, -1, pk) % pk


def test_local_data_agrees_with_fraction_route():
    rng = random.Random(31)
    for p in (2, 3, 5, 13):
        values = [1, -1, p, -p, p**7, -(p**5) * 11, Fraction(1, p), Fraction(-3, p**4)]
        for _ in range(300):
            num = rng.choice((1, -1)) * rng.randrange(1, 10**6) * p ** rng.randrange(6)
            den = rng.randrange(1, 10**4) * p ** rng.randrange(6)
            values += [num, -num, Fraction(num, den), Fraction(-num, den)]
        for x in values:
            for digits in (1, 3, 8):
                assert padic._local_data(x, p, digits) == local_data_fraction(x, p, digits)
        for zero in (0, Fraction(0)):
            with pytest.raises(ValueError, match="Hilbert symbol of zero"):
                padic._local_data(zero, p, 1)
