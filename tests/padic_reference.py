"""Capped-precision p-adic numbers: the reference the biquadratic verdict
and the Hilbert symbol at 2 are checked against.

A nonzero value is p^v * unit with the unit tracked modulo p^N for N
significant digits. normtower itself reads the biquadratic evidence off
plain ints (`padic.hensel_sqrt` and `padic.hilbert_symbol`); this module
keeps the number type it once carried, with its arithmetic, the odd-p
Hensel root, and the enumerated square-class table of sums of two squares.
"""

import math
from fractions import Fraction

from normtower import padic
from normtower.errors import InternalCheckError, NormTowerError
from normtower.numtheory import is_prime, legendre, valuation

DEFAULT_PRECISION = 32


class PrecisionExhausted(NormTowerError):
    """A p-adic computation cannot decide at the working precision."""


class InsufficientPrecision(NormTowerError):
    """An input carries fewer p-adic digits than the operation needs."""


class PadicNumber:
    __slots__ = ("p", "valuation", "unit", "precision")

    def __init__(self, p, valuation, unit, precision):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        if unit == 0:
            self.valuation = math.inf
            self.unit = 0
            self.precision = math.inf
            return
        if precision < 1:
            raise ValueError("precision must be >= 1")
        unit %= p**precision
        if unit % p == 0:
            raise ValueError("unit part must be coprime to p")
        self.valuation = valuation
        self.unit = unit
        self.precision = precision

    @classmethod
    def zero(cls, p):
        return cls(p, 0, 0, 1)

    @classmethod
    def from_fraction(cls, p, value, precision=DEFAULT_PRECISION):
        value = Fraction(value)
        if value == 0:
            return cls.zero(p)
        num, den = value.numerator, value.denominator
        v = valuation(num, p) - valuation(den, p)
        num //= p ** max(valuation(num, p), 0)
        den //= p ** max(valuation(den, p), 0)
        pk = p**precision
        return cls(p, v, num * pow(den, -1, pk) % pk, precision)

    @property
    def is_zero(self):
        return self.unit == 0

    def residue_unit(self, digits):
        """The unit part mod p^digits."""
        if self.is_zero:
            raise ValueError("zero has no unit part")
        if self.precision < digits:
            raise InsufficientPrecision(f"need {digits} digits, have {self.precision}")
        return self.unit % self.p**digits

    def __eq__(self, other):
        return (
            isinstance(other, PadicNumber)
            and self.p == other.p
            and self.valuation == other.valuation
            and self.unit == other.unit
            and self.precision == other.precision
        )

    def __repr__(self):
        if self.is_zero:
            return f"PadicNumber({self.p}, 0)"
        return (
            f"PadicNumber({self.p}, {self.unit}*{self.p}^{self.valuation}"
            f" + O({self.p}^{self.valuation + self.precision}))"
        )


def _coerce(x, p):
    if isinstance(x, PadicNumber):
        if x.p != p:
            raise ValueError("mixed primes")
        return x
    return PadicNumber.from_fraction(p, x)


def padic_add(x, y):
    y = _coerce(y, x.p)
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    p = x.p
    floor = min(x.valuation, y.valuation)
    window = min(x.valuation + x.precision, y.valuation + y.precision) - floor
    if window < 1:
        raise PrecisionExhausted("operands share no common digit window")
    pw = p**window
    t = (x.unit * p ** (x.valuation - floor) + y.unit * p ** (y.valuation - floor)) % pw
    if t == 0:
        raise PrecisionExhausted(
            f"cancellation below O({p}^{floor + window}); result indistinguishable from 0"
        )
    k = valuation(t, p)
    return PadicNumber(p, floor + k, t // p**k, window - k)


def padic_neg(x):
    if x.is_zero:
        return x
    return PadicNumber(x.p, x.valuation, -x.unit % x.p**x.precision, x.precision)


def padic_mul(x, y):
    y = _coerce(y, x.p)
    if x.is_zero or y.is_zero:
        return PadicNumber.zero(x.p)
    prec = min(x.precision, y.precision)
    return PadicNumber(x.p, x.valuation + y.valuation, x.unit * y.unit % x.p**prec, prec)


def sqrt_mod_prime(a, p):
    """A square root of a modulo an odd prime p, or None. Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def hensel_sqrt(x):
    """Square root in Q_p, or None when the square-class criterion fails.

    Odd p: a root exists iff the valuation is even and the unit is a
    quadratic residue mod p; of the two roots the one with the smaller
    residue mod p is returned, lifted by Newton's step, which doubles the
    digits that are right. p = 2: iff the valuation is even and the unit is
    1 mod 8; padic.hensel_sqrt gives the root with unit 1 mod 4, carrying
    one digit fewer than the input.
    """
    if x.is_zero:
        raise ValueError("square root of zero is trivial; pass a nonzero value")
    p = x.p
    if x.valuation % 2:
        return None
    half_v = x.valuation // 2
    if p == 2:
        if x.precision < 4:
            raise InsufficientPrecision("p=2 needs at least 4 digits")
        root = padic.hensel_sqrt(x.unit, x.precision)
        return None if root is None else PadicNumber(2, half_v, root, x.precision - 1)
    u0 = x.unit % p
    if legendre(u0, p) != 1:
        return None
    prec = x.precision
    pk_full = p**prec
    u = x.unit % pk_full
    r = sqrt_mod_prime(u0, p)
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        pk = p**k
        r = (r + u % pk * pow(r, -1, pk)) * pow(2, -1, pk) % pk
    if (r * r - u) % pk_full:
        raise InternalCheckError("p-adic lift lost the root")
    if (-r) % p < r % p:
        r = pk_full - r
    return PadicNumber(p, half_v, r, prec)


def local_data(x, p, digits):
    """(valuation, unit mod p^digits) of a nonzero rational or p-adic x."""
    if isinstance(x, PadicNumber):
        if x.p != p:
            raise ValueError(f"operand lives over Q_{x.p}, place is {p}")
        if x.is_zero:
            raise ValueError("Hilbert symbol of zero")
        return x.valuation, x.residue_unit(digits)
    return padic._local_data(x, p, digits)


def sum_of_two_squares_Q2(s):
    """Whether s is x^2 + y^2 in Q_2, i.e. a norm from Q_2(i).

    The symbol (s, -1) at 2 reads only the valuation and the unit mod 8,
    so a p-adic s stands in as the rational 2^v * (unit mod 8)."""
    v, u = local_data(s, 2, 3)
    return padic.hilbert_symbol(Fraction(2) ** v * u, -1, 2) == 1


def two_squares_class_oracle(s):
    """Independent check: compare the square class of s against an
    enumerated table of classes of x^2 + y^2.

    x mod 32 determines x^2 mod 64, so sums over x, y in [0, 64) realize
    every attainable class (valuation mod 2, unit mod 8) with valuation at
    most 3, and multiplying by powers of 4 reaches all the rest.
    """
    v, u = local_data(s, 2, 3)
    return (v % 2, u % 8) in TWO_SQUARE_CLASSES


def _two_square_classes():
    classes = set()
    for x in range(64):
        for y in range(64):
            z = x * x + y * y
            if z == 0:
                continue
            v = valuation(z, 2)
            if v <= 3:
                classes.add((v % 2, (z >> v) % 8))
    return frozenset(classes)


TWO_SQUARE_CLASSES = _two_square_classes()
