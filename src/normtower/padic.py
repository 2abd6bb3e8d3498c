"""Capped-precision p-adic arithmetic, Hensel square roots, Hilbert symbols.

A nonzero value is p^v * unit with the unit tracked modulo p^N for N
significant digits. Rationals enter symbols exactly through factorization;
only intrinsically p-adic inputs (Hensel roots) carry finite precision.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InsufficientPrecision,
    InternalCheckError,
    PrecisionExhausted,
)
from .numtheory import factorize, is_prime, legendre, sqrt_mod_prime, valuation

DEFAULT_PRECISION = 32

INFINITE_PLACE = "inf"


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
            raise InsufficientPrecision(
                f"need {digits} digits, have {self.precision}"
            )
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
    t = (
        x.unit * p ** (x.valuation - floor) + y.unit * p ** (y.valuation - floor)
    ) % pw
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
    return PadicNumber(
        x.p, x.valuation + y.valuation, x.unit * y.unit % x.p**prec, prec
    )


# ---------------------------------------------------------------------------
# Hensel square roots
# ---------------------------------------------------------------------------


def hensel_sqrt(x):
    """Square root in Q_p, or None when the square-class criterion fails.

    Odd p: a root exists iff the valuation is even and the unit is a
    quadratic residue mod p; of the two roots the one with the smaller
    residue mod p is returned. p = 2: iff the valuation is even and the
    unit is 1 mod 8; the root with unit 1 mod 4 is returned, carrying one
    digit fewer than the input (the derivative 2r eats a digit).

    Both lift by Newton's step r -> r - (r^2 - u) / (2r). For odd p it
    doubles the digits that are right; for p = 2, the halving costs one, so
    a root mod 2^k becomes one mod 2^(2k - 2), and it stays 1 mod 4.
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
        prec = x.precision
        u = x.unit % 2**prec
        if u % 8 != 1:
            return None
        r, k = 1, 3
        while k < prec:
            k = min(2 * k - 2, prec)
            pk = 2**k
            r = (r - (r * r - u) // 2 * pow(r, -1, pk)) % pk
        if (r * r - u) % 2**prec:
            raise InternalCheckError("2-adic lift lost the root")
        return PadicNumber(2, half_v, r % 2 ** (prec - 1), prec - 1)
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


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------


def _norm_place(place):
    if place == INFINITE_PLACE or place == math.inf:
        return INFINITE_PLACE
    if isinstance(place, int) and is_prime(place):
        return place
    raise ValueError(f"place must be a prime or 'inf', got {place!r}")


def _rational(x):
    """x as an exact rational: ints and Fractions as they are, since both
    carry numerator and denominator, anything else through Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _local_data(x, p, digits):
    """(valuation, unit mod p^digits) of a nonzero rational or p-adic x."""
    if isinstance(x, PadicNumber):
        if x.p != p:
            raise ValueError(f"operand lives over Q_{x.p}, place is {p}")
        if x.is_zero:
            raise ValueError("Hilbert symbol of zero")
        return x.valuation, x.residue_unit(digits)
    x = _rational(x)
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("Hilbert symbol of zero")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    pk = p**digits
    return v, num * pow(den, -1, pk) % pk


def _eps2(u):
    return (u - 1) // 2 % 2


def _omega2(u):
    return (u * u - 1) // 8 % 2


def hilbert_symbol(a, b, place):
    """The local symbol (a, b) at a finite prime or the real place."""
    place = _norm_place(place)
    if place == INFINITE_PLACE:
        for x in (a, b):
            if isinstance(x, PadicNumber):
                raise ValueError("p-adic numbers carry no sign at the real place")
        return -1 if _rational(a) < 0 and _rational(b) < 0 else 1
    p = place
    if p == 2:
        alpha, u = _local_data(a, 2, 3)
        beta, v = _local_data(b, 2, 3)
        e = _eps2(u % 8) * _eps2(v % 8) + alpha * _omega2(v % 8) + beta * _omega2(u % 8)
        return -1 if e % 2 else 1
    alpha, u = _local_data(a, p, 1)
    beta, v = _local_data(b, p, 1)
    sign = 1
    if alpha * beta * ((p - 1) // 2) % 2:
        sign = -sign
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(v, p)
    return sign


def sum_of_two_squares_Q2(s):
    """Whether s is x^2 + y^2 in Q_2, i.e. a norm from Q_2(i)."""
    return hilbert_symbol(s, -1, 2) == 1


def two_squares_class_oracle(s):
    """Independent check: compare the square class of s against an
    enumerated table of classes of x^2 + y^2.

    x mod 32 determines x^2 mod 64, so sums over x, y in [0, 64) realize
    every attainable class (valuation mod 2, unit mod 8) with valuation at
    most 3, and multiplying by powers of 4 reaches all the rest.
    """
    v, u = _local_data(s, 2, 3)
    return (v % 2, u % 8) in _two_square_classes()


_TWO_SQUARE_CLASSES = None


def _two_square_classes():
    global _TWO_SQUARE_CLASSES
    if _TWO_SQUARE_CLASSES is None:
        classes = set()
        for x in range(64):
            for y in range(64):
                z = x * x + y * y
                if z == 0:
                    continue
                v = valuation(z, 2)
                if v <= 3:
                    classes.add((v % 2, (z >> v) % 8))
        _TWO_SQUARE_CLASSES = classes
    return _TWO_SQUARE_CLASSES


# ---------------------------------------------------------------------------
# global quaternion splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuaternionReport:
    a: object
    b: object
    symbols: tuple  # ((place, +-1), ...) with the real place first
    splits: bool
    ramified: tuple


def quaternion_splits_Q(a, b):
    """Hilbert symbols of (a, b) over Q at every place that can ramify.

    Odd primes dividing neither numerator nor denominator give symbol +1,
    so the product over the listed places is the full product formula;
    it must equal +1, and a violation means a bug, not a verdict.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("quaternion parameters must be nonzero")
    primes = set()
    for x in (a, b):
        _, fac = factorize(x)
        primes.update(fac)
    primes.add(2)
    places = [INFINITE_PLACE] + sorted(primes)
    symbols = tuple((pl, hilbert_symbol(a, b, pl)) for pl in places)
    product = 1
    for _, s in symbols:
        product *= s
    if product != 1:
        raise InternalCheckError(
            f"Hilbert reciprocity violated for ({a}, {b}): {symbols}"
        )
    ramified = tuple(pl for pl, s in symbols if s == -1)
    return QuaternionReport(a, b, symbols, splits=not ramified, ramified=ramified)
