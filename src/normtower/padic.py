"""Hilbert symbols over Q, and the 2-adic square root the biquadratic m reads.

Rationals enter symbols exactly, through their numerator and denominator;
numtheory.rational refuses anything but an int or a Fraction.
The one intrinsically 2-adic quantity, the root of a unit u = 1 mod 8, is
an int carried to the number of digits its caller asks for.
"""

from dataclasses import dataclass

from .errors import InternalCheckError
from .numtheory import factorize, is_prime, legendre, rational, shown, shown_repr, whole

INFINITE_PLACE = "inf"


def hensel_sqrt(u, digits):
    """The square root of the 2-adic unit u that is 1 mod 4, as an int mod
    2^(digits - 1), or None when u is not 1 mod 8, so not the square of a
    2-adic unit.

    The root carries one digit fewer than u's 2^digits: Newton's step
    r -> r - (r^2 - u) / (2r) loses one to the halving, so a root mod 2^k
    becomes one mod 2^(2k - 2), and it stays 1 mod 4.
    """
    if whole(digits, "digits") < 3:
        raise ValueError(f"a 2-adic root needs at least 3 digits, got {shown(digits)}")
    if whole(u, "u") % 8 != 1:
        return None
    u %= 2**digits
    r, k = 1, 3
    while k < digits:
        k = min(2 * k - 2, digits)
        pk = 2**k
        r = (r - (r * r - u) // 2 * pow(r, -1, pk)) % pk
    if (r * r - u) % 2**digits:
        raise InternalCheckError("2-adic lift lost the root")
    return r % 2 ** (digits - 1)


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------


def _norm_place(place):
    if place == INFINITE_PLACE:
        return INFINITE_PLACE
    if isinstance(place, int) and is_prime(place):
        return place
    got = shown(place) if isinstance(place, int) else shown_repr(place)
    raise ValueError(f"place must be a prime or 'inf', got {got}")


def _local_data(x, p, digits):
    """(valuation, unit mod p^digits) of a nonzero int or Fraction x."""
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
    """The local symbol (a, b) at a finite prime or the real place, for
    nonzero ints or Fractions a and b; else ValueError at every place."""
    a, b = rational(a, "a"), rational(b, "b")
    place = _norm_place(place)
    if place == INFINITE_PLACE:
        if not a or not b:
            raise ValueError("Hilbert symbol of zero")
        return -1 if a < 0 and b < 0 else 1
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
    a, b = rational(a, "a"), rational(b, "b")
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
