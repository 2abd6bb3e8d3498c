"""Elementary number theory helpers: primality, factorization, Legendre
symbols, and how a message shows an int."""

from fractions import Fraction

from .errors import FactorizationError

# Strong-pseudoprime bases giving a deterministic test below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 10**6

# Python prints no int of more than PRINTABLE_DIGITS digits: none of
# absolute value PRINTABLE or more
PRINTABLE_DIGITS = 4300
PRINTABLE = 10**PRINTABLE_DIGITS


def shown(x, past=None):
    """str(x), or, for an int past what Python prints, past when given and
    else the int's bit length."""
    if isinstance(x, int) and abs(x) >= PRINTABLE:
        return past or f"<int of {x.bit_length()} bits>"
    return str(x)


def is_prime(n):
    """Miller-Rabin, deterministic for every n this package ever sees."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n, p):
    """Largest k with p^k dividing n; n must be a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def factorize(n):
    """Factor a nonzero rational into {prime: exponent} plus a sign.

    Returns (sign, factors). Denominator primes get negative exponents.
    Raises FactorizationError when a composite cofactor survives trial
    division up to 10^6 and is not provably prime.
    """
    n = Fraction(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    factors = {}
    for value, unit in ((n.numerator, 1), (n.denominator, -1)):
        value = abs(value)
        for p in _small_primes(value):
            k = valuation(value, p)
            value //= p**k
            factors[p] = factors.get(p, 0) + unit * k
            if value == 1:
                break
        if value > 1:
            if is_prime(value):
                factors[value] = factors.get(value, 0) + unit
            else:
                raise FactorizationError(
                    f"composite cofactor {value} exceeds trial bound"
                )
    return sign, {p: e for p, e in sorted(factors.items()) if e}


def _small_primes(value):
    if value % 2 == 0:
        yield 2
    d = 3
    while d * d <= value and d <= _TRIAL_BOUND:
        if value % d == 0:
            yield d
        d += 2


def legendre(a, p):
    """Legendre symbol (a/p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1
