"""Elementary number theory helpers: primality, factorization, Legendre
symbols, how a message shows an int, and how JSON input gives one."""

from fractions import Fraction

from .errors import FactorizationError

# Strong-pseudoprime bases giving a deterministic test below MR_EXACT_BELOW,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015).
# Without 41 the bound is 318665857834031151167461, which passes bases 2-37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981

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
    """Miller-Rabin, exact below MR_EXACT_BELOW; from there on a number that
    passes every base is not proved prime and raises FactorizationError."""
    if n < 2:
        return False
    for q in _MR_BASES:
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
    if n >= MR_EXACT_BELOW:
        raise FactorizationError(
            f"{shown(n)} passes every Miller-Rabin base; "
            f"primality is proved only below {MR_EXACT_BELOW}"
        )
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
    Raises FactorizationError when a cofactor survives trial division up
    to 10^6 and is composite, or is too large for is_prime to be exact.
    """
    n = Fraction(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    factors = {}
    for value, unit in ((n.numerator, 1), (n.denominator, -1)):
        value = _trial_divide(abs(value), unit, factors)
        if value >= MR_EXACT_BELOW:
            digits = len(str(value)) if value < PRINTABLE else f"more than {PRINTABLE_DIGITS}"
            raise FactorizationError(
                f"cofactor of {digits} digits survives trial division; "
                f"primality is proved only below {MR_EXACT_BELOW}"
            )
        if value > 1:
            if is_prime(value):
                factors[value] = factors.get(value, 0) + unit
            else:
                raise FactorizationError(
                    f"composite cofactor {value} exceeds trial bound"
                )
    return sign, {p: e for p, e in sorted(factors.items()) if e}


def _trial_divide(value, unit, factors):
    """Divide the positive int value by every prime d <= _TRIAL_BOUND with
    d * d at most what is left, adding unit * v_d to factors[d]. A cofactor
    left below d * d is prime and is added too; the cofactor returned is 1
    or has no prime factor up to _TRIAL_BOUND."""
    d = 2
    while d * d <= value and d <= _TRIAL_BOUND:
        if value % d == 0:
            k = valuation(value, d)
            value //= d**k
            factors[d] = factors.get(d, 0) + unit * k
        d += 1 if d == 2 else 2
    if 1 < value < d * d:
        factors[value] = factors.get(value, 0) + unit
        return 1
    return value


def legendre(a, p):
    """Legendre symbol (a/p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# largest n a JSON input, a shape or find-prime may give; shape arithmetic
# forms p^i for every i <= n
MAX_N = 64


def json_int(data, key, what):
    """data[key], which must be a JSON integer (not a bool, float, string or
    null), and at most MAX_N for "n"; anything else is a ValueError naming
    `what`. Module, tower spec and base JSON all read their ints through it."""
    if key not in data:
        raise ValueError(f"{what} JSON lacks key {key!r}")
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"{what} JSON {key!r} must be an integer, got {value!r}")
    if key == "n" and value > MAX_N:
        raise ValueError(f"{what} JSON 'n' must be at most {MAX_N}, got {value}")
    return value
