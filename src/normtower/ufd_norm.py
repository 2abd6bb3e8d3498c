"""The bounded verification that unit-valued orbit norms of rational
functions over F_l are exactly n-th powers, and the norm chain through
root-of-unity content.

The cyclic action sends mu_i to mu_(i+step), step = g/n, so it has order
n. The orbit norm of w is the product of its n shifts; when that norm
lands in F_l^x the claim is that it is an n-th power there, and the check
enumerates every rational function within a degree bound to confirm it.
"""

import itertools
import math
from dataclasses import dataclass
from operator import mul

from . import packing
from .errors import InternalCheckError, MissingRootOfUnity, SearchSpaceTooLarge
from .mvalue import NEG_INF
from .numtheory import is_prime

# ---------------------------------------------------------------------------
# the bounded unit-norm enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropositionReport:
    l: int
    n: int
    g: int
    deg_bound: int
    unit_norms: tuple
    nth_powers: tuple
    consistent: bool
    representatives: int
    norm_classes: int


# most representatives times monomials^n, a norm's n-fold product size,
# that proposition_check scans; the largest scans inside take under 1 s
# (2-CPU VM, Python 3.11), and a bound on representatives alone let
# --l 2 --n 3 --deg 1 --g 15, 65,535 of them, run for minutes
MAX_WORK = 2_000_000
MAX_VARIABLES = 512  # listing the monomials recurses once per variable


def proposition_check(l, n, deg_bound, g=None):
    """Confirm that unit-valued orbit norms are exactly the n-th powers.

    Every nonzero rational function within the degree bound is a scalar
    multiple of f/h with f, h monic (leading coefficient 1 in graded-lex);
    N(c f / e h) = (c/e)^n N(f)/N(h) is constant exactly when N(f) and
    N(h) agree up to a scalar, so grouping numerator norms by scalar class
    enumerates every constant norm value without materializing the
    quadratic number of (numerator, denominator) pairs.

    Polynomials are packed ints (Kronecker substitution): the monomial
    with exponents e sits in packing field sum e_i v_i, the v_i from
    _kronecker_weights, so a product of polynomials is a product of ints.
    A norm is n - 1 big-int products and one packing.reduce. Its class is
    keyed by the norm divided by its top field; the top fields within a
    class have the same ratios as the graded-lex leading coefficients.
    """
    if l > 7:
        raise SearchSpaceTooLarge("prime fields beyond F_7 are out of desk range")
    if n > 3:
        raise SearchSpaceTooLarge("group order beyond 3 is out of desk range")
    if deg_bound > 2:
        raise SearchSpaceTooLarge("degree bound beyond 2 is out of desk range")
    g = g or n
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    if n < 1 or g < 1 or g % n:
        raise ValueError("need n >= 1 and n | g")
    if deg_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {deg_bound}")
    # count the monomials before listing them, which a large g makes
    # impossible; from 64 monomials on there are over 2^63 representatives,
    # so the count is left as a formula
    terms = math.comb(g + deg_bound, deg_bound)
    count = (l**terms - 1) // (l - 1) if terms < 64 else None
    if count is None or count * terms**n > MAX_WORK:
        shown = f"({l}^{terms} - 1) / {l - 1}" if count is None else count
        raise SearchSpaceTooLarge(
            f"{shown} monic representatives times {terms}^{n} exceed {MAX_WORK}"
        )
    if g > MAX_VARIABLES:  # only a degree bound of 0 gets here with g > 16
        raise SearchSpaceTooLarge(f"g = {g} variables > {MAX_VARIABLES}")
    monos = _monomials_upto(deg_bound, g)

    nth_powers = sorted({pow(c, n, l) for c in range(1, l)})

    # a coefficient of a norm sums at most len(monos)^(n-1) products of n
    # residues, which is below terms (l - 1)^2
    terms = len(monos) ** (n - 1) * (l - 1) ** (n - 2) if n > 1 else 1
    degree = n * max(deg_bound, 0)  # bounds the total degree in a norm
    weights = _kronecker_weights(g, degree)
    size, s, m, qmask = packing.layout(terms, l, degree * weights[-1] + 1)
    width = 8 * size
    step = g // n
    # shifted[j][i]: monomial i with mu_k moved to mu_(k + j step), packed
    shifted = [
        [
            1 << (width * sum(e * weights[(k + j * step) % g] for k, e in enumerate(mono)))
            for mono in monos
        ]
        for j in range(n)
    ]

    classes = {}
    for lead in range(len(monos)):
        heads = [row[lead] for row in shifted]
        tails = [row[:lead] for row in shifted]
        for tail in itertools.product(range(l), repeat=lead):
            norm = heads[0] + sum(map(mul, tail, tails[0]))
            for head, row in zip(heads[1:], tails[1:]):
                norm *= head + sum(map(mul, tail, row))
            norm = packing.reduce(norm, l, m, s, qmask)
            lc = norm >> (width * ((norm.bit_length() - 1) // width))
            if lc != 1:
                norm = packing.reduce(norm * pow(lc, -1, l), l, m, s, qmask)
            classes.setdefault(norm, set()).add(lc)

    unit_norms = set()
    for leading_coeffs in classes.values():
        for c1 in leading_coeffs:
            for c2 in leading_coeffs:
                ratio = c1 * pow(c2, -1, l) % l
                unit_norms.update(ratio * t % l for t in nth_powers)
    if not set(nth_powers) <= unit_norms:
        # c^n = N(c) for constants, so the n-th powers are always reached
        raise InternalCheckError("enumeration missed the constant witnesses")

    return PropositionReport(
        l=l,
        n=n,
        g=g,
        deg_bound=deg_bound,
        unit_norms=tuple(sorted(unit_norms)),
        nth_powers=tuple(nth_powers),
        consistent=sorted(unit_norms) == nth_powers,
        representatives=count,
        norm_classes=len(classes),
    )


def _monomials_upto(deg, g):
    """Exponent tuples in g variables of total degree <= deg, in graded-lex
    order; a representative's leading monomial is the last of its support."""
    out = []
    for total in range(deg + 1):
        out.extend(_compositions(total, g))
    return sorted(out, key=lambda e: (sum(e), e))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _kronecker_weights(g, degree):
    """Greedy v_0 < ... < v_(g-1) with every multiset of at most `degree` of
    them summing to a different integer (a B_h set, h = degree).

    A monomial of total degree <= degree then has its own weight
    sum e_i v_i, and weights add under products, so packed polynomials
    multiply as ints. The mixed radix v_i = (degree + 1)^i has the same
    property, but its fields grow exponentially in g; these grow like
    g^degree: g = 16, degree 2 ends at v = 289 instead of 3^15.
    """
    by_size = [[0]] + [[] for _ in range(degree)]  # sums of exactly t of them
    seen = {0}
    weights = []
    v = 0
    while len(weights) < g:
        v += 1
        new = [
            (t + a, x + a * v)
            for a in range(1, degree + 1)
            for t in range(degree - a + 1)
            for x in by_size[t]
        ]
        sums = [x for _, x in new]
        if len(set(sums)) == len(sums) and seen.isdisjoint(sums):
            weights.append(v)
            seen.update(sums)
            for t, x in new:
                by_size[t].append(x)
    return weights


# ---------------------------------------------------------------------------
# the norm chain through root-of-unity content
# ---------------------------------------------------------------------------


def m_from_root_content(base, p, n):
    """m of the canonical degree-p^n Kummer tower over a base with the
    given root-of-unity content.

    The chain: xi_p is a norm from level n down to level i exactly when
    xi_p is a p^(n-i)-th power of a root of unity in the base, i.e. when
    xi_{p^(n-i+1)} is present. So with s the largest power present,
    membership starts at level n-s+1 and m = n - s, or -infinity when s
    exceeds n (membership already at level 0).
    """
    if not is_prime(p) or n < 1:
        raise ValueError("p must be prime and n >= 1")
    s = base.max_power(p)
    if s < 1:
        raise MissingRootOfUnity(
            f"xi_{p} is not in {base.describe()}; m is undefined here"
        )
    members = [i for i in range(n + 1) if n - i + 1 <= s]
    if members != list(range(members[0], n + 1)):
        raise InternalCheckError("norm membership set is not upward closed")
    if members[0] == 0:
        return NEG_INF
    return members[0] - 1
