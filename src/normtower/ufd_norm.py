"""The bounded verification that unit-valued orbit norms of rational
functions over F_l are exactly n-th powers.

The cyclic action sends mu_i to mu_(i+step), step = g/n, so it has order
n. The orbit norm of w is the product of its n shifts; when that norm
lands in F_l^x the claim is that it is an n-th power there, and the check
enumerates every rational function within a degree bound to confirm it.
"""

import math
from dataclasses import dataclass
from operator import add

from . import packing
from .errors import InternalCheckError, SearchSpaceTooLarge
from .numtheory import is_prime, shown, whole

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
    A tail's n shifted sums are a shorter tail's plus c times one monomial,
    so a norm is n additions, n - 1 big-int products and one reduce. Its
    class is keyed by the norm divided by its top field; the top fields
    within a class have the ratios of the graded-lex leading coefficients,
    and the unit norms are those ratios times the n-th powers.
    """
    if whole(l, "l") > 7:
        raise SearchSpaceTooLarge("prime fields beyond F_7 are out of desk range")
    if whole(n, "n") > 3:
        raise SearchSpaceTooLarge("group order beyond 3 is out of desk range")
    if whole(deg_bound, "degree bound") > 2:
        raise SearchSpaceTooLarge("degree bound beyond 2 is out of desk range")
    g = n if g is None else whole(g, "g")
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    if n < 1 or g < 1 or g % n:
        raise ValueError("need n >= 1 and n | g")
    whole(deg_bound, "degree bound", floor=0)
    # count the monomials before listing them, which a large g makes
    # impossible; from 64 monomials on there are over 2^63 representatives,
    # so the count is left as a formula
    terms = math.comb(g + deg_bound, deg_bound)
    count = (l**terms - 1) // (l - 1) if terms < 64 else None
    if count is None or count * terms**n > MAX_WORK:
        reps = f"({l}^{shown(terms)} - 1) / {l - 1}" if count is None else count
        raise SearchSpaceTooLarge(
            f"{reps} monic representatives times {shown(terms)}^{n} exceed {MAX_WORK}"
        )
    if g > MAX_VARIABLES:  # only a degree bound of 0 gets here with g > 16
        raise SearchSpaceTooLarge(f"g = {shown(g)} variables > {MAX_VARIABLES}")
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

    # level: each tail's sums with the n shifted rows over the monomials
    # before lead; the last lead's level is iterated, never listed
    inverse = [0] + [pow(c, -1, l) for c in range(1, l)]
    classes = {}
    level = [(0,) * n]
    for lead, heads in enumerate(zip(*shifted)):
        if lead:
            steps = [[c * row[lead - 1] for row in shifted] for c in range(l)]
            level = (tuple(map(add, sums, step)) for sums in level for step in steps)
            if lead < len(monos) - 1:
                level = list(level)
        for sums in level:
            norm = packing.reduce(math.prod(map(add, heads, sums)), l, m, s, qmask)
            lc = norm >> (width * ((norm.bit_length() - 1) // width))
            if lc != 1:
                norm = packing.reduce(norm * inverse[lc], l, m, s, qmask)
            classes[norm] = classes.get(norm, 0) | 1 << lc  # the class's leading coefficients

    lcs = [[c for c in range(1, l) if mask >> c & 1] for mask in set(classes.values())]
    ratios = {c1 * inverse[c2] % l for cs in lcs for c1 in cs for c2 in cs}
    unit_norms = {ratio * t % l for ratio in ratios for t in nth_powers}
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
