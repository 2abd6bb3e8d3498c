"""The dict-of-tuples polynomial route the orbit-norm scan used before its
Kronecker packing, kept as a test oracle: PolyRing's product and shift,
RationalFunction with orbit_norm, and the scan itself on those dicts.

Polynomials are dicts {exponent tuple: coefficient}; the action sends
mu_i to mu_(i+step) cyclically with step = g/n, so it has order n.
"""

import itertools
from dataclasses import dataclass

from normtower import ufd_norm
from normtower.errors import InternalCheckError, SearchSpaceTooLarge
from normtower.numtheory import is_prime


@dataclass(frozen=True)
class PolyRing:
    l: int
    g: int  # number of variables
    n: int  # order of the cyclic action; n | g, shift step g/n

    def __post_init__(self):
        if not is_prime(self.l):
            raise ValueError(f"{self.l} is not prime")
        if self.n < 1 or self.g < 1 or self.g % self.n:
            raise ValueError("need n >= 1 and n | g")

    @property
    def step(self):
        return self.g // self.n

    def shift_poly(self, f, times=1):
        s = self.step * times % self.g
        if s == 0:
            return dict(f)
        out = {}
        for exps, c in f.items():
            out[tuple(exps[(i - s) % self.g] for i in range(self.g))] = c
        return out

    def add(self, f1, f2):
        out = dict(f1)
        for exps, c in f2.items():
            v = (out.get(exps, 0) + c) % self.l
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return out

    def mul(self, f1, f2):
        out = {}
        for e1, c1 in f1.items():
            for e2, c2 in f2.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % self.l
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return out

    def scalar_mul(self, c, f):
        c %= self.l
        if c == 0:
            return {}
        return {e: c * v % self.l for e, v in f.items()}

    def constant(self, c):
        c %= self.l
        return {(0,) * self.g: c} if c else {}

    def leading(self, f):
        """(monomial, coefficient) maximal in graded-lex order."""
        if not f:
            raise ValueError("zero polynomial has no leading term")
        mono = max(f, key=lambda e: (sum(e), e))
        return mono, f[mono]

    def monic(self, f):
        """(f / leading coeff, leading coeff)."""
        _, lc = self.leading(f)
        return self.scalar_mul(pow(lc, -1, self.l), f), lc

    def constant_value(self, f):
        """The value of f if it is constant, else None."""
        if not f:
            return 0
        if len(f) == 1 and (0,) * self.g in f:
            return f[(0,) * self.g]
        return None

    def freeze(self, f):
        return tuple(sorted(f.items()))

    def monomials_upto(self, deg):
        out = []
        for total in range(deg + 1):
            out.extend(_compositions(total, self.g))
        return sorted(out, key=lambda e: (sum(e), e))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """num/den with monomial-content cancellation and monic denominator.

    Full multivariate gcd reduction is out of scope; equality is tested by
    cross-multiplication, which is exact regardless of representation.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.ring = ring
            self.num = {}
            self.den = ring.constant(1)
            return
        num, den = _cancel_monomial_content(ring, num, den)
        ratio = _constant_ratio(ring, num, den)
        if ratio is not None:
            num, den = ring.constant(ratio), ring.constant(1)
        else:
            den, lc = ring.monic(den)
            num = ring.scalar_mul(pow(lc, -1, ring.l), num)
        self.ring = ring
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, RationalFunction) or self.ring != other.ring:
            return NotImplemented
        r = self.ring
        return r.mul(self.num, other.den) == r.mul(other.num, self.den)

    def __hash__(self):
        return hash((self.ring, self.ring.freeze(self.num), self.ring.freeze(self.den)))

    def is_constant(self):
        return (
            self.ring.constant_value(self.num) is not None
            and self.ring.constant_value(self.den) is not None
        )

    def constant_value(self):
        cn = self.ring.constant_value(self.num)
        cd = self.ring.constant_value(self.den)
        if cn is None or cd is None:
            return None
        return cn * pow(cd, -1, self.ring.l) % self.ring.l

    def __repr__(self):
        return f"RationalFunction({_format_poly(self.num)} / {_format_poly(self.den)})"


def _format_poly(f):
    if not f:
        return "0"
    parts = []
    for exps, c in sorted(f.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        mono = "*".join(
            f"mu{i + 1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exps)
            if e
        )
        parts.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(parts)


def _cancel_monomial_content(ring, num, den):
    lows = []
    for i in range(ring.g):
        low = min(min(e[i] for e in num), min(e[i] for e in den))
        lows.append(low)
    if not any(lows):
        return num, den
    shift = tuple(lows)

    def drop(f):
        return {tuple(a - b for a, b in zip(e, shift)): c for e, c in f.items()}

    return drop(num), drop(den)


def _constant_ratio(ring, num, den):
    """c with num == c * den, else None."""
    if len(num) != len(den):
        return None
    _, ln = ring.leading(num)
    _, ld = ring.leading(den)
    c = ln * pow(ld, -1, ring.l) % ring.l
    if ring.scalar_mul(c, den) == num:
        return c
    return None


def rational_function(ring, num_terms, den_terms):
    """Build from {monomial: coeff} dicts (or iterables of pairs)."""
    num = {tuple(e): c % ring.l for e, c in dict(num_terms).items() if c % ring.l}
    den = {tuple(e): c % ring.l for e, c in dict(den_terms).items() if c % ring.l}
    return RationalFunction(ring, num, den)


def orbit_norm(w, ring=None):
    """Product of the n cyclic shifts of w; sigma-invariant by construction."""
    ring = ring or w.ring
    if not w.num:
        raise ValueError("norm of the zero function")
    num, den = ring.constant(1), ring.constant(1)
    for j in range(ring.n):
        num = ring.mul(num, ring.shift_poly(w.num, j))
        den = ring.mul(den, ring.shift_poly(w.den, j))
    return RationalFunction(ring, num, den)


# ---------------------------------------------------------------------------
# the scan on dict polynomials
# ---------------------------------------------------------------------------


def proposition_check_dict(l, n, deg_bound, g=None, max_representatives=200000):
    """Confirm that unit-valued orbit norms are exactly the n-th powers.

    Every nonzero rational function within the degree bound is a scalar
    multiple of f/g with f, g monic (leading coefficient 1 in graded-lex);
    N(c f / e g) = (c/e)^n N(f)/N(g) is constant exactly when N(f) and
    N(g) agree up to a scalar, so grouping monic numerator norms by their
    monic form enumerates every constant norm value without materializing
    the quadratic number of (numerator, denominator) pairs.
    """
    if l > 7:
        raise SearchSpaceTooLarge("prime fields beyond F_7 are out of desk range")
    if n > 3:
        raise SearchSpaceTooLarge("group order beyond 3 is out of desk range")
    if deg_bound > 2:
        raise SearchSpaceTooLarge("degree bound beyond 2 is out of desk range")
    ring = PolyRing(l, g or n, n)
    monos = ring.monomials_upto(deg_bound)
    count = (l ** len(monos) - 1) // (l - 1)
    if count > max_representatives:
        raise SearchSpaceTooLarge(
            f"{count} monic representatives exceed {max_representatives}"
        )

    nth_powers = sorted({pow(c, n, l) for c in range(1, l)})

    classes = {}
    for f in _monic_representatives(ring, monos):
        norm = f
        for j in range(1, n):
            norm = ring.mul(norm, ring.shift_poly(f, j))
        monic_norm, lc = ring.monic(norm)
        classes.setdefault(ring.freeze(monic_norm), set()).add(lc)

    unit_norms = set()
    for leading_coeffs in classes.values():
        for c1 in leading_coeffs:
            for c2 in leading_coeffs:
                ratio = c1 * pow(c2, -1, l) % l
                unit_norms.update(ratio * t % l for t in nth_powers)
    if not set(nth_powers) <= unit_norms:
        # c^n = N(c) for constants, so the n-th powers are always reached
        raise InternalCheckError("enumeration missed the constant witnesses")

    return ufd_norm.PropositionReport(
        l=l,
        n=n,
        g=ring.g,
        deg_bound=deg_bound,
        unit_norms=tuple(sorted(unit_norms)),
        nth_powers=tuple(nth_powers),
        consistent=sorted(unit_norms) == nth_powers,
        representatives=count,
        norm_classes=len(classes),
    )


def _monic_representatives(ring, monos):
    """All nonzero polynomials on the given monomials, up to scalars:
    graded-lex leading coefficient 1, smaller monomials arbitrary."""
    for lead in range(len(monos)):
        for tail in itertools.product(range(ring.l), repeat=lead):
            f = {monos[lead]: 1}
            for mono, c in zip(monos[:lead], tail):
                if c:
                    f[mono] = c
            yield f
