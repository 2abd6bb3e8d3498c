"""The norm invariant m for each concrete tower construction.

For a cyclic extension K/F of degree p^n with intermediate fields K_s of
degree p^s, m(K/F) is one less than the least s such that the p-th root of
unity is a norm from K to K_s, or -infinity when it is already a norm to F.
Each supported construction reduces this to exact arithmetic: root-of-unity
content for the Kummer-type towers, residue computations for the local
ones, and Hilbert symbols for the quartic family over Q.
"""

import math
from dataclasses import dataclass, fields

from .errors import (
    CrossCheckMismatch,
    FactorizationError,
    InadmissibleSpec,
    InternalCheckError,
    MissingRootOfUnity,
    NotFoundBelowLimit,
)
from .mvalue import NEG_INF, UNDETERMINED, UNDETERMINED_LE0, format_m
from .numtheory import _MR_BASES, MAX_N, factorize, is_prime, json_int, shown, valuation
from .roots import RootOfUnityContent, m_from_root_content

# padic (biquadratic only) and galois_module (cross_check_profile only) are
# imported where they are used, so that other callers do not load them

# ---------------------------------------------------------------------------
# tower constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrauerRowenSpec:
    """Fixed field of a cyclotomic function field chosen so that exactly
    the p^(n-t)-th roots of unity survive."""

    p: int
    n: int
    t: int


@dataclass(frozen=True)
class FunctionFieldSpec:
    """Kummer tower over a rational function field with prescribed
    root-of-unity content in the constant field."""

    p: int
    n: int
    base: RootOfUnityContent


@dataclass(frozen=True)
class LocalCyclotomicSpec:
    """Degree-p^n subfield of the q-th cyclotomic extension of Q_q,
    for q a prime congruent to 1 + p^n mod p^(n+1)."""

    p: int
    n: int
    q: int


@dataclass(frozen=True)
class LocalKummerSpec:
    """K = F(a^(1/p^n)) over F = Q_l(xi_{p^(n+1)})."""

    p: int
    n: int
    l: int


@dataclass(frozen=True)
class BiquadraticSpec:
    """The cyclic quartic tower Q(sqrt(d(a + sqrt(a)))) over Q,
    with a = 1 + c^2, c a nonzero multiple of 4, d = +-1."""

    a: int
    d: int

    @property
    def p(self):
        return 2

    @property
    def n(self):
        return 2


@dataclass(frozen=True)
class MResult:
    m: object
    evidence: tuple

    @property
    def m_text(self):
        return format_m(self.m)


def compute_m(spec):
    return explain_m(spec).m


def explain_m(spec):
    _, compute = _variant(spec)
    return compute(spec)


def _require(cond, message, *args):
    """Raise InadmissibleSpec unless cond; message.format(*args) is built
    only then, each int arg as numtheory.shown gives it."""
    if not cond:
        raise InadmissibleSpec(message.format(*map(shown, args)))


def _m_brauer_rowen(spec):
    p, n, t = spec.p, spec.n, spec.t
    _require(is_prime(p), "{} is not prime", p)
    _require(n >= 1, "n must be >= 1")
    _require(0 <= t <= n - 1, "t must lie in 0..n-1, got {}", t)
    base = RootOfUnityContent.cyclotomic(p ** (n - t))
    s = base.max_power(p)
    if s != n - t:
        raise InternalCheckError(f"conductor p^{n - t} carries content {s}")
    m = m_from_root_content(base, p, n)
    if m != t:
        raise InternalCheckError(f"chain gave m = {m}, parameterization says {t}")
    return MResult(
        m,
        (
            f"base field contains xi_{p ** (n - t)} but not xi_{p ** (n - t + 1)}",
            f"xi_{p} is a norm to level s exactly for s in {t + 1}..{n}",
            f"m = {t}",
        ),
    )


def _m_function_field(spec):
    p, n = spec.p, spec.n
    _require(is_prime(p), "{} is not prime", p)
    _require(n >= 1, "n must be >= 1")
    try:
        m = m_from_root_content(spec.base, p, n)
    except MissingRootOfUnity as err:
        raise InadmissibleSpec(str(err)) from None
    s = spec.base.max_power(p)
    evidence = [
        f"largest p-power root of unity in {spec.base.describe()}: xi_{p ** s}",
    ]
    if m == NEG_INF:
        evidence.append(
            f"xi_{p ** (n + 1)} present, so xi_{p} is a norm from the full tower"
        )
    else:
        evidence.append(
            f"xi_{p} is a norm to level s exactly for s in {m + 1}..{n} (upward closed)"
        )
        evidence.append(f"m = n - {s} = {m}")
    return MResult(m, tuple(evidence))


def _m_local_cyclotomic(spec):
    p, n, q = spec.p, spec.n, spec.q
    _require(is_prime(p), "{} is not prime", p)
    _require(n >= 1, "n must be >= 1")
    if residue_norm_test(p, n, q):
        raise InternalCheckError(f"v_{p}(q - 1) = {n} but (q-1)/p^n is divisible by {p}")
    cofactor = (q - 1) // p**n
    return MResult(
        0,
        (
            f"q = {q} is congruent to 1 + {p}^{n} mod {p}^{n + 1}",
            f"(q-1)/p^n = {cofactor} is coprime to {p}, so the p^n-th powers "
            f"in F_{q}^x contain no element of order {p}",
            "xi_p is not a norm to the base, and the degree-p subextension "
            "already absorbs it: m = 0",
        ),
    )


def _m_local_kummer(spec):
    p, n, l = spec.p, spec.n, spec.l
    _require(is_prime(p), "{} is not prime", p)
    _require(is_prime(l), "{} is not prime", l)
    _require(n >= 1, "n must be >= 1")
    return MResult(
        NEG_INF,
        (
            f"xi_{p ** (n + 1)} lies in the base field and is fixed by the "
            f"Galois group of the Kummer extension",
            f"its norm is its p^{n}-th power, which is xi_{p}",
            "so xi_p is a norm from the full extension: m = -inf",
        ),
    )


def _m_biquadratic(spec):
    from . import padic

    a, d = spec.a, spec.d
    _require(d in (1, -1), "d must be +1 or -1, got {}", d)
    _require(a > 1, "a must exceed 1")
    c = math.isqrt(a - 1)
    _require(c * c == a - 1, "a = {} is not of the form 1 + c^2", a)
    _require(c != 0 and c % 4 == 0, "c = {} must be a nonzero multiple of 4", c)
    a_text, c_text = shown(a), shown(c)
    evidence = [
        f"a = {a_text} = 1 + {c_text}^2 with 4 | {c_text}; "
        f"8 divides a - 1 = {shown(a - 1)}"
    ]
    certified = False

    # real places: d(a + sqrt(a)) and d(a - sqrt(a)) both carry the sign of
    # d, because 0 < sqrt(a) < a; a negative entry makes the completion of
    # the quartic field C over R, and -1 is not a norm from C to R
    if d < 0:
        evidence.append(
            "both real embeddings of d(a +- sqrt(a)) are negative, so the "
            "quartic completes to C over R and -1 is not a local norm there"
        )
        certified = True
    else:
        evidence.append("d(a +- sqrt(a)) > 0 at the real places; no verdict there")

    # the verdict reads d(a +- sqrt(a)) mod 8. With sqrt(a) = 1 mod 4,
    # a - sqrt(a) = sqrt(a) c^2 / (sqrt(a) + 1) has valuation 2 v_2(c) - 1,
    # and the root carries one digit fewer than a: 2 v_2(c) + 3 digits of a
    # leave exactly 3 after that cancellation. At 2 a Hilbert symbol reads
    # only the valuation and the unit mod 8, so the int mod 2^(precision - 1)
    # stands for the 2-adic value exactly
    precision = 2 * valuation(c, 2) + 3
    root = padic.hensel_sqrt(a, precision)
    if root is None:
        raise InternalCheckError("a = 1 mod 8 must be a 2-adic square")
    evidence.append(
        f"sqrt({a_text}) exists in Q_2 (unit 1 mod 8); both completions over 2 are Q_2"
    )
    for sign, label in ((1, "a + sqrt(a)"), (-1, "a - sqrt(a)")):
        value = d * (a + sign * root) % 2 ** (precision - 1)
        v = valuation(value, 2)
        is_sum = padic.hilbert_symbol(value, -1, 2) == 1
        evidence.append(
            f"d({label}) has valuation {v} and unit {(value >> v) % 8} mod 8: "
            + ("a sum of two squares in Q_2" if is_sum else "not a sum of two squares in Q_2")
        )
        if not is_sum:
            certified = True
    if certified:
        evidence.append(
            "-1 fails to be a norm in some completion of the quartic over "
            "its quadratic subfield, so it is not a global norm: m = 1"
        )
        return MResult(1, tuple(evidence))
    evidence.append(
        "-1 is a local norm at every tested place; m <= 0 but the global "
        "norm question is not decided here"
    )
    return MResult(UNDETERMINED_LE0, tuple(evidence))


# The one place a variant name meets its spec class and compute function;
# explain_m and the JSON form below are derived from it.
VARIANTS = {
    "brauer_rowen": (BrauerRowenSpec, _m_brauer_rowen),
    "function_field": (FunctionFieldSpec, _m_function_field),
    "local_cyclotomic": (LocalCyclotomicSpec, _m_local_cyclotomic),
    "local_kummer": (LocalKummerSpec, _m_local_kummer),
    "biquadratic": (BiquadraticSpec, _m_biquadratic),
}
_BY_SPEC_CLASS = {cls: (name, compute) for name, (cls, compute) in VARIANTS.items()}


def _variant(spec):
    """(variant name, compute function) of a spec instance."""
    try:
        return _BY_SPEC_CLASS[type(spec)]
    except KeyError:
        raise ValueError(f"unknown tower spec {spec!r}") from None


# ---------------------------------------------------------------------------
# arithmetic helpers named in the construction
# ---------------------------------------------------------------------------


def find_dirichlet_prime(p, n, limit=10**6):
    """Smallest prime q with q = 1 + p^n mod p^(n+1); n is at most MAX_N.
    A limit below 1 + p^n is refused before p is tested."""
    if n < 1:
        raise ValueError("p must be prime and n >= 1")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")
    start = 1 + p**n
    if limit < start:
        raise ValueError(f"limit {limit} is below 1 + p^n = {shown(start, f'1 + {p}^{n}')}")
    if not is_prime(p):
        raise ValueError("p must be prime and n >= 1")
    step = p ** (n + 1)
    q = start
    while q <= limit:
        if _is_candidate_prime(q, p, start - 1):
            return q
        q += step
    raise NotFoundBelowLimit(
        f"no prime = 1 + {p}^{n} mod {p}^{n + 1} up to {limit}"
    )


def _is_candidate_prime(q, p, pn):
    """is_prime(q) for q = 1 + k p^n, where pn = p^n. Past is_prime's exact
    bound a q that passes every Miller-Rabin base is proved prime by
    Pocklington's criterion when pn^2 > q: a base a with a^(q-1) = 1 and
    gcd(a^((q-1)/p) - 1, q) = 1 makes p^n divide r - 1 for every prime r
    dividing q, so r > sqrt(q). If no base does, is_prime's refusal stands."""
    try:
        return is_prime(q)
    except FactorizationError:
        if pn * pn > q:
            for a in _MR_BASES:
                if pow(a, q - 1, q) == 1 and math.gcd(pow(a, (q - 1) // p, q) - 1, q) == 1:
                    return True
        raise


def residue_norm_test(p, n, q):
    """Whether some element of order p in F_q^x is a p^n-th power.

    The p^n-th powers form the subgroup of order (q-1)/p^n of the cyclic
    group F_q^x, which holds an element of order p iff p divides that
    order. The precondition q = 1 + p^n mod p^(n+1) makes v_p(q - 1) = n,
    so (q-1)/p^n = 1 mod p and the answer is always False.
    """
    _require(is_prime(q), "q = {} is not prime", q)
    _require(
        q % p ** (n + 1) == (1 + p**n) % p ** (n + 1),
        "q = {} is not 1 + {}^{} mod {}^{}",
        q,
        p,
        n,
        p,
        n + 1,
    )
    return (q - 1) // p**n % p == 0


def index_bound_check(m, ind, p=None):
    """Whether ind <= p^(m+1), reading p^(-inf + 1) as 1.

    p is inferred from ind when not given; ind = 1 passes for every m.
    """
    if ind < 1:
        raise ValueError("index must be a positive integer")
    if m != NEG_INF and (not isinstance(m, int) or m < 0):
        raise ValueError(f"m must be -inf or a non-negative integer, got {m!r}")
    if ind == 1:
        return True
    _, fac = factorize(ind)
    if len(fac) != 1:
        raise ValueError(f"index {ind} is not a prime power")
    (base, k), = fac.items()
    if p is not None and base != p:
        raise ValueError(f"index {ind} is not a power of {p}")
    if m == NEG_INF:
        return False
    return k <= m + 1


# ---------------------------------------------------------------------------
# cross-checking a module fixture against a tower spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossCheckVerdict:
    spec_m: object
    shape_m: object
    note: str


def cross_check_profile(spec, module):
    """Compare the m forced by a module's shape with the tower's m.

    A shape without an exceptional summand determines no m; that is
    consistent with m = -inf, with an undecided m <= 0, and, at p = 2,
    with m = 0, whose would-be exceptional summand of dimension 2 is
    itself a free block of rank one and must appear as such.
    """
    from . import galois_module

    spec_m = compute_m(spec)
    if (module.p, module.n) != (spec.p, spec.n):
        raise ValueError(
            f"module is over (p={module.p}, n={module.n}), "
            f"spec wants (p={spec.p}, n={spec.n})"
        )
    _, shape = galois_module.decompose(module)
    shape_m = galois_module.m_from_shape(shape)
    if shape_m is UNDETERMINED:
        if spec_m == NEG_INF or spec_m is UNDETERMINED_LE0:
            return CrossCheckVerdict(
                spec_m, shape_m, "no exceptional summand; consistent with m <= 0"
            )
        if spec_m == 0 and module.p == 2 and shape.free_ranks[1] > 0:
            return CrossCheckVerdict(
                spec_m,
                shape_m,
                "p = 2, m = 0: the dimension-2 summand is a free block of "
                "size 2, which the shape carries",
            )
        raise CrossCheckMismatch(format_m(spec_m), format_m(shape_m))
    if spec_m == shape_m or (spec_m is UNDETERMINED_LE0 and shape_m == 0):
        return CrossCheckVerdict(spec_m, shape_m, "exceptional summand matches m")
    raise CrossCheckMismatch(format_m(spec_m), format_m(shape_m))


# ---------------------------------------------------------------------------
# JSON form used by the CLI
# ---------------------------------------------------------------------------


def spec_to_json(spec):
    data = {"variant": _variant(spec)[0]}
    for field in fields(spec):
        value = getattr(spec, field.name)
        data[field.name] = value.to_json() if field.type is RootOfUnityContent else value
    return data


def spec_from_json(data):
    """The tower spec a CLI JSON object describes. `variant` names a row of
    VARIANTS; each field of its spec class must be present, an int field as
    a JSON integer and a RootOfUnityContent field as its JSON object.
    Anything else is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError("tower spec JSON must be an object")
    variant = data.get("variant")
    if not (isinstance(variant, str) and variant in VARIANTS):
        raise ValueError(f"unknown tower variant {variant!r}")
    cls = VARIANTS[variant][0]
    return cls(
        **{
            field.name: RootOfUnityContent.from_json(data.get(field.name))
            if field.type is RootOfUnityContent
            else json_int(data, field.name, "tower spec")
            for field in fields(cls)
        }
    )
