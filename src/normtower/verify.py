"""Batch verification registry.

Each check is an executable form of one worked example or property suite;
the same registry backs the verify-paper CLI subcommand and the acceptance
test module. Checks are deterministic given a seed, use exact arithmetic
throughout, and are reported sorted by check id. Each check imports the
modules it exercises, so `--only` loads no others.
"""

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidShape
from .mvalue import NEG_INF
# c10 reads its places off the primes it draws, not off factorize; the name
# stays bound here because perfbench/tracing.py wraps every module binding of
# numtheory.factorize and perfbench's own test expects this one among them
from .numtheory import factorize  # noqa: F401
from .roots import RootOfUnityContent


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    name: str
    passed: bool
    detail: str
    seconds: float
    traceback: str = None  # the formatted traceback of a failing check


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    records: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def to_json(self):
        checks = []
        for r in self.records:
            entry = {
                "id": r.check_id,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            if r.traceback is not None:
                entry["traceback"] = r.traceback
            checks.append(entry)
        return {"seed": self.seed, "passed": self.passed, "checks": checks}

    def text_lines(self):
        lines = []
        for r in self.records:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"{r.check_id}  {r.name:<34} {status}  {r.seconds:6.2f}s  {r.detail}"
            )
        good = sum(1 for r in self.records if r.passed)
        lines.append(f"{good}/{len(self.records)} checks passed")
        return lines


class _Context:
    def __init__(self, seed):
        self.seed = seed

    def rng(self, tag):
        return random.Random(f"{self.seed}:{tag}")


def _expect(cond, msg=""):
    """A check's assertion; unlike `assert`, it still runs under python -O."""
    if not cond:
        raise AssertionError(msg)


def _divisors(a):
    return [b for b in range(1, a + 1) if a % b == 0]


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _check_quartic_seventeen(ctx):
    """a = 17, d = -1: every local certificate fires and m = 1."""
    from . import m_invariant

    result = m_invariant.explain_m(m_invariant.BiquadraticSpec(17, -1))
    _expect(result.m == 1, f"expected m = 1, got {result.m_text}")
    _expect(
        any(e.endswith("-1 is not a local norm there") for e in result.evidence),
        "the real places certified nothing",
    )
    certified = sum(
        e.endswith("not a sum of two squares in Q_2") for e in result.evidence
    )
    _expect(certified >= 1, "no 2-adic branch certified -1 as a non-norm")
    return f"m = 1; real places and {certified}/2 two-adic branches certify"


def _check_dirichlet_residue(ctx):
    """Smallest Dirichlet primes and the residue certificate give m = 0."""
    from . import m_invariant

    _expect(m_invariant.find_dirichlet_prime(2, 2) == 5)
    _expect(m_invariant.residue_norm_test(2, 2, 5) is False)
    _expect(m_invariant.compute_m(m_invariant.LocalCyclotomicSpec(2, 2, 5)) == 0)
    _expect(m_invariant.find_dirichlet_prime(3, 1) == 13)
    _expect(m_invariant.residue_norm_test(3, 1, 13) is False)
    _expect(m_invariant.compute_m(m_invariant.LocalCyclotomicSpec(3, 1, 13)) == 0)
    return "q = 5 and q = 13; residue test false, m = 0 in both towers"


def _check_kummer_norm(ctx):
    """xi_p is the norm of xi_{p^(n+1)}, so every Kummer tower has m = -inf."""
    from . import m_invariant

    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        l = 3 if p == 2 else 2
        spec = m_invariant.LocalKummerSpec(p, n, l)
        _expect(m_invariant.compute_m(spec) == NEG_INF)
    return "m = -inf for all four towers"


def _check_realization_sweep(ctx):
    """Every value t in {-inf, 0, ..., n-1} arises from some tower spec."""
    from . import m_invariant

    towers = 0
    for p in (2, 3):
        for n in range(1, 5):
            realized = set()
            full = m_invariant.FunctionFieldSpec(
                p, n, RootOfUnityContent.cyclotomic(p ** (n + 1))
            )
            m = m_invariant.compute_m(full)
            _expect(m == NEG_INF)
            realized.add(m)
            towers += 1
            for t in range(n):
                m = m_invariant.compute_m(m_invariant.BrauerRowenSpec(p, n, t))
                _expect(m == t, f"p={p} n={n} t={t} gave {m}")
                realized.add(m)
                towers += 1
            _expect(realized == {NEG_INF, *range(n)})
    return f"{towers} specs cover every target value"


def _check_cocycle_suite(ctx):
    """Carrying cocycles: cocycle identity, explicit isomorphism, invariant."""
    from . import cohomology

    triples = 0
    for a in range(1, 13):
        for b in _divisors(a):
            for r in range(1, 7):
                # the witness checked both cocycles when it built their groups
                witness = cohomology.extension_isomorphism(a, b, r)
                _expect(witness.target.invariant() == witness.source.invariant())
                triples += 1
    pairs = 0
    for a in range(1, 5):
        for b in _divisors(a):
            for r in range(1, 4):
                candidates = (
                    cohomology.carrying_cocycle(a, b, r),
                    cohomology.scale_cocycle(
                        cohomology.carrying_cocycle(a, a, r), a // b
                    ),
                    cohomology.zero_cocycle(a, r),
                )
                for c1 in candidates:
                    for c2 in candidates:
                        witness = cohomology.cohomologous_bruteforce(c1, c2)
                        same = cohomology.h2_invariant(c1) == cohomology.h2_invariant(c2)
                        _expect((witness is not None) == same)
                        pairs += 1
    return f"{triples} (a,b,r) isomorphisms verified; {pairs} brute-force pairs agree"


def _check_classifier(ctx):
    """Shape -> module -> profile -> shape round trip, conjugation, oracle."""
    from . import fp_linalg, galois_module

    roundtrips = 0
    small = []
    for p in (2, 3):
        for n in range(1, 4):
            exc_options = [None]
            for m in range(n):
                try:
                    galois_module.DecompositionShape(p, n, (0,) * (n + 1), m)
                except InvalidShape:
                    continue
                exc_options.append(m)
            for ranks in itertools.product(range(3), repeat=n + 1):
                for exc in exc_options:
                    if exc is None and not any(ranks):
                        continue
                    shape = galois_module.DecompositionShape(p, n, ranks, exc)
                    mod = galois_module.synthesize(shape)
                    profile = galois_module.jordan_profile(mod)
                    back = galois_module.classify_profile(profile, p, n)
                    _expect(back == shape, f"{shape} came back as {back}")
                    roundtrips += 1
                    if shape.total_dim <= 10:
                        small.append(shape)
    rng = ctx.rng("classifier")
    for _ in range(200):
        shape = rng.choice(small)
        mod = galois_module.synthesize(shape)
        q = fp_linalg.random_invertible(shape.p, shape.total_dim, rng)
        moved = galois_module.conjugate(mod, q)
        _expect(galois_module.jordan_profile(moved) == galois_module.jordan_profile(mod))
    oracle = 0
    for p in (2, 3):
        for n in (1, 2, 3):
            for shape in galois_module.enumerate_shapes(p, n, 6):
                mod = galois_module.synthesize(shape)
                sizes = galois_module.bruteforce_block_sizes(mod)
                _expect(sizes == galois_module.jordan_profile(mod).sizes)
                oracle += 1
    for k in range(10):
        p = rng.choice((2, 3))
        n = rng.randint(1, 3)
        dim = rng.randint(1, 6)
        mod = galois_module.random_gmodule(p, n, dim, seed=rng.randrange(10**6))
        sizes = galois_module.bruteforce_block_sizes(mod)
        _expect(sizes == galois_module.jordan_profile(mod).sizes)
        oracle += 1
    return f"{roundtrips} round trips, 200 conjugations, {oracle} oracle agreements"


def _check_unit_norms(ctx):
    """Constant orbit norms of units are exactly the n-th powers."""
    from . import ufd_norm

    def squares(l):
        return {x * x % l for x in range(1, l)}

    r32 = ufd_norm.proposition_check(3, 2, 2)
    _expect(r32.consistent and set(r32.unit_norms) == squares(3) == {1})
    r52 = ufd_norm.proposition_check(5, 2, 1)
    _expect(r52.consistent and set(r52.unit_norms) == squares(5) == {1, 4})
    r33 = ufd_norm.proposition_check(3, 3, 1)
    _expect(r33.consistent and set(r33.unit_norms) == {1, 2})
    reps = r32.representatives + r52.representatives + r33.representatives
    return f"unit-norm sets {{1}}, {{1,4}}, {{1,2}} from {reps} representatives"


def _check_index_ladder(ctx):
    """Index, centralizer dimension, and base degree along the tower."""
    from . import cyclic_algebra, m_invariant

    rows_seen = 0
    for p in (2, 3, 5):
        for n in range(1, 6):
            rows = cyclic_algebra.index_ladder(p, n)
            _expect(len(rows) == n)
            for row in rows:
                i = row.i
                _expect(row.index == p ** (n - i + 1))
                _expect(row.centralizer_dim == p ** (2 * (n - i + 1)))
                _expect(row.base_degree == p ** (i - 1))
                _expect(row.centralizer_dim * row.base_degree**2 == p ** (2 * n))
                _expect(row.m == n - i)
                _expect(m_invariant.index_bound_check(row.m, row.index, p))
                rows_seen += 1
    return f"{rows_seen} ladder rows satisfy every identity"


def _check_algebra_arithmetic(ctx):
    """Associativity, split certificates, and norm round trips."""
    from . import cyclic_algebra

    rng = ctx.rng("algebra")
    certs = 0
    for l, d, r in ((3, 1, 2), (2, 1, 3), (5, 1, 2)):
        tower = cyclic_algebra.FiniteFieldTower(l, d, r)
        units = [e for e in tower.base_elements() if e != 0]
        span = tower.field.order
        for _ in range(500):
            b = rng.choice(units)
            x, y, z = (
                cyclic_algebra.algebra_element(
                    tower, b, [rng.randrange(span) for _ in range(r)]
                )
                for _ in range(3)
            )
            left = cyclic_algebra.ca_mul(cyclic_algebra.ca_mul(x, y), z)
            right = cyclic_algebra.ca_mul(x, cyclic_algebra.ca_mul(y, z))
            _expect(left == right)
        for _ in range(20):
            b = rng.choice(units)
            cert = cyclic_algebra.split_certificate(tower, b)
            _expect(tower.norm(cert.w) == b)
            certs += 1
        for _ in range(10):
            b = rng.choice(units)
            w = cyclic_algebra.solve_norm(tower, b)
            _expect(tower.norm(w) == b)
    return f"1500 associativity triples, {certs} zero-divisor certificates"


_HILBERT_PRIMES = (2, 3, 5, 7, 11, 13)


def _random_rational(rng):
    """A random nonzero rational over _HILBERT_PRIMES, each prime taken with
    probability 0.4 to a power in {-2, -1, 1, 2}, then negated with
    probability 1/2. Returns (value, primes used); every prime used has a
    nonzero exponent, so it divides the numerator or the denominator."""
    num = den = 1
    used = []
    for q in _HILBERT_PRIMES:
        if rng.random() < 0.4:
            e = rng.choice((-2, -1, 1, 2))
            if e > 0:
                num *= q**e
            else:
                den *= q**-e
            used.append(q)
    if rng.random() < 0.5:
        num = -num
    return Fraction(num, den), used


def _check_hilbert_properties(ctx):
    """Symmetry, bilinearity, (a, -a) = 1, and the product formula."""
    from . import padic

    hilbert = padic.hilbert_symbol
    rng = ctx.rng("hilbert")
    pairs = 0
    for _ in range(1000):
        (x, px), (y, py), (z, pz) = (_random_rational(rng) for _ in range(3))
        places = {padic.INFINITE_PLACE, 2, *px, *py, *pz}
        xz, neg_x = x * z, -x
        for v in places:
            sxy = hilbert(x, y, v)
            _expect(sxy == hilbert(y, x, v))
            _expect(hilbert(xz, y, v) == sxy * hilbert(z, y, v))
            _expect(hilbert(x, neg_x, v) == 1)
        report = padic.quaternion_splits_Q(x, y)
        _expect(report.splits == all(s == 1 for _, s in report.symbols))
        pairs += 1
    return f"{pairs} random pairs satisfy all four properties"


CHECKS = (
    ("c01", "m-invariant-quartic-17", _check_quartic_seventeen),
    ("c02", "m-invariant-dirichlet-residue", _check_dirichlet_residue),
    ("c03", "m-invariant-kummer-norm", _check_kummer_norm),
    ("c04", "m-invariant-realization-sweep", _check_realization_sweep),
    ("c05", "cocycle-carrying-suite", _check_cocycle_suite),
    ("c06", "classifier-roundtrip-oracle", _check_classifier),
    ("c07", "ufd-unit-norms", _check_unit_norms),
    ("c08", "ladder-index-centralizer", _check_index_ladder),
    ("c09", "algebra-arithmetic-certificates", _check_algebra_arithmetic),
    ("c10", "hilbert-symbol-properties", _check_hilbert_properties),
)


def run_checks(only=None, seed=0):
    """Run the registered checks, optionally filtered by id or name prefix."""
    ctx = _Context(seed)
    records = []
    for check_id, name, fn in sorted(CHECKS, key=lambda c: c[0]):
        if only and not (check_id.startswith(only) or name.startswith(only)):
            continue
        start = time.perf_counter()
        trace = None
        try:
            detail = fn(ctx)
            passed = True
        except Exception as err:
            import traceback

            detail = f"{type(err).__name__}: {err}"
            passed = False
            trace = traceback.format_exc()
        seconds = time.perf_counter() - start
        records.append(CheckRecord(check_id, name, passed, detail, seconds, trace))
    return VerificationReport(ctx.seed, tuple(records))
