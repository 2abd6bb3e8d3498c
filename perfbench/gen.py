"""Seeded inputs and expected answers for the benchmark workloads.

Stdlib only: nothing here imports normtower, so the program under test
never helps make its own inputs. Every op is a CLI argument vector plus
the answer the oracle expects. Files an op reads (module and spec JSON)
are kept as text and written out by the runner.

The seed varies the inputs; a fixed per-workload schedule fixes how much
work each op slot does, so that runs with different seeds stay comparable.
Each pass of a run gets its own inputs from that schedule (see make_ops),
so no pass repeats the inputs of an earlier one.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

# the workloads BENCHMARK.json lists
WORKLOADS = ("modules-sparse", "modules-dense", "towers-algebra")
# and `registry`: the whole verify-paper suite as one 20-30 s op, run on
# demand and by `run.py --workload all`. One op cannot be timed steadily
# on a host whose speed drifts within it (see run.py), so the benchmark's
# own workloads split its work: c06's sparse decompose path is
# modules-sparse, and the other nine checks are ops of towers-algebra.
ALL_WORKLOADS = WORKLOADS + ("registry",)


@dataclass
class Op:
    """One CLI call. `argv` may name files by key of `files`; the runner
    substitutes their on-disk paths."""

    kind: str
    argv: list
    expect: dict
    files: dict = field(default_factory=dict)
    heavy: bool = False


# ---------------------------------------------------------------------------
# arithmetic helpers (independent of the program)
# ---------------------------------------------------------------------------


def modinv(a, p):
    """Inverse of a modulo p by the extended Euclidean algorithm."""
    r0, r1, s0, s1 = a % p, p, 1, 0
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r0 != 1:
        raise ValueError(f"{a} is not invertible mod {p}")
    return s0 % p


def is_prime_td(n):
    """Primality by trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def valuation(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def dirichlet_primes(p, n, lo, hi):
    """Primes q in [lo, hi] with q = 1 + p^n mod p^(n+1), ascending."""
    step = p ** (n + 1)
    q = 1 + p**n
    if q < lo:
        q += (lo - q + step - 1) // step * step
    out = []
    while q <= hi:
        if is_prime_td(q):
            out.append(q)
        q += step
    return out


def first_dirichlet_prime(p, n):
    """The smallest prime q = 1 + p^n mod p^(n+1), scanning candidates in order."""
    q, step = 1 + p**n, p ** (n + 1)
    while not is_prime_td(q):
        q += step
    return q


def hilbert_symbol(a, b, place):
    """(a, b) at a place of Q for nonzero Fractions, by Serre's formulas."""
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    p = place

    def split(x):
        num, den = x.numerator, x.denominator
        alpha = valuation(abs(num), p) - valuation(den, p)
        num //= p ** valuation(abs(num), p)
        den //= p ** valuation(den, p)
        return alpha, num * modinv(den, 8 if p == 2 else p)

    alpha, u = split(a)
    beta, v = split(b)
    if p == 2:
        u, v = u % 8, v % 8
        eps_u, eps_v = (u - 1) // 2, (v - 1) // 2
        omega_u, omega_v = (u * u - 1) // 8, (v * v - 1) // 8
        return -1 if (eps_u * eps_v + alpha * omega_v + beta * omega_u) % 2 else 1

    def legendre(w):
        return 1 if pow(w % p, (p - 1) // 2, p) == 1 else -1

    sign = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    if beta % 2:
        sign *= legendre(u)
    if alpha % 2:
        sign *= legendre(v)
    return sign


def prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# modules: block-diagonal assembly and conjugation
# ---------------------------------------------------------------------------


def block_diagonal(p, blocks):
    """Rows of a block-diagonal matrix; each block is a list of rows mod p."""
    dim = sum(len(b) for b in blocks)
    rows = [[0] * dim for _ in range(dim)]
    at = 0
    for blk in blocks:
        for i, brow in enumerate(blk):
            rows[at + i][at : at + len(brow)] = [x % p for x in brow]
        at += len(blk)
    return rows


def jordan_block(size):
    """The unipotent Jordan block: 1 on the diagonal and the superdiagonal."""
    return [[1 if j in (i, i + 1) else 0 for j in range(size)] for i in range(size)]


def conjugate(rows, p, rng, rounds=4):
    """q^-1 * rows * q for a random invertible q, in place.

    q is a product of random diagonal scalings and transvections
    I + c e_i e_j^T. Each factor and its inverse act in O(dim) on the
    matrix, and `rounds` sweeps over every column fill it densely.
    """
    dim = len(rows)
    for i in range(dim):
        c = rng.randrange(1, p)
        ci = modinv(c, p)
        rows[i] = [x * ci % p for x in rows[i]]  # row i / c
        for r in rows:  # column i * c
            r[i] = r[i] * c % p
    for _ in range(rounds):
        for j in range(dim):
            i = rng.randrange(dim - 1)
            i += i >= j
            c = rng.randrange(1, p)
            for r in rows:  # column j += c * column i
                r[j] = (r[j] + c * r[i]) % p
            rj, ri = rows[j], rows[i]
            rows[i] = [(a - c * b) % p for a, b in zip(ri, rj)]  # row i -= c * row j
    return rows


def valid_block_sizes(p, n):
    """(free sizes p^i, exceptional sizes p^m + 1 keyed by m)."""
    free = [p**i for i in range(n + 1)]
    exc = {}
    for m in range(n):
        s = p**m + 1
        t = s
        while t % p == 0:
            t //= p
        if t != 1:
            exc[m] = s
    return free, exc


def random_shape(rng, p, n, dim, cap, budget):
    """Block sizes of a valid shape (free blocks plus at most one exceptional
    block p^m + 1) with total `dim`, no block above `cap`, and rank-sequence
    work (see rank_work) at most about `budget`."""
    free, exc = valid_block_sizes(p, n)
    sizes = []
    m = None
    options = [k for k, s in exc.items() if s <= min(cap, dim)]
    if options and rng.random() < 0.5:
        m = rng.choice(options)
        sizes.append(exc[m])
    left = dim - sum(sizes)
    budget -= rank_work(sizes)
    while left:
        s = rng.choice(
            [s for s in free if s <= min(left, cap) and (s == 1 or s * (s - 1) // 2 <= budget)]
        )
        sizes.append(s)
        left -= s
        budget -= s * (s - 1) // 2
    sizes.sort(reverse=True)
    return sizes, m


def rank_work(sizes):
    """Sum over k >= 1 of rank(N^k): the mat-vec count of the rank sequence."""
    return sum(s * (s - 1) // 2 for s in sizes)


# (p, n) per slot cycles through these; n is the largest one with p^n <= 49
MODULE_PRIMES = ((2, 5), (3, 3), (5, 2), (7, 2))
MODULE_SLOTS = 100
MODULE_DIM_RANGE = (16, 160)
# each slot's rank-sequence work is held near this share of its dimension
MODULE_WORK_PER_DIM = 1.25
MODULE_REJECT_EVERY = 10
# slots from here to the last but one hold modules of about equal cost
# (about 0.07 s on the pure backend), so that op_p90_ms falls in the middle
# of 19 like readings, not on a steep rise where one slot's reading decides
# it; p = 2 and 3 run faster at one dimension, so they get larger ones
MODULE_PLATEAU = 80
PLATEAU_DIM = {2: 104, 3: 100, 5: 94, 7: 98}


def module_slot(i):
    """(p, n, dim) of slot i. Below the plateau, dimensions rise from the
    bottom of the range, densest there, so that a pass is short enough to
    be repeated several times in a run; the last slot is the largest."""
    lo, hi = MODULE_DIM_RANGE
    p, n = MODULE_PRIMES[i % len(MODULE_PRIMES)]
    if i == MODULE_SLOTS - 1:
        return p, n, hi
    if i >= MODULE_PLATEAU:
        return p, n, PLATEAU_DIM[p]
    return p, n, round(lo * (hi / lo) ** ((i / (MODULE_SLOTS - 1)) ** 1.5))


def _shape_near_target(rng, p, n, dim, cap, extra=0):
    """A random shape whose rank-sequence work is closest to the slot target
    among a few draws, so that a slot costs about the same for every seed."""
    target = MODULE_WORK_PER_DIM * dim
    best = None
    for _ in range(24):
        sizes, m = random_shape(rng, p, n, dim - extra, cap, target)
        gap = abs(rank_work(sizes) - target)
        if best is None or gap < best[0]:
            best = (gap, sizes, m)
    return best[1], best[2]


def module_ops(rng, dense):
    """decompose on one module per slot: the block-diagonal matrix of a
    shape, conjugated by a random invertible matrix if `dense`."""
    ops = []
    for i in range(MODULE_SLOTS):
        p, n, dim = module_slot(i)
        cap = p**n
        reject = i % MODULE_REJECT_EVERY == MODULE_REJECT_EVERY - 1
        blocks = []
        if reject and (i // MODULE_REJECT_EVERY) % 2 == 0:
            # an eigenvalue other than 1: sigma has order prime to p
            bad = [[0, 1], [1, 1]] if p == 2 else [[rng.randrange(2, p)]]
            sizes, _ = _shape_near_target(rng, p, n, dim, cap, extra=len(bad))
            blocks.append(bad)
            expect = {"exit": 2, "error": "OrderViolation"}
        elif reject:
            # one Jordan block longer than p^n: sigma has order p^(n+1)
            # (at a smaller n if needed, to keep the slot's work on target)
            target = MODULE_WORK_PER_DIM * dim
            while n > 1 and (cap + 1 > dim or cap * (cap + 1) // 2 > target):
                n -= 1
                cap = p**n
            long = cap + 1
            sizes, _ = _shape_near_target(rng, p, n, dim, cap, extra=long)
            sizes = sorted(sizes + [long], reverse=True)
            expect = {"exit": 2, "error": "OrderViolation"}
        else:
            sizes, m = _shape_near_target(rng, p, n, dim, cap)
            free, _ = valid_block_sizes(p, n)
            expect = {
                "exit": 0,
                "p": p,
                "n": n,
                "dim": dim,
                "profile": sizes,
                "free_ranks": [sizes.count(s) for s in free],
                "exceptional": m,
                "m": "undetermined" if m is None else str(m),
            }
        blocks += [jordan_block(s) for s in sizes]
        rng.shuffle(blocks)
        sigma = block_diagonal(p, blocks)
        if dense:
            conjugate(sigma, p, rng)
        text = json.dumps({"p": p, "n": n, "sigma": sigma}, separators=(",", ":"))
        ops.append(
            Op(
                "decompose",
                ["decompose", "@module", "--format", "json"],
                expect,
                files={"module": text},
            )
        )
    return ops


# ---------------------------------------------------------------------------
# towers and algebra
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7)


def _spec_op(spec, expect, heavy=False):
    text = json.dumps(spec, sort_keys=True)
    return Op(
        "m-compute:" + spec["variant"],
        ["m-compute", "--spec", "@spec", "--format", "json"],
        dict(expect, spec=spec),
        files={"spec": text},
        heavy=heavy,
    )


def _brauer_rowen(rng):
    p, n = rng.choice(PRIMES), rng.randint(1, 5)
    t = rng.randrange(n)
    return _spec_op({"variant": "brauer_rowen", "p": p, "n": n, "t": t}, {"exit": 0, "m": str(t)})


def _local_kummer(rng):
    p, n = rng.choice(PRIMES), rng.randint(1, 4)
    l = rng.choice([q for q in range(2, 60) if is_prime_td(q)])
    return _spec_op({"variant": "local_kummer", "p": p, "n": n, "l": l}, {"exit": 0, "m": "-inf"})


def _local_cyclotomic(rng, lo, hi, pn=None, heavy=False):
    """A Dirichlet prime q in [lo, hi]; the residue test then fails, so m = 0.
    (p, n) is `pn` if given, else random."""
    while True:
        p, n = pn or (rng.choice(PRIMES), rng.randint(1, 3))
        step = p ** (n + 1)
        start = rng.randrange(lo, hi)
        qs = dirichlet_primes(p, n, start, min(hi, start + 40 * step))
        if qs:
            spec = {"variant": "local_cyclotomic", "p": p, "n": n, "q": qs[0]}
            return _spec_op(spec, {"exit": 0, "m": "0"}, heavy=heavy)


def _function_field(rng, admissible=True):
    p, n = rng.choice(PRIMES), rng.randint(1, 4)
    if not admissible:
        # no p-th root of unity in the constants: m is undefined, exit 2
        base = {"kind": "finite_field", "order": p ** rng.randint(1, 3)}
        spec = {"variant": "function_field", "p": p, "n": n, "base": base}
        return _spec_op(spec, {"exit": 2, "error": "InadmissibleSpec"})
    if rng.random() < 0.5:
        s = rng.randint(1, n + 2)
        cofactor = rng.choice([1, 3, 5, 7, 9, 11, 13])
        while cofactor % p == 0:
            cofactor += 2
        if p == 2 and s == 1:
            s = 2  # a conductor 2 mod 4 names the same field as its odd half
        conductor = p**s * cofactor
        base = {"kind": "cyclotomic", "conductor": conductor}
    else:
        while True:
            ell = rng.choice([q for q in range(3, 400) if is_prime_td(q)])
            order = ell ** rng.randint(1, 2)
            if order % p and (order - 1) % p == 0:
                break
        s = valuation(order - 1, p)
        base = {"kind": "finite_field", "order": order}
    m = "-inf" if s > n else str(n - s)
    spec = {"variant": "function_field", "p": p, "n": n, "base": base}
    return _spec_op(spec, {"exit": 0, "m": m})


def _biquadratic(rng):
    c = 4 * rng.randint(1, 2000)
    return _spec_op({"variant": "biquadratic", "a": 1 + c * c, "d": -1}, {"exit": 0, "m": "1"})


def _find_prime(rng, past_limit=False):
    while True:
        p, n = rng.choice(PRIMES), rng.randint(1, 6)
        if p**n > 10**5:
            continue
        q = first_dirichlet_prime(p, n)
        if q > 10**6:  # beyond the program's default search limit
            continue
        if past_limit:
            if q == 1 + p**n:
                continue
            argv = ["find-prime", "--p", str(p), "--n", str(n), "--limit", str(q - 1)]
            return Op("find-prime", argv + ["--format", "json"], {"exit": 2, "error": "NotFoundBelowLimit"})
        argv = ["find-prime", "--p", str(p), "--n", str(n), "--format", "json"]
        return Op("find-prime", argv, {"exit": 0, "p": p, "n": n, "q": q})


def _rational(rng):
    value = Fraction(1)
    for q in (2, 3, 5, 7, 11, 13, 17):
        if rng.random() < 0.4:
            value *= Fraction(q) ** rng.choice((-2, -1, 1, 2))
    return -value if rng.random() < 0.5 else value


def _hilbert(rng, all_places):
    a, b = _rational(rng), _rational(rng)
    primes = {2}
    for x in (a, b):
        primes.update(prime_divisors(abs(x.numerator) * x.denominator))
    argv = ["hilbert", f"--a={a}", f"--b={b}"]
    if all_places:
        places = ["inf"] + sorted(primes)
        symbols = [[str(v), hilbert_symbol(a, b, v)] for v in places]
        expect = {
            "exit": 0,
            "a": str(a),
            "b": str(b),
            "symbols": symbols,
            "ramified": [v for v, s in symbols if s == -1],
            "splits": all(s == 1 for _, s in symbols),
        }
        return Op("hilbert:all", argv + ["--place", "all", "--format", "json"], expect)
    place = rng.choice(["inf"] + sorted(primes) + [rng.choice((19, 23, 29))])
    expect = {"exit": 0, "a": str(a), "b": str(b), "place": str(place), "symbol": hilbert_symbol(a, b, place)}
    return Op("hilbert:place", argv + ["--place", str(place), "--format", "json"], expect)


# (a, r) of the heavy cocycle-check slots, a*r = 399-400, about 0.13 s each
HEAVY_CARRY = ((20, 20), (16, 25), (10, 40), (19, 21), (20, 20), (16, 25))


def _cocycle(rng, ar=None):
    """Carrying cocycles on Z/r with values in Z/a, b | a: (a, r) = `ar`
    for a heavy slot, else random with a*r <= 60."""
    if ar:
        a, r = ar
    else:
        a = rng.randint(2, 30)
        r = rng.randint(1, 60 // a)
    b = rng.choice([d for d in range(1, a + 1) if a % d == 0])
    # the class invariant: the column c(i, 1) of the block-carry cocycle
    # summed mod gcd(a, r)
    g = math.gcd(a, r)
    invariant = sum(((i + 1) // b - i // b - 1 // b) % r for i in range(a)) % g if g > 1 else 0
    expect = {
        "exit": 0,
        "a": a,
        "b": b,
        "r": r,
        "q": a // b,
        "cocycle_block": True,
        "cocycle_scaled": True,
        "invariant": invariant,
        "isomorphic": True,
        "group_abelian": True,
        "group_order": a * r,
    }
    argv = ["cocycle-check", "--a", str(a), "--b", str(b), "--r", str(r), "--format", "json"]
    return Op("cocycle-check", argv, expect, heavy=bool(ar))


# (l, d, r) towers, one per slot: the light ones answer in a few ms; the
# heavy ones, about 0.15 s each, enumerate the norm kernel of a 256-1024
# element field (the first one fills a fifth heavy slot)
ALGEBRA_LIGHT = ((2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3), (7, 1, 2))
ALGEBRA_HEAVY = ((5, 1, 4), (3, 2, 3), (2, 5, 2), (2, 1, 8), (5, 1, 4))


def _algebra(rng, tower):
    l, d, r = tower
    heavy = tower in ALGEBRA_HEAVY
    b = rng.randrange(1, l)
    expect = {"exit": 0, "l": l, "d": d, "r": r, "b": b, "field_order": l ** (d * r)}
    argv = ["algebra", "--l", str(l), "--d", str(d), "--r", str(r), "--b", str(b), "--format", "json"]
    return Op("algebra", argv, expect, heavy=heavy)


# (l, n, deg, g) scans, one per slot: light ones have at most 63 monic
# representatives, heavy ones 1,023-19,608 and take about 0.12-0.16 s each
UFD_LIGHT = ((3, 2, 1, 2), (5, 2, 1, 2), (2, 2, 2, 2), (3, 3, 1, 3), (7, 1, 1, 1))
UFD_HEAVY = ((5, 2, 2, 2), (7, 2, 1, 4), (7, 1, 2, 2), (2, 3, 2, 3))
# each passes one search-space guard: field size, group order, degree, count
UFD_PAST_GUARD = ((11, 2, 1, 2), (3, 4, 1, 4), (3, 2, 3, 2), (3, 2, 2, 4), (2, 2, 2, 6))


def _ufd_argv(l, n, deg, g):
    return ["ufd-check", "--l", str(l), "--n", str(n), "--deg", str(deg), "--g", str(g), "--format", "json"]


def _ufd_past_guard(rng):
    argv = _ufd_argv(*rng.choice(UFD_PAST_GUARD))
    return Op("ufd-check", argv, {"exit": 2, "error": "SearchSpaceTooLarge"})


def _ufd(scan):
    l, n, deg, g = scan
    monomials = math.comb(g + deg, deg)
    powers = sorted({pow(c, n, l) for c in range(1, l)})
    expect = {
        "exit": 0,
        "l": l,
        "n": n,
        "g": g,
        "deg_bound": deg,
        "unit_norms": powers,
        "nth_powers": powers,
        "consistent": True,
        "representatives": (l**monomials - 1) // (l - 1),
    }
    return Op("ufd-check", _ufd_argv(*scan), expect, heavy=scan in UFD_HEAVY)


# verify-paper checks run one per op; c06 (the classifier round trips) runs
# 20-27 s in one call and is left to `registry` and to modules-sparse, whose
# decompose ops take its path. The three that take 0.3-0.9 s count as heavy.
VERIFY_CHECKS = ("c01", "c02", "c03", "c04", "c05", "c07", "c08", "c09", "c10")
VERIFY_HEAVY = ("c05", "c09", "c10")


def _verify_check(rng, cid):
    argv = ["verify-paper", "--format", "json", "--seed", str(rng.randrange(2**31)), "--only", cid]
    return Op("verify-paper", argv, {"exit": 0, "checks": [cid]}, heavy=cid in VERIFY_HEAVY)


# (p, n) of the heavy local_cyclotomic slots, fixed: the exhaustive residue
# test holds (q - 1) / p^n powers in a set, which sets the peak memory
HEAVY_CYCLOTOMIC = ((2, 1), (3, 1), (5, 1), (2, 2), (7, 1))


def tower_ops(rng):
    """86 light ops of a few ms, 20 heavy ones of about 0.1-0.3 s and three
    verify-paper checks of 0.3-0.9 s."""
    makers = (
        [_brauer_rowen] * 6
        + [_local_kummer] * 6
        + [lambda r: _local_cyclotomic(r, 3, 2000)] * 3
        + [lambda r: _local_cyclotomic(r, 200001, 400000)] * 3
        + [_function_field] * 5
        + [lambda r: _function_field(r, admissible=False)]
        + [_biquadratic] * 6
        + [_find_prime] * 9
        + [lambda r: _find_prime(r, past_limit=True)] * 3
        + [lambda r: _hilbert(r, False)] * 8
        + [lambda r: _hilbert(r, True)] * 8
        + [_cocycle] * 8
        + [lambda r, t=t: _algebra(r, t) for t in ALGEBRA_LIGHT]
        + [lambda r, s=s: _ufd(s) for s in UFD_LIGHT]
        + [_ufd_past_guard] * 3
        # heavy: just under the exhaustive residue bound, large carry groups,
        # norm-kernel enumeration, thousands of UFD representatives
        + [lambda r, pn=pn: _local_cyclotomic(r, 190000, 200000, pn, heavy=True) for pn in HEAVY_CYCLOTOMIC]
        + [lambda r, ar=ar: _cocycle(r, ar) for ar in HEAVY_CARRY]
        + [lambda r, t=t: _algebra(r, t) for t in ALGEBRA_HEAVY]
        + [lambda r, s=s: _ufd(s) for s in UFD_HEAVY]
        + [lambda r, c=c: _verify_check(r, c) for c in VERIFY_CHECKS]
    )
    # one fixed order, so that a slot holds the same kind of op in every
    # pass and for every seed
    random.Random("towers-algebra").shuffle(makers)
    return [make(rng) for make in makers]


def registry_ops(seed):
    argv = ["verify-paper", "--format", "json", "--seed", str(seed)]
    return [Op("verify-paper", argv, {"exit": 0, "checks": [f"c{i:02d}" for i in range(1, 11)]})]


def make_ops(workload, seed, pass_index=0):
    """The op list of one pass. Pass 0 of `registry` runs the registry with
    the run's own seed, as a user would; every other pass and workload draws
    its inputs from a generator seeded by (workload, seed, pass_index)."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "registry":
        return registry_ops(seed if pass_index == 0 else rng.randrange(2**31))
    if workload in ("modules-sparse", "modules-dense"):
        return module_ops(rng, dense=workload == "modules-dense")
    if workload == "towers-algebra":
        return tower_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def inputs_hash(ops):
    """sha256 over every op's arguments, expectation and file contents."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.argv, op.expect, op.files], sort_keys=True).encode())
    return h.hexdigest()
