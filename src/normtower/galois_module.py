"""Modules over F_p[G] for G cyclic of order p^n, and their block structure.

A module is a matrix sigma of p-power order acting on F_p^d. Indecomposable
summands are Jordan blocks of the unipotent part, so the isomorphism type is
the multiset of block sizes, read off the rank sequence of N = sigma - I.

Such a module splits as a sum of free pieces F_p[G/H] (dimension a power of
p) plus at most one exceptional summand of dimension p^m + 1 with m < n; the
integer m there is the value the norm-ladder invariant must take. A shape
records the free multiplicities y_0..y_n and the optional exceptional m.
"""

import itertools
import random
from dataclasses import dataclass

from . import _kernels, fp_linalg
from .errors import (
    InternalCheckError,
    InvalidShape,
    NotRealizable,
    OrderViolation,
    SearchSpaceTooLarge,
)
from .fp_linalg import FpMatrix
from .mvalue import UNDETERMINED
from .numtheory import is_prime, shown


class GModule:
    """A matrix sigma in GL_d(F_p) with sigma^(p^n) = 1."""

    __slots__ = ("p", "n", "sigma", "_ranks")

    def __init__(self, p, n, sigma):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("n must be >= 1")
        if sigma.rows != sigma.cols:
            raise ValueError("sigma must be square")
        if sigma.p != p:
            raise ValueError("sigma modulus differs from p")
        self.p = p
        self.n = n
        self.sigma = sigma
        try:
            self._ranks = _kernels.nilpotent_rank_sequence(_nilpotent_part(sigma), sigma.rows, p)
        except ValueError:
            raise OrderViolation(
                "sigma - 1 is not nilpotent; the order is not a power of p"
            ) from None
        if len(self._ranks) - 1 > p**n:
            raise OrderViolation(f"sigma has order > p^n = {p**n}")

    @property
    def dim(self):
        return self.sigma.rows

    def __repr__(self):
        return f"GModule(p={self.p}, n={self.n}, dim={self.dim})"


def _nilpotent_part(sigma):
    """The flat entries of N = sigma - 1, each in [0, p) like sigma's."""
    d, nil = sigma.rows, list(sigma.entries)
    for i in range(0, d * d, d + 1):
        nil[i] = (nil[i] - 1) % sigma.p
    return nil


@dataclass(frozen=True)
class JordanProfile:
    """Multiset of block sizes, largest first."""

    sizes: tuple

    @property
    def total(self):
        return sum(self.sizes)


@dataclass(frozen=True)
class DecompositionShape:
    """Free multiplicities y_i of blocks of size p^i, plus optional exceptional m."""

    p: int
    n: int
    free_ranks: tuple
    exceptional: object = None

    def __post_init__(self):
        p, n = self.p, self.n
        if n > MAX_N:
            raise ValueError(f"n must be at most {MAX_N}, got {n}")
        if not is_prime(p) or n < 1:
            raise InvalidShape("p must be prime and n >= 1")
        if len(self.free_ranks) != n + 1:
            raise InvalidShape(f"free_ranks needs exactly {n + 1} entries")
        if any(not isinstance(y, int) or y < 0 for y in self.free_ranks):
            raise InvalidShape("free ranks must be non-negative integers")
        m = self.exceptional
        if m is not None:
            if not isinstance(m, int) or not 0 <= m < n:
                raise InvalidShape(f"exceptional m must satisfy 0 <= m < n, got {m!r}")
            if _power_exponent(p**m + 1, p) is not None:
                raise InvalidShape(
                    f"dimension p^{m}+1 = {p ** m + 1} is a power of {p}; "
                    "such a summand is free, not exceptional"
                )
        if self.total_dim < 1:
            raise InvalidShape("shape has total dimension 0")

    @property
    def exceptional_dim(self):
        if self.exceptional is None:
            return None
        return self.p**self.exceptional + 1

    @property
    def total_dim(self):
        d = sum(y * self.p**i for i, y in enumerate(self.free_ranks))
        if self.exceptional is not None:
            d += self.p**self.exceptional + 1
        return d

    def block_sizes(self):
        sizes = []
        for i, y in enumerate(self.free_ranks):
            sizes.extend([self.p**i] * y)
        if self.exceptional is not None:
            sizes.append(self.exceptional_dim)
        return tuple(sorted(sizes, reverse=True))


def _power_exponent(value, p):
    """i with value == p^i, else None."""
    i = 0
    while value > 1 and value % p == 0:
        value //= p
        i += 1
    return i if value == 1 else None


# ---------------------------------------------------------------------------
# profile extraction and classification
# ---------------------------------------------------------------------------


def jordan_profile(mod):
    """Block-size multiset from the rank sequence of N = sigma - 1.

    With r_k = rank(N^k), the number of blocks of size k is
    r_(k-1) - 2 r_k + r_(k+1).
    """
    r = list(mod._ranks)
    longest = len(r) - 1  # r[longest] == 0
    r.append(0)
    sizes = []
    for k in range(1, longest + 1):
        count = r[k - 1] - 2 * r[k] + r[k + 1]
        if count < 0:
            raise InternalCheckError(f"negative block count at size {k}")
        sizes.extend([k] * count)
    sizes.sort(reverse=True)
    prof = JordanProfile(tuple(sizes))
    if prof.total != mod.dim:
        raise InternalCheckError(
            f"block sizes sum to {prof.total}, dimension is {mod.dim}"
        )
    return prof


def classify_profile(profile, p, n):
    """Interpret a profile as free blocks plus at most one exceptional summand.

    Every size that is a power of p is a free block, including size 2 at
    p = 2. A non-power size must equal p^m + 1 for a single m < n, at most
    once; anything else is not realizable in this module category.
    """
    free = [0] * (n + 1)
    exceptional = None
    for size in profile.sizes:
        if size > p**n:
            raise NotRealizable(f"block size {size} exceeds p^n = {p ** n}")
        i = _power_exponent(size, p)
        if i is not None:
            free[i] += 1
            continue
        m = _power_exponent(size - 1, p)
        if m is None or not 0 <= m < n:
            raise NotRealizable(f"block size {size} is neither p^i nor p^m + 1, m < n")
        if exceptional is not None:
            raise NotRealizable("more than one exceptional block size")
        exceptional = m
    return DecompositionShape(p, n, tuple(free), exceptional)


def m_from_shape(shape):
    """The invariant forced by the shape: m of the exceptional summand, if any."""
    if shape.exceptional is None:
        return UNDETERMINED
    return shape.exceptional


def decompose(mod):
    """Profile and shape of a module in one step."""
    prof = jordan_profile(mod)
    return prof, classify_profile(prof, mod.p, mod.n)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def _jordan_block(p, size):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = 1
        if i + 1 < size:
            rows[i][i + 1] = 1
    return rows


def _block_diagonal(p, sizes):
    dim = sum(sizes)
    rows = [[0] * dim for _ in range(dim)]
    at = 0
    for s in sizes:
        blk = _jordan_block(p, s)
        for i in range(s):
            rows[at + i][at : at + s] = blk[i]
        at += s
    return FpMatrix.from_rows(p, rows)


# largest module synthesize builds or a module file may give; c06 and the
# tests build at most 90, and the rank sequence of one Jordan block takes
# 0.4-0.5 s at 512 and 2.0-2.8 s at 1,024 (2-CPU VM, Python 3.11)
MAX_DIM = 512


def synthesize(shape):
    """A canonical module realizing the shape: block diagonal, sizes descending.

    Raises SearchSpaceTooLarge past MAX_DIM, before anything is allocated.
    """
    dim = shape.total_dim
    if dim > MAX_DIM:
        raise SearchSpaceTooLarge(
            f"dimension {shown(dim, f'of {dim.bit_length()} bits')} > {MAX_DIM}"
        )
    sizes = shape.block_sizes()
    return GModule(shape.p, shape.n, _block_diagonal(shape.p, sizes))


def module_from_profile(p, n, sizes):
    """Block-diagonal module with the given block sizes (any partition, parts <= p^n)."""
    if any(s < 1 or s > p**n for s in sizes):
        raise ValueError("block sizes must lie in 1..p^n")
    return GModule(p, n, _block_diagonal(p, sorted(sizes, reverse=True)))


def conjugate(mod, q):
    """The same module in a new basis: sigma -> q^-1 sigma q."""
    qinv = fp_linalg.inverse(q)
    sigma = fp_linalg.mat_mul(fp_linalg.mat_mul(qinv, mod.sigma), q)
    return GModule(mod.p, mod.n, sigma)


def random_gmodule(p, n, dim, seed=0):
    """Random block-diagonal module conjugated by a random invertible matrix."""
    rng = random.Random(seed)
    parts = []
    left = dim
    while left:
        k = rng.randint(1, min(p**n, left))
        parts.append(k)
        left -= k
    base = module_from_profile(p, n, parts)
    q = fp_linalg.random_invertible(p, dim, rng)
    return conjugate(base, q)


def enumerate_shapes(p, n, max_dim):
    """All valid shapes with 1 <= total_dim <= max_dim, deterministic order."""
    exc_options = [None]
    for m in range(n):
        if _power_exponent(p**m + 1, p) is None and p**m + 1 <= max_dim:
            exc_options.append(m)
    shapes = []
    for exc in exc_options:
        base = 0 if exc is None else p**exc + 1
        ceilings = [(max_dim - base) // p**i for i in range(n + 1)]
        for ranks in itertools.product(*(range(c + 1) for c in ceilings)):
            total = base + sum(y * p**i for i, y in enumerate(ranks))
            if 1 <= total <= max_dim:
                shapes.append(DecompositionShape(p, n, ranks, exc))
    return shapes


# ---------------------------------------------------------------------------
# independent oracle: exhaustive chain-basis search (small dimensions only)
# ---------------------------------------------------------------------------


_ORACLE_MAX_DIM = 6  # the search scans all p^dim vectors


def bruteforce_block_sizes(mod):
    """Block sizes by exhaustive search for a Jordan chain basis.

    Finds vectors v_1, v_2, ... of heights h_1 >= h_2 >= ... whose chains
    N^(h-1) v, ..., N v, v are jointly independent and exhaust the space,
    then certifies the answer by checking sigma Q = Q J on the assembled
    basis. Independent of the rank-sequence route.
    """
    p, d = mod.p, mod.dim
    if d > _ORACLE_MAX_DIM:
        raise SearchSpaceTooLarge(f"dimension {d} > {_ORACLE_MAX_DIM}")
    if p**d > 20000:
        raise SearchSpaceTooLarge(f"p^dim = {p ** d} vectors is too many")
    nil = _nilpotent_part(mod.sigma)
    nrows = [nil[i * d : (i + 1) * d] for i in range(d)]

    def napply(v):
        return tuple(sum(r[j] * v[j] for j in range(d)) % p for r in nrows)

    zero = (0,) * d
    by_height = {}
    for v in itertools.product(range(p), repeat=d):
        if v == zero:
            continue
        w, h = v, 0
        while w != zero:
            w = napply(w)
            h += 1
            if h > d:
                raise OrderViolation("sigma - 1 is not nilpotent")
        by_height.setdefault(h, []).append(v)

    def chain_of(v, h):
        chain = [v]
        for _ in range(h - 1):
            chain.append(napply(chain[-1]))
        chain.reverse()
        return chain

    def grow(span, w):
        added = set()
        for s in span:
            for c in range(1, p):
                added.add(tuple((a + c * b) % p for a, b in zip(s, w)))
        return span | added

    def search(remaining, span, chains, cap):
        if remaining == 0:
            return chains
        for h in range(min(cap, remaining), 0, -1):
            for v in by_height.get(h, ()):
                if v in span:
                    continue
                chain = chain_of(v, h)
                s, ok = span, True
                for w in chain:
                    if w in s:
                        ok = False
                        break
                    s = grow(s, w)
                if not ok:
                    continue
                found = search(remaining - h, s, chains + [chain], h)
                if found is not None:
                    return found
        return None

    chains = search(d, {zero}, [], d)
    if chains is None:
        raise InternalCheckError("no chain basis found; the module is corrupt")
    sizes = tuple(len(c) for c in chains)
    cols = [w for c in chains for w in c]
    q = FpMatrix.from_rows(p, [[cols[j][i] for j in range(d)] for i in range(d)])
    j = _block_diagonal(p, sizes)
    if not fp_linalg.is_invertible(q):
        raise InternalCheckError("chain basis is not invertible")
    if fp_linalg.mat_mul(mod.sigma, q) != fp_linalg.mat_mul(q, j):
        raise InternalCheckError("chain basis fails sigma Q = Q J")
    return sizes


# ---------------------------------------------------------------------------
# JSON file format used by the CLI
# ---------------------------------------------------------------------------


def module_to_json(mod):
    return {"p": mod.p, "n": mod.n, "sigma": mod.sigma.to_rows()}


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


def module_from_json(data):
    """The module a CLI JSON file describes. p and n must pass json_int, and
    sigma must be a non-empty square list of rows of JSON integers; anything
    else is a ValueError. A sigma of dimension above MAX_DIM raises
    SearchSpaceTooLarge before its entries are read."""
    if not isinstance(data, dict):
        raise ValueError("module JSON must be an object")
    p, n = json_int(data, "p", "module"), json_int(data, "n", "module")
    sigma = data.get("sigma")
    if not (
        isinstance(sigma, list)
        and sigma
        and all(isinstance(row, list) and len(row) == len(sigma) for row in sigma)
    ):
        raise ValueError("module JSON 'sigma' must be a non-empty square list of rows")
    d = len(sigma)
    if d > MAX_DIM:
        raise SearchSpaceTooLarge(f"dimension {d} > {MAX_DIM}")
    entries = list(itertools.chain.from_iterable(sigma))
    if list(map(type, entries)).count(int) != len(entries):
        raise ValueError("module JSON 'sigma' entries must be integers")
    return GModule(p, n, FpMatrix(p, d, d, entries))
