"""Modules over F_p[G] for G cyclic of order p^n, and their block structure.

A module is a matrix sigma of p-power order acting on F_p^d. Indecomposable
summands are Jordan blocks of the unipotent part, so the isomorphism type is
the multiset of block sizes, read off the rank sequence of N = sigma - I
(fp_linalg.unipotent_ranks); this module never reads sigma's buffer.

Such a module splits as a sum of free pieces F_p[G/H] (dimension a power of
p) plus at most one exceptional summand of dimension p^m + 1 with m < n; the
integer m there is the value the norm-ladder invariant must take. A shape
records the free multiplicities y_0..y_n and the optional exceptional m.

A module file is JSON. read_plain_module reads a plain one, whose sigma is
a square array of one-digit integers, straight into residue bytes with a
few bytes operations and no Python int per entry; it declines any other
text, which module_from_json reads after json.loads. Both give the same
module and raise the same errors on every text the first accepts.
"""

import itertools
import json
import math
import random
import re
from dataclasses import dataclass

from . import fp_linalg
from .errors import (
    InternalCheckError,
    InvalidShape,
    NonIntegerEntries,
    NotRealizable,
    OrderViolation,
    SearchSpaceTooLarge,
)
from .fp_linalg import FpMatrix
from .mvalue import UNDETERMINED
from .numtheory import MAX_N, is_prime, json_int, power_exponent, shown, whole


# largest module dimension, and so largest shape, module file and synthesize
# output; c06 and the tests build at most 90. At 512 over F_2 one Jordan block
# takes 0.3-0.6 s, a dense conjugate of it 58 s (README; ROADMAP item 2)
MAX_DIM = 512


def _within_max_dim(d):
    """d, or SearchSpaceTooLarge when it passes MAX_DIM."""
    if d > MAX_DIM:
        raise SearchSpaceTooLarge(f"dimension {shown(d, f'of {d.bit_length()} bits')} > {MAX_DIM}")
    return d


class GModule:
    """A matrix sigma in GL_d(F_p) with sigma^(p^n) = 1, n in 1..MAX_N and d at
    most MAX_DIM; a larger d raises SearchSpaceTooLarge before any rank is taken."""

    __slots__ = ("p", "n", "sigma", "_ranks")

    def __init__(self, p, n, sigma):
        # FpMatrix has proved sigma.p prime
        if sigma.p != whole(p, "p"):
            raise ValueError("sigma modulus differs from p")
        whole(n, "n", floor=1, ceiling=MAX_N)
        if sigma.rows != sigma.cols:
            raise ValueError("sigma must be square")
        _within_max_dim(sigma.rows)
        self.p = p
        self.n = n
        self.sigma = sigma
        try:
            self._ranks = fp_linalg.unipotent_ranks(sigma)
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


@dataclass(frozen=True)
class DecompositionShape:
    """Free multiplicities y_i of blocks of size p^i, plus optional exceptional m.
    A total dimension past MAX_DIM raises SearchSpaceTooLarge."""

    p: int
    n: int
    free_ranks: tuple
    exceptional: object = None

    def __post_init__(self):
        p, n = whole(self.p, "p"), whole(self.n, "n", ceiling=MAX_N)
        if n < 1 or p < 2:
            raise InvalidShape("p must be prime and n >= 1")
        if len(self.free_ranks) != n + 1:
            raise InvalidShape(f"free_ranks needs exactly {n + 1} entries")
        for i, y in enumerate(self.free_ranks):
            whole(y, f"free rank y_{i}", floor=0, error=InvalidShape)
        m = self.exceptional
        if m is not None:
            whole(m, "exceptional m", floor=0, ceiling=n - 1, error=InvalidShape)
            if m not in exceptional_range(p, n):
                raise InvalidShape(
                    f"dimension p^{m}+1 = {p ** m + 1} is a power of {p}; "
                    "such a summand is free, not exceptional"
                )
        dim = self.total_dim
        if dim < 1:
            raise InvalidShape("shape has total dimension 0")
        # before the primality test, which refuses a p it cannot prove prime
        _within_max_dim(dim)
        if not is_prime(p):
            raise InvalidShape("p must be prime and n >= 1")

    @property
    def exceptional_dim(self):
        if self.exceptional is None:
            return None
        return self.p**self.exceptional + 1

    @property
    def total_dim(self):
        free = sum(y * self.p**i for i, y in enumerate(self.free_ranks))
        return free + (self.exceptional_dim or 0)

    def block_sizes(self):
        sizes = []
        for i, y in enumerate(self.free_ranks):
            sizes.extend([self.p**i] * y)
        if self.exceptional is not None:
            sizes.append(self.exceptional_dim)
        return tuple(sorted(sizes, reverse=True))


def exceptional_range(p, n):
    """The m < n with an exceptional summand of dimension p^m + 1, for p >= 2
    and n in 1..MAX_N; its callers prove p prime. That dimension is a power
    of p, so a free block, only at p = 2, m = 0: for m >= 1 it is 1 mod p."""
    return range(1 if whole(p, "p", floor=2) == 2 else 0, whole(n, "n", floor=1, ceiling=MAX_N))


# ---------------------------------------------------------------------------
# profile extraction and classification
# ---------------------------------------------------------------------------


def jordan_profile(mod):
    """Block sizes, largest first, from the rank sequence of N = sigma - 1.

    With r_k = rank(N^k), the number of blocks of size k is
    c_k = r_(k-1) - 2 r_k + r_(k+1); the sum of k c_k telescopes to r_0 = dim.
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
    return tuple(sizes)


def classify_profile(profile, p, n):
    """Interpret a profile as free blocks plus at most one exceptional summand.

    Every size that is a power of p is a free block, including size 2 at
    p = 2. A non-power size must equal p^m + 1 for a single m < n, at most
    once; anything else is not realizable in this module category. Each
    size must be an int >= 1, not a bool, else a ValueError.
    """
    if not is_prime(whole(p, "p")):
        raise InvalidShape("p must be prime and n >= 1")
    whole(n, "n", floor=1, ceiling=MAX_N)
    if list(map(type, profile)).count(int) != len(profile):
        for size in profile:
            whole(size, "block size")
    free = [0] * (n + 1)
    exceptional = None
    for size in profile:
        if size > p**n:
            raise NotRealizable(f"block size {shown(size)} exceeds p^n = {p ** n}")
        i = power_exponent(size, p)
        if i is not None:
            free[i] += 1
            continue
        m = power_exponent(size - 1, p)
        if m not in exceptional_range(p, n):
            whole(size, "block size", floor=1)  # every size below 1 lands here
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


def _block_diagonal(p, sizes):
    """sigma with one Jordan block per size: ones on the diagonal and on the
    superdiagonal, but for a zero where one block ends and the next begins.
    It is filled as bytes, by slices."""
    dim = sum(sizes)
    fp_linalg._check_shape(p, dim, dim)
    flat = bytearray(dim * dim)
    flat[:: dim + 1] = b"\x01" * dim
    flat[1 :: dim + 1] = b"\x01" * (dim - 1)
    for at in itertools.accumulate(sizes[:-1]):  # the first row of each later block
        flat[(at - 1) * (dim + 1) + 1] = 0
    return FpMatrix._of(p, dim, dim, flat)


def synthesize(shape):
    """A canonical module realizing the shape: block diagonal, sizes descending.
    The shape's dimension is at most MAX_DIM."""
    return GModule(shape.p, shape.n, _block_diagonal(shape.p, shape.block_sizes()))


def module_from_profile(p, n, sizes):
    """Block-diagonal module with the given block sizes (parts <= p^n, sum <= MAX_DIM)."""
    top = whole(p, "p") ** whole(n, "n", floor=1, ceiling=MAX_N)
    for s in sizes:
        whole(s, "block size", floor=1, ceiling=top)
    _within_max_dim(sum(sizes))
    return GModule(p, n, _block_diagonal(p, sorted(sizes, reverse=True)))


def conjugate(mod, q):
    """The same module in a new basis: sigma -> q^-1 sigma q."""
    qinv = fp_linalg.inverse(q)
    sigma = fp_linalg.mat_mul(fp_linalg.mat_mul(qinv, mod.sigma), q)
    return GModule(mod.p, mod.n, sigma)


def random_gmodule(p, n, dim, seed=0):
    """Random block-diagonal module conjugated by a random invertible matrix."""
    top = whole(p, "p", floor=2) ** whole(n, "n", floor=1, ceiling=MAX_N)
    rng = random.Random(whole(seed, "seed"))
    parts = []
    left = _within_max_dim(whole(dim, "dim"))
    while left:
        k = rng.randint(1, min(top, left))
        parts.append(k)
        left -= k
    base = module_from_profile(p, n, parts)
    q = fp_linalg.random_invertible(p, dim, rng)
    return conjugate(base, q)


# most rank tuples one enumerate_shapes call walks, checked before it; c06 walks at most 66
MAX_SHAPE_WALK = 10**5


def enumerate_shapes(p, n, max_dim):
    """All valid shapes with 1 <= total_dim <= max_dim, deterministic order."""
    whole(p, "p", floor=2)
    whole(n, "n", floor=1, ceiling=MAX_N)
    whole(max_dim, "max_dim", floor=0)
    bases = {None: 0, **{m: p**m + 1 for m in exceptional_range(p, n) if p**m + 1 <= max_dim}}
    spans = {exc: [(max_dim - b) // p**i + 1 for i in range(n + 1)] for exc, b in bases.items()}
    walk = sum(map(math.prod, spans.values()))
    if walk > MAX_SHAPE_WALK:
        raise SearchSpaceTooLarge(f"{shown(walk)} rank tuples > {MAX_SHAPE_WALK}")
    shapes = []
    for exc, base in bases.items():
        for ranks in itertools.product(*map(range, spans[exc])):
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
    rows = enumerate(mod.sigma.to_rows())
    nrows = [[(x - (i == j)) % p for j, x in enumerate(row)] for i, row in rows]

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
    q = FpMatrix(p, [[cols[j][i] for j in range(d)] for i in range(d)])
    j = _block_diagonal(p, sizes)
    if fp_linalg.rank(q) != d:
        raise InternalCheckError("chain basis is not invertible")
    if fp_linalg.mat_mul(mod.sigma, q) != fp_linalg.mat_mul(q, j):
        raise InternalCheckError("chain basis fails sigma Q = Q J")
    return sizes


# ---------------------------------------------------------------------------
# JSON file format used by the CLI
# ---------------------------------------------------------------------------


def module_to_json(mod):
    return {"p": mod.p, "n": mod.n, "sigma": mod.sigma.to_rows()}


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
    _within_max_dim(len(sigma))
    try:
        sigma = FpMatrix(p, sigma)
    except NonIntegerEntries:
        raise ValueError("module JSON 'sigma' entries must be integers") from None
    return GModule(p, n, sigma)


# the value of a "sigma" key, from its "[" to the first "]" closing a row
# that is followed by "]"; JSON whitespace is space, tab, LF and CR only
_PLAIN_SIGMA = re.compile(
    r'"sigma"[ \t\n\r]*:[ \t\n\r]*(\[[ \t\n\r]*\[[^\]]*\]'
    r'(?:[ \t\n\r]*,[ \t\n\r]*\[[^\]]*\])*[ \t\n\r]*\])'
)
_DIGITS = b"0123456789"
_ZEROS = bytes.maketrans(_DIGITS, b"0" * 10)


def read_plain_module(text):
    """The module of a plain module file's text, or None when the text is
    not plain. Plain text is ASCII with no backslash and exactly one
    "sigma", whose value is a square array of one-digit JSON integers
    apart only by JSON whitespace; the rest of the object, with that value
    replaced by null, must parse with the null as its top-level "sigma".

    sigma is read with bytes operations in C: its whitespace deleted, every
    digit mapped to 0 and the result compared with the one [[0,...,0],...]
    of its length, then the digits translated into residues mod p. p, n
    and the dimension pass module_from_json's checks in its order, so on
    every text this accepts it gives the module and raises the errors that
    module_from_json(json.loads(text)) does."""
    if not text.isascii() or "\\" in text or text.count('"sigma"') != 1:
        return None
    found = _PLAIN_SIGMA.search(text)
    if found is None:
        return None
    compact = found[1].encode().translate(None, b" \t\n\r")
    # [[0,...,0],...] of dimension d has 2d^2 + 2d + 1 = ((2d + 1)^2 + 1) / 2 bytes
    d = (math.isqrt(2 * len(compact) - 1) - 1) // 2
    row = b"[" + b"0," * (d - 1) + b"0]"
    if d < 1 or compact.translate(_ZEROS) != b"[" + b",".join([row] * d) + b"]":
        return None
    try:
        data = json.loads(text[: found.start(1)] + "null" + text[found.end(1) :])
    except (ValueError, RecursionError):  # left to json.loads(text) to report
        return None
    if not isinstance(data, dict) or "sigma" not in data:
        return None
    p, n = json_int(data, "p", "module"), json_int(data, "n", "module")
    _within_max_dim(d)
    fp_linalg._check_shape(p, d, d)
    residues = compact.translate(bytes.maketrans(_DIGITS, bytes(k % p for k in range(10))), b"[],")
    return GModule(p, n, FpMatrix._of(p, d, d, residues))
