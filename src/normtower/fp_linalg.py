"""Dense exact linear algebra over prime fields F_p.

Matrices are immutable-by-convention wrappers around a flat row-major list;
the heavy loops live in _kernels.
"""

import random

from . import _kernels
from .errors import NotInvertible
from .numtheory import is_prime


class FpMatrix:
    __slots__ = ("p", "rows", "cols", "entries")

    def __init__(self, p, rows, cols, entries):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if rows < 1 or cols < 1:
            raise ValueError("matrix must have positive dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.p = p
        self.rows = rows
        self.cols = cols
        self.entries = [x % p for x in entries]

    @classmethod
    def from_rows(cls, p, row_list):
        rows = len(row_list)
        cols = len(row_list[0])
        if any(len(r) != cols for r in row_list):
            raise ValueError("ragged rows")
        return cls(p, rows, cols, [x for row in row_list for x in row])

    @classmethod
    def identity(cls, p, n):
        e = [0] * (n * n)
        for i in range(n):
            e[i * n + i] = 1
        return cls(p, n, n, e)

    @classmethod
    def zeros(cls, p, rows, cols):
        return cls(p, rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other):
        self._compatible(other)
        return FpMatrix(
            self.p,
            self.rows,
            self.cols,
            [(x + y) % self.p for x, y in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        self._compatible(other)
        return FpMatrix(
            self.p,
            self.rows,
            self.cols,
            [(x - y) % self.p for x, y in zip(self.entries, other.entries)],
        )

    def __mul__(self, other):
        return mat_mul(self, other)

    def __pow__(self, k):
        return mat_pow(self, k)

    def _compatible(self, other):
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes or moduli differ")

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols})"


def mat_mul(a, b):
    if a.p != b.p:
        raise ValueError("moduli differ")
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    flat = _kernels.mat_mul(a.entries, b.entries, a.rows, a.cols, b.cols, a.p)
    return FpMatrix(a.p, a.rows, b.cols, flat)


def mat_pow(a, k):
    if a.rows != a.cols:
        raise ValueError("power of a non-square matrix")
    if k < 0:
        return mat_pow(inverse(a), -k)
    result = FpMatrix.identity(a.p, a.rows)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def rank(a):
    return _kernels.rank(a.entries, a.rows, a.cols, a.p)


def rref(a):
    flat, r, pivots = _kernels.rref(a.entries, a.rows, a.cols, a.p)
    return FpMatrix(a.p, a.rows, a.cols, flat), r, pivots


def is_invertible(a):
    return a.rows == a.cols and rank(a) == a.rows


def inverse(a):
    """Inverse via row reduction of [A | I]."""
    if a.rows != a.cols:
        raise NotInvertible("non-square matrix")
    n, p = a.rows, a.p
    aug = []
    for i in range(n):
        aug.extend(a.row(i))
        aug.extend(1 if j == i else 0 for j in range(n))
    flat, _, pivots = _kernels.rref(aug, n, 2 * n, p)
    # the augmented matrix always has full row rank; invertibility means
    # every pivot lands in the left block
    left_rank = sum(1 for j in pivots if j < n)
    if left_rank < n:
        raise NotInvertible(f"matrix has rank {left_rank} < {n}")
    inv = [0] * (n * n)
    for i in range(n):
        inv[i * n : (i + 1) * n] = flat[i * 2 * n + n : (i + 1) * 2 * n]
    return FpMatrix(p, n, n, inv)


def random_invertible(p, n, rng=None):
    """Uniform-entry sampling with rejection; deterministic under a seeded rng."""
    rng = rng or random.Random(0)
    while True:
        m = FpMatrix(p, n, n, [rng.randrange(p) for _ in range(n * n)])
        if rank(m) == n:
            return m
