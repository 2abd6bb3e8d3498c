"""Dense exact linear algebra over prime fields F_p.

Matrices are immutable-by-convention wrappers around a flat row-major list
of ints in [0, p); the heavy loops live in _kernels. A matrix refuses any
entry that is not an int (a bool included) in one pass over their types and
reduces them mod p here: in C, through bytes, when p <= 256 and they are
already residues, else by `x % p`.
"""

from . import _kernels
from .errors import NonIntegerEntries, NotInvertible
from .numtheory import is_prime, shown, whole


class FpMatrix:
    __slots__ = ("p", "rows", "cols", "entries")

    def __init__(self, p, rows, cols, entries):
        if not isinstance(entries, (list, tuple)):
            raise ValueError("matrix entries must be a list or tuple")
        if list(map(type, entries)).count(int) != len(entries):
            raise NonIntegerEntries("matrix entries must be integers")
        if not is_prime(whole(p, "modulus")):
            raise ValueError(f"modulus {shown(p)} is not prime")
        whole(rows, "rows", floor=1)
        whole(cols, "cols", floor=1)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.p = p
        self.rows = rows
        self.cols = cols
        self.entries = _residues(entries, p)

    @classmethod
    def from_rows(cls, p, row_list):
        rows = row_list if isinstance(row_list, (list, tuple)) else ()
        if not rows or not all(isinstance(r, (list, tuple)) for r in rows):
            raise ValueError("rows must be a nonempty list or tuple of lists or tuples")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(p, len(rows), cols, [x for row in rows for x in row])

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

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols})"


def _residues(entries, p):
    """The ints `entries` as a new list of residues mod p."""
    if p <= 256:
        try:
            raw = bytearray(entries)  # ValueError: an entry outside 0..255
            if not raw.translate(None, bytes(range(p))):  # every entry is below p
                return list(raw)
        except ValueError:
            pass
    return [x % p for x in entries]


def mat_mul(a, b):
    if a.p != b.p:
        raise ValueError("moduli differ")
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    flat = _kernels.mat_mul(a.entries, b.entries, a.rows, a.cols, b.cols, a.p)
    return FpMatrix(a.p, a.rows, b.cols, flat)


def rank(a):
    return _kernels.rank(a.entries, a.rows, a.cols, a.p)


def is_invertible(a):
    return a.rows == a.cols and rank(a) == a.rows


def inverse(a):
    """Inverse via row reduction of [A | I]."""
    if a.rows != a.cols:
        raise NotInvertible("non-square matrix")
    n, p = a.rows, a.p
    aug = [x for i in range(n) for x in a.row(i) + [int(i == j) for j in range(n)]]
    flat, _, pivots = _kernels.rref(aug, n, 2 * n, p)
    # the augmented matrix always has full row rank; invertibility means
    # every pivot lands in the left block
    left_rank = sum(1 for j in pivots if j < n)
    if left_rank < n:
        raise NotInvertible(f"matrix has rank {left_rank} < {n}")
    inv = [x for i in range(n) for x in flat[(2 * i + 1) * n : (2 * i + 2) * n]]
    return FpMatrix(p, n, n, inv)


def random_invertible(p, n, rng):
    """Uniform-entry sampling with rejection; deterministic under a seeded rng."""
    p, n = whole(p, "modulus"), whole(n, "n")
    while True:
        m = FpMatrix(p, n, n, [rng.randrange(p) for _ in range(n * n)])
        if rank(m) == n:
            return m
