"""Dense exact linear algebra over prime fields F_p.

A matrix keeps its entries once, as residues in [0, p) in one row-major
buffer: `bytes` when p <= 256, else a list of ints. The product and the
rank hand that buffer to _kernels as it is; `entries`, `row`, `to_rows`
and the inverse build lists from it. A matrix refuses any entry that is not
an int (a bool included) in one pass over their types and reduces them
mod p as it is built: in C, through bytes, when p <= 256 and they are
already residues, else by `x % p`. Matrices the library computes hold
residues by construction and skip both.
"""

from itertools import chain

from . import _kernels
from .errors import NonIntegerEntries, NotInvertible
from .numtheory import is_prime, shown, whole


class FpMatrix:
    __slots__ = ("p", "rows", "cols", "_residues")

    def __init__(self, p, rows, cols, entries):
        if not isinstance(entries, (list, tuple)):
            raise ValueError("matrix entries must be a list or tuple")
        if list(map(type, entries)).count(int) != len(entries):
            raise NonIntegerEntries("matrix entries must be integers")
        _check_shape(p, rows, cols)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self._store(p, rows, cols, _reduced((entries,), p))

    @classmethod
    def from_rows(cls, p, row_list):
        """The matrix with these rows, read straight into its buffer: the
        same checks and refusals as FpMatrix(p, rows, cols, flat entries)."""
        rows = row_list if isinstance(row_list, (list, tuple)) else ()
        if not rows or not all(isinstance(r, (list, tuple)) for r in rows):
            raise ValueError("rows must be a nonempty list or tuple of lists or tuples")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        if list(map(type, chain.from_iterable(rows))).count(int) != len(rows) * cols:
            raise NonIntegerEntries("matrix entries must be integers")
        _check_shape(p, len(rows), cols)
        return cls._of(p, len(rows), cols, _reduced(rows, p))

    @classmethod
    def _of(cls, p, rows, cols, residues):
        """The matrix of `residues`, unchecked: p is a prime, rows and cols
        are at least 1, and residues holds rows * cols ints in [0, p), as
        bytes or a list for p <= 256 and as a list no one else holds above."""
        self = cls.__new__(cls)
        self._store(p, rows, cols, residues)
        return self

    def _store(self, p, rows, cols, residues):
        self.p = p
        self.rows = rows
        self.cols = cols
        self._residues = bytes(residues) if p <= 256 else residues

    @property
    def entries(self):
        """The entries, row-major, as a new list of residues in [0, p), read
        from the one buffer the matrix keeps: `bytes` for p <= 256, else a
        list of ints."""
        return list(self._residues)

    def row(self, i):
        return list(self._residues[i * self.cols : (i + 1) * self.cols])

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self._residues == other._residues
        )

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.rows}x{self.cols})"


def _check_shape(p, rows, cols):
    """Refuse a modulus that is not a proved prime and fewer than one row or column."""
    if not is_prime(whole(p, "modulus")):
        raise ValueError(f"modulus {shown(p)} is not prime")
    whole(rows, "rows", floor=1)
    whole(cols, "cols", floor=1)


def _reduced(rows, p):
    """The ints in `rows`, row-major, as residues mod p: bytes for p <= 256
    when they are residues already, else a new list."""
    if p <= 256:
        try:
            # bytearray reads a list of ints about twice as fast as bytes does
            raw = b"".join(map(bytearray, rows))  # ValueError: an entry outside 0..255
            if not raw.translate(None, bytes(range(p))):  # every entry is below p
                return raw
        except ValueError:
            pass
    return [x % p for row in rows for x in row]


def mat_mul(a, b):
    if a.p != b.p:
        raise ValueError("moduli differ")
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    flat = _kernels.mat_mul(a._residues, b._residues, a.rows, a.cols, b.cols, a.p)
    return FpMatrix._of(a.p, a.rows, b.cols, flat)


def rank(a):
    return _kernels.rank(a._residues, a.rows, a.cols, a.p)


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
    return FpMatrix._of(p, n, n, inv)


def random_invertible(p, n, rng):
    """Uniform-entry sampling with rejection; deterministic under a seeded rng."""
    p, n = whole(p, "modulus"), whole(n, "n")
    _check_shape(p, n, n)
    while True:
        m = FpMatrix._of(p, n, n, [rng.randrange(p) for _ in range(n * n)])
        if rank(m) == n:
            return m
