"""Dense exact linear algebra over prime fields F_p.

A matrix keeps its entries once, as residues in [0, p) in one row-major
buffer that FpMatrix._store alone picks and no other module reads: `bytes`
when p <= 256, else a list of ints. The product, the rank and
`unipotent_ranks` hand it, or a copy, to _kernels; `entries`, `row`,
`to_rows` and the inverse build lists from it. FpMatrix(p, rows), the one
checked constructor, refuses any entry that is not an int (a bool
included) in one pass over their types and reduces them mod p: in C,
through bytes, when p <= 256 and they are already residues, else by
`x % p`. Matrices the library computes hold residues by construction and
skip both, through the unchecked FpMatrix._of.
"""

from itertools import chain, repeat

from . import _kernels
from .errors import NonIntegerEntries, NotInvertible
from .numtheory import is_prime, shown, whole


class FpMatrix:
    __slots__ = ("p", "rows", "cols", "_residues")

    def __init__(self, p, rows):
        """The matrix with these rows, read straight into its buffer with no
        flat list in between; p must be a proved prime and a row nonempty."""
        rows = rows if isinstance(rows, (list, tuple)) else ()
        if not rows or not all(isinstance(r, (list, tuple)) for r in rows):
            raise ValueError("rows must be a nonempty list or tuple of lists or tuples")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        if list(map(type, chain.from_iterable(rows))).count(int) != len(rows) * cols:
            raise NonIntegerEntries("matrix entries must be integers")
        _check_shape(p, len(rows), cols)
        self._store(p, len(rows), cols, _reduced(rows, p))

    @classmethod
    def _of(cls, p, rows, cols, residues):
        """The matrix of `residues`, unchecked: p is a prime, rows and cols
        are at least 1, and residues is bytes (kept as they are), another
        bytes-like object or an iterable of rows * cols ints in [0, p)."""
        self = cls.__new__(cls)
        self._store(p, rows, cols, residues)
        return self

    def _store(self, p, rows, cols, residues):
        self.p = p
        self.rows = rows
        self.cols = cols
        self._residues = bytes(residues) if p <= 256 else list(residues)

    @property
    def entries(self):
        """The entries, row-major, as a new list of residues in [0, p), read
        from the one buffer the matrix keeps: `bytes` for p <= 256, else a
        list of ints."""
        return list(self._residues)

    def row(self, i):
        """Row i as a new list, i read as a list index: a negative i counts
        from the end, and one outside the rows raises IndexError."""
        start = range(0, len(self._residues), self.cols)[i]
        return list(self._residues[start : start + self.cols])

    def to_rows(self):
        c = self.cols
        return [list(self._residues[k : k + c]) for k in range(0, len(self._residues), c)]

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


def unipotent_ranks(a):
    """[rank(N^0), rank(N^1), ...] down to 0 for N = a - 1, a ValueError unless
    N is square and nilpotent. N is a copy of a's buffer, a bytearray if it is bytes."""
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    nil = bytearray(a._residues) if a.p <= 256 else a.entries
    nil[:: a.rows + 1] = [(x - 1) % a.p for x in nil[:: a.rows + 1]]
    return _kernels.nilpotent_rank_sequence(nil, a.rows, a.p)


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
    """Uniform-entry sampling with rejection; deterministic under a seeded rng.
    The draws go straight into the matrix's buffer."""
    p, n = whole(p, "modulus"), whole(n, "n")
    _check_shape(p, n, n)
    while True:
        m = FpMatrix._of(p, n, n, map(rng.randrange, repeat(p, n * n)))
        if rank(m) == n:
            return m
