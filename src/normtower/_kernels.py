"""F_p matrix kernels in pure Python.

Flat row-major lists of ints in [0, p), any prime p: entries are Python
ints, so no sum overflows. The rank sequence packs each vector into one
big int (see `packing`).
"""

from .packing import from_fields, layout, reduce, to_fields


def backend_name():
    """The kernel implementation in use, as benchmark records report it."""
    return "python"


def mat_mul(a, b, n, k, m, p):
    """(n x k) times (k x m) over F_p, flat row-major."""
    out = [0] * (n * m)
    for i in range(n):
        arow = a[i * k : (i + 1) * k]
        orow = i * m
        for t in range(k):
            c = arow[t]
            if c == 0:
                continue
            brow = t * m
            for j in range(m):
                out[orow + j] = (out[orow + j] + c * b[brow + j]) % p
    return out


def rref(mat, rows, cols, p):
    """Reduced row echelon form. Returns (flat matrix, rank, pivot columns)."""
    m = list(mat)
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i * cols + c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            for j in range(cols):
                m[r * cols + j], m[pr * cols + j] = m[pr * cols + j], m[r * cols + j]
        inv = pow(m[r * cols + c], -1, p)
        for j in range(c, cols):
            m[r * cols + j] = m[r * cols + j] * inv % p
        for i in range(rows):
            if i == r:
                continue
            f = m[i * cols + c]
            if f:
                for j in range(c, cols):
                    m[i * cols + j] = (m[i * cols + j] - f * m[r * cols + j]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, r, tuple(pivots)


def rank(mat, rows, cols, p):
    """The rank, as rref finds it."""
    return rref(mat, rows, cols, p)[1]


def nilpotent_rank_sequence(mat, n, p):
    """[rank(N^0), rank(N^1), ...] down to 0 for a nilpotent n x n matrix N.

    Iterates an echelonized basis of the image instead of forming powers:
    the k-th step multiplies N into a basis of im(N^(k-1)) and re-reduces,
    so the cost is governed by the (shrinking) ranks, not by n^3 per power.
    It runs on the transpose, whose powers have the same ranks, because
    the columns of N^T are the rows of N, contiguous in `mat`.

    A vector is one Python int with one field per coordinate (packing.layout),
    so each operation is a few big-int operations in C rather than a
    Python loop over entries, as in Dumas, Fousse and Salvy (J. Symb.
    Comput. 46(7), 2011):
    - pivot: the least nonzero field, read off the lowest set bit;
    - reduction: the basis is kept reduced (pivot field 1, zero at every
      other pivot), so the coefficients of v against it are v's own fields
      at the pivots, read from one to_bytes; v + sum (p - c_j) w_j then
      takes one packing.reduce, and a v that touches no pivot takes none.
      A new vector is scaled to pivot field 1 and cleared from the kept
      vectors that are nonzero at its pivot;
    - mat-vec: N^T b is the sum of c_j times column j over the nonzero
      fields c_j of b, read from its bytes between its first and last
      nonzero field, so a sparse b costs little, and a unit b costs a
      lookup.
    Raises ValueError if N is not nilpotent.
    """
    size, s, m, qmask = layout(n, p)
    width = 8 * size
    fmask = (1 << width) - 1
    raw = to_fields(mat, p, size)
    row = n * size
    cols = [int.from_bytes(raw[i * row : (i + 1) * row], "little") for i in range(n)]
    ranks = [n]
    images = cols  # the columns of N^T span im(N^T)
    while True:
        # Echelonize into a reduced basis, each kept vector stored under its
        # pivot. A residue plus at most n products of two residues, the most
        # any sum below holds in a field, is what layout(n, p) sizes for.
        basis = {}
        pivmask = 0  # the fields of the pivots
        support = 0  # holds every field where some kept vector is nonzero
        for v in images:
            hit = v & pivmask
            if hit:
                coeffs = from_fields(hit.to_bytes(row, "little"), p, size)
                acc = v
                for piv, w in basis.items():
                    c = coeffs[piv]
                    if c:
                        acc += (p - c) * w
                v = reduce(acc, p, m, s, qmask)
            if not v:
                continue
            piv = ((v & -v).bit_length() - 1) // width
            field = fmask << (width * piv)
            c = (v & field) >> (width * piv)
            if c != 1:
                v = reduce(v * pow(c, -1, p), p, m, s, qmask)
            if support & field:
                for q, w in basis.items():
                    c = (w & field) >> (width * piv)
                    if c:
                        basis[q] = reduce(w + (p - c) * v, p, m, s, qmask)
            basis[piv] = v
            pivmask |= field
            support |= v
        r = len(basis)
        ranks.append(r)
        if r == 0:
            return ranks
        if r >= ranks[-2]:
            raise ValueError("matrix is not nilpotent")
        images = []
        for piv, w in basis.items():
            top = (w.bit_length() - 1) // width
            if top == piv:  # the unit vector at piv
                images.append(cols[piv])
                continue
            count = top + 1 - piv
            fields = (w >> (width * piv)).to_bytes(count * size, "little")
            acc = 0
            for c, col in zip(from_fields(fields, p, size), cols[piv : piv + count]):
                if c:
                    acc += c * col
            images.append(reduce(acc, p, m, s, qmask))
