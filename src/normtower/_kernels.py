"""F_p matrix kernels in pure Python, on flat row-major lists of ints in
[0, p) for any prime p, or bytes-like ones for p <= 256. Each row or vector
is packed into one big int, one field per coordinate (see `packing`), so a
sum of scaled vectors is a few big-int operations in C rather than a Python
loop over entries. Row reduction and the rank sequence share one echelon
routine, `_echelon`. Once a dense step of the rank sequence has halved the
rank, the rest of the sequence runs on the operator restricted to its
image, in vectors of that image's dimension (see nilpotent_rank_sequence).
"""

from itertools import chain
from operator import mul

from .packing import from_fields, layout, reduce, to_fields


def backend_name():
    """The kernel implementation in use, as benchmark records report it."""
    return "python"


def _pack_rows(mat, rows, cols, p, size):
    """The rows of a flat matrix as packed ints of `cols` fields each."""
    raw = to_fields(mat, p, size)
    row = cols * size
    return [int.from_bytes(raw[i * row : (i + 1) * row], "little") for i in range(rows)]


def mat_mul(a, b, n, k, m, p):
    """(n x k) times (k x m) over F_p, flat row-major. Row i of the product
    is one packed sum of a[i, t] times row t of b, then one reduce."""
    size, s, mult, qmask = layout(k, p, m)
    brows = _pack_rows(b, k, m, p, size)
    sums = (sum(map(mul, a[i * k : (i + 1) * k], brows)) for i in range(n))
    raw = b"".join(reduce(x, p, mult, s, qmask).to_bytes(m * size, "little") for x in sums)
    return list(from_fields(raw, p, size))


def _echelon(vectors, p, size, s, m, qmask, row):
    """A reduced echelon basis of the span of the packed `vectors`, as
    {pivot field: vector} in the order kept. `row` is a vector's byte
    length; a field must hold a residue plus one product per basis vector.
    - pivot: the least nonzero field, read off the lowest set bit;
    - reduction: every kept vector has pivot field 1 and is zero at every
      other pivot, so the coefficients of v against the basis are v's own
      fields at the pivots, read from one to_bytes; v + sum (p - c_j) w_j
      then takes one reduce, and a v that touches no pivot takes none. A
      new vector is scaled to pivot field 1 and cleared from the kept
      vectors that are nonzero at its pivot.
    """
    width = 8 * size
    fmask = (1 << width) - 1
    basis = {}
    pivmask = 0  # the fields of the pivots
    support = 0  # holds every field where some kept vector is nonzero
    for v in vectors:
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
    return basis


def rref(mat, rows, cols, p):
    """Reduced row echelon form. Returns (flat matrix, rank, pivot columns):
    the RREF is unique, so it is _echelon's basis in pivot order over zero rows."""
    size, s, m, qmask = layout(min(rows, cols), p, cols)  # the basis keeps at most min(rows, cols)
    row = cols * size
    basis = _echelon(_pack_rows(mat, rows, cols, p, size), p, size, s, m, qmask, row)
    pivots = sorted(basis)
    raw = b"".join(basis[piv].to_bytes(row, "little") for piv in pivots)
    out = list(from_fields(raw, p, size)) + [0] * ((rows - len(pivots)) * cols)
    return out, len(pivots), tuple(pivots)


def rank(mat, rows, cols, p):
    """The rank, as rref finds it."""
    return rref(mat, rows, cols, p)[1]


def nilpotent_rank_sequence(mat, n, p):
    """[rank(N^0), rank(N^1), ...] down to 0 for a nilpotent n x n matrix N.

    Iterates an echelonized basis of the image instead of forming powers:
    each step multiplies the operator into a basis of its last image and
    re-reduces, so the cost is governed by the (shrinking) ranks, not by
    n^3 per power. It starts on A = N^T, whose powers have the same ranks,
    because the columns of N^T are the rows of N, contiguous in `mat`.
    The mat-vec A b is the sum of c_j times column j over the nonzero
    fields c_j of b between its first and last nonzero field, so a sparse
    b costs little, and a unit b costs a lookup.

    Once a step has done real mat-vecs (its basis held a non-unit vector)
    and its rank r is at most half the current dimension d, the operator
    is restricted to its image V = im(A^k), on r-field vectors from then
    on. This is exact: A maps V into itself and A^j V = im(A^(k+j)). The
    basis is reduced, so an image's coordinates in it are its own fields
    at the pivots, and the r x r matrix of A|V is read off the images the
    step computed anyway. One slice per pivot across the images gives a
    row of that matrix; the rows become the next columns, so the loop goes
    on with the transpose, whose ranks are the same. Where every basis
    vector is a unit vector (block-diagonal modules, triangular N) nothing
    is restricted, and a single Jordan block, whose rank falls by one a
    step, is restricted only once it has halved.
    Raises ValueError if N is not nilpotent.
    """
    d = n
    size, s, m, qmask = layout(d, p)  # every sum below holds at most d products
    cols = _pack_rows(mat, n, n, p, size)
    ranks = [n]
    images = cols  # the columns of N^T span im(N^T)
    while True:
        width = 8 * size
        row = d * size
        basis = _echelon(images, p, size, s, m, qmask, row)
        r = len(basis)
        ranks.append(r)
        if r == 0:
            return ranks
        if r >= ranks[-2]:
            raise ValueError("matrix is not nilpotent")
        images = []
        dense = False
        for piv, w in basis.items():
            top = (w.bit_length() - 1) // width
            if top == piv:  # the unit vector at piv
                images.append(cols[piv])
                continue
            dense = True
            count = top + 1 - piv
            fields = (w >> (width * piv)).to_bytes(count * size, "little")
            acc = 0
            for c, col in zip(from_fields(fields, p, size), cols[piv : piv + count]):
                if c:
                    acc += c * col
            images.append(reduce(acc, p, m, s, qmask))
        if dense and 2 * r <= d:
            raw = from_fields(b"".join(y.to_bytes(row, "little") for y in images), p, size)
            size, s, m, qmask = layout(r, p)
            # row j of the matrix of A|V: the j-th pivot's field of every image
            cols = _pack_rows(chain.from_iterable(raw[q::d] for q in basis), r, r, p, size)
            images = cols
            d = r
