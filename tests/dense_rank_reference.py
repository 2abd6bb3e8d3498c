"""Dense references for the F_p kernels, on flat lists of ints.

The rank sequence of a nilpotent matrix is the straightforward image
iteration on dense vectors: multiply N into an echelonized column basis
of im(N^(k-1)) with full row scans, and re-reduce. `mat_mul` is the triple
loop and `rref` the entry-by-entry Gaussian elimination that the library
ran before its kernels packed each row into one int. Tests compare the
library's kernels against these on the same inputs.
"""


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


def nilpotent_rank_sequence(mat, n, p):
    """[rank(N^0), rank(N^1), ...] down to 0; ValueError if N is not nilpotent."""
    ranks = [n]
    basis = [[mat[i * n + j] for i in range(n)] for j in range(n)]  # columns of N
    while True:
        basis = _echelonize_columns(basis, n, p)
        r = len(basis)
        ranks.append(r)
        if r == 0:
            return ranks
        if r >= ranks[-2]:
            raise ValueError("matrix is not nilpotent")
        basis = [_apply(mat, v, n, p) for v in basis]


def _apply(mat, v, n, p):
    out = [0] * n
    for i in range(n):
        row = mat[i * n : (i + 1) * n]
        s = 0
        for j in range(n):
            c = v[j]
            if c:
                s += row[j] * c
        out[i] = s % p
    return out


def _echelonize_columns(vectors, n, p):
    basis = {}
    for v in vectors:
        v = list(v)
        while True:
            piv = -1
            for i in range(n):
                if v[i]:
                    piv = i
                    break
            if piv < 0:
                break
            if piv in basis:
                c = v[piv]
                w = basis[piv]
                for i in range(piv, n):
                    v[i] = (v[i] - c * w[i]) % p
            else:
                inv = pow(v[piv], -1, p)
                basis[piv] = [x * inv % p for x in v]
                break
    return [basis[k] for k in sorted(basis)]
