"""Pure-Python F_p matrix kernels.

Flat row-major lists of ints in [0, p). Same signatures as the compiled
module; _kernels/__init__ picks whichever is available.
"""

from itertools import compress

BACKEND = "python"


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
    """Rank via forward elimination only."""
    m = list(mat)
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
            for j in range(c, cols):
                m[r * cols + j], m[pr * cols + j] = m[pr * cols + j], m[r * cols + j]
        inv = pow(m[r * cols + c], -1, p)
        for i in range(r + 1, rows):
            f = m[i * cols + c]
            if f:
                f = f * inv % p
                for j in range(c, cols):
                    m[i * cols + j] = (m[i * cols + j] - f * m[r * cols + j]) % p
        r += 1
        if r == rows:
            break
    return r


def nilpotent_rank_sequence(mat, n, p):
    """[rank(N^0), rank(N^1), ...] down to 0 for a nilpotent n x n matrix N.

    Iterates an echelonized basis of the image instead of forming powers:
    the k-th step multiplies N into a basis of im(N^(k-1)) and re-reduces,
    so the cost is governed by the (shrinking) ranks, not by n^3 per power.
    Vectors are dicts {row: nonzero value} and N is applied column by
    column from its nonzero entries, so each step costs time in proportion
    to the nonzeros it touches; for a block-diagonal module, where N has at
    most one nonzero per row, that is linear in n.
    Raises ValueError if N is not nilpotent.
    """
    cols = [[] for _ in range(n)]  # cols[j]: the (i, N[i][j]) with N[i][j] != 0
    for k in compress(range(n * n), mat):
        i, j = divmod(k, n)
        cols[j].append((i, mat[k]))
    ranks = [n]
    images = [dict(col) for col in cols]  # the columns of N span im(N)
    while True:
        # Echelonize: each kept vector is scaled to 1 at its pivot, the
        # least row where it is nonzero, and is stored under that pivot.
        basis = {}
        for v in images:
            while v:
                piv = min(v)
                w = basis.get(piv)
                if w is None:
                    inv = pow(v[piv], -1, p)
                    basis[piv] = {i: x * inv % p for i, x in v.items()}
                    break
                c = v[piv]
                for i, x in w.items():
                    y = (v.get(i, 0) - c * x) % p
                    if y:
                        v[i] = y
                    else:
                        del v[i]  # y == 0 only where v had an entry: c, x != 0 mod prime p
        r = len(basis)
        ranks.append(r)
        if r == 0:
            return ranks
        if r >= ranks[-2]:
            raise ValueError("matrix is not nilpotent")
        images = []
        for v in basis.values():
            acc = {}
            for j, x in v.items():
                for i, c in cols[j]:
                    acc[i] = acc.get(i, 0) + x * c
            images.append({i: y for i, s in acc.items() if (y := s % p)})
