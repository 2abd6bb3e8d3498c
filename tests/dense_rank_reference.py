"""Dense reference for the rank sequence of a nilpotent matrix over F_p.

This is the straightforward image iteration on dense vectors: multiply N
into an echelonized column basis of im(N^(k-1)) with full row scans, and
re-reduce. The library's kernel works on sparse vectors instead; tests
compare the two on the same inputs.
"""


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
