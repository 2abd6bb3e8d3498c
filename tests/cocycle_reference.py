"""Exhaustive references for the cocycle certificates.

These are the direct loops: the 2-cocycle identity over all a^3 index
triples, and multiplicativity of a map between two extension groups over
all (a r)^2 element pairs. The library decides both on the a x a table
instead; tests compare the two on the same inputs.
"""


def is_cocycle(c):
    """Normalized 2-cocycle identity over all index triples."""
    a, r, t = c.a, c.r, c.table
    for i in range(a):
        for j in range(a):
            left = t[i][j]
            ij = (i + j) % a
            for k in range(a):
                if (left + t[ij][k] - t[j][k] - t[i][(j + k) % a]) % r:
                    return False
    return True


def multiplicative_defect(source, target, mapping):
    """First element pair (x, y), in element order, at which
    mapping[x y] != mapping[x] mapping[y]; None if there is none."""
    for x in source.elements:
        for y in source.elements:
            if mapping[source.op(x, y)] != target.op(mapping[x], mapping[y]):
                return x, y
    return None
