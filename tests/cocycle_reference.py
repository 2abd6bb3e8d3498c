"""Exhaustive references for the cocycle certificates.

These are the direct loops: the 2-cocycle identity over all a^3 index
triples, and multiplicativity of a map between two extension groups over
all (a r)^2 element pairs. The library decides both on the a x a table
instead, and never builds the groups; `Extension` builds them here, with
their elements and the group law `op`, and `shift_map` expands the
library's carry-shift witness into the map on all a r elements. Tests
compare the two on the same inputs. `groups_isomorphic` is a backtracking
isomorphism search between small extension groups, on `op` and the element
orders it gives.
"""

from normtower.cohomology import Cocycle2
from normtower.errors import InternalCheckError, NotACocycle, SearchSpaceTooLarge

IDENTITY = (0, 0)


class Extension:
    """The central extension of Z/a by Z/r defined by a 2-cocycle: the
    pairs (m, i), multiplied by `op`. The exhaustive `is_cocycle` check at
    construction makes `op` associative."""

    def __init__(self, cocycle):
        if not is_cocycle(cocycle):
            raise NotACocycle("table fails the 2-cocycle identity")
        self.cocycle = cocycle
        self.a = cocycle.a
        self.r = cocycle.r
        self.elements = [(m, i) for m in range(self.r) for i in range(self.a)]

    @property
    def order(self):
        return self.a * self.r

    def is_abelian(self):
        return all(op(self, x, y) == op(self, y, x) for x in self.elements for y in self.elements)


def shift_map(source, shift):
    """(m, i) -> (m + shift[i], i) on every element of the source extension."""
    return {(m, i): ((m + shift[i]) % source.r, i) for m, i in source.elements}


def coboundary(a, r, f):
    """The 2-coboundary of a normalized 1-cochain f (f[0] must be 0)."""
    if len(f) != a or f[0] % r != 0:
        raise ValueError("f must be a normalized cochain of length a")
    table = tuple(
        tuple((f[i] + f[j] - f[(i + j) % a]) % r for j in range(a)) for i in range(a)
    )
    return Cocycle2(a, r, table)


def op(g, x, y):
    """(m1, i1)(m2, i2) = (m1 + m2 + c(i1, i2), i1 + i2) in the extension g."""
    m1, i1 = x
    m2, i2 = y
    return ((m1 + m2 + g.cocycle.table[i1][i2]) % g.r, (i1 + i2) % g.a)


def order_of(g, x):
    k, y = 1, x
    while y != IDENTITY:
        y = op(g, y, x)
        k += 1
        if k > g.order:
            raise InternalCheckError("element order exceeds group order")
    return k


def element_orders(g):
    return tuple(sorted(order_of(g, x) for x in g.elements))


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
            if mapping[op(source, x, y)] != op(target, mapping[x], mapping[y]):
                return x, y
    return None


def groups_isomorphic(g1, g2, max_order=200):
    """Backtracking isomorphism test between two small extension groups."""
    if g1.order != g2.order:
        return False
    if g1.order > max_order:
        raise SearchSpaceTooLarge(f"group order {g1.order} > {max_order}")
    if element_orders(g1) != element_orders(g2):
        return False
    if g1.is_abelian() != g2.is_abelian():
        return False

    # greedy generating sequence for g1, with each element's word recorded
    # as (index of earlier element, index of generator)
    gens = []
    reached = {IDENTITY: None}
    build = [IDENTITY]
    for x in g1.elements:
        if x in reached:
            continue
        gens.append(x)
        frontier = list(build)
        while frontier:
            nxt = []
            for y in frontier:
                for gi, g in enumerate(gens):
                    z = op(g1, y, g)
                    if z not in reached:
                        reached[z] = (y, gi)
                        build.append(z)
                        nxt.append(z)
            frontier = nxt
    order_of_gen = [order_of(g1, g) for g in gens]

    by_order = {}
    for y in g2.elements:
        by_order.setdefault(order_of(g2, y), []).append(y)

    def try_images(images):
        phi = {IDENTITY: IDENTITY}
        for x in build[1:]:
            prev, gi = reached[x]
            phi[x] = op(g2, phi[prev], images[gi])
        if len(set(phi.values())) != g1.order:
            return False
        for x in g1.elements:
            for y in g1.elements:
                if phi[op(g1, x, y)] != op(g2, phi[x], phi[y]):
                    return False
        return True

    def assign(k, images):
        if k == len(gens):
            return try_images(images)
        for y in by_order.get(order_of_gen[k], ()):
            if assign(k + 1, images + [y]):
                return True
        return False

    return assign(0, [])
