"""Exhaustive references for the cocycle certificates.

These are the direct loops: the 2-cocycle identity over all a^3 index
triples, and multiplicativity of a map between two extension groups over
all (a r)^2 element pairs. The library decides both on the a x a table
instead; tests compare the two on the same inputs. `groups_isomorphic`
is a backtracking isomorphism search between small extension groups.
"""

from normtower.errors import SearchSpaceTooLarge


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


def groups_isomorphic(g1, g2, max_order=200):
    """Backtracking isomorphism test between two small extension groups."""
    if g1.order != g2.order:
        return False
    if g1.order > max_order:
        raise SearchSpaceTooLarge(f"group order {g1.order} > {max_order}")
    if g1.element_orders() != g2.element_orders():
        return False
    if g1.is_abelian() != g2.is_abelian():
        return False

    # greedy generating sequence for g1, with each element's word recorded
    # as (index of earlier element, index of generator)
    gens = []
    reached = {g1.identity: None}
    build = [g1.identity]
    for x in g1.elements:
        if x in reached:
            continue
        gens.append(x)
        frontier = list(build)
        while frontier:
            nxt = []
            for y in frontier:
                for gi, g in enumerate(gens):
                    z = g1.op(y, g)
                    if z not in reached:
                        reached[z] = (y, gi)
                        build.append(z)
                        nxt.append(z)
            frontier = nxt
    order_of_gen = [g1.order_of(g) for g in gens]

    by_order = {}
    for y in g2.elements:
        by_order.setdefault(g2.order_of(y), []).append(y)

    def try_images(images):
        phi = {g1.identity: g2.identity}
        for x in build[1:]:
            prev, gi = reached[x]
            phi[x] = g2.op(phi[prev], images[gi])
        if len(set(phi.values())) != g1.order:
            return False
        for x in g1.elements:
            for y in g1.elements:
                if phi[g1.op(x, y)] != g2.op(phi[x], phi[y]):
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
