import math
import random
import tracemalloc

import pytest

from cocycle_reference import Extension, coboundary, element_orders, shift_map
from normtower.cohomology import (
    Cocycle2,
    carrying_cocycle,
    cohomologous_bruteforce,
    extension_isomorphism,
    h2_invariant,
    is_cocycle,
    scale_cocycle,
    zero_cocycle,
)
from normtower.errors import NotACocycle


def test_carrying_values():
    c = carrying_cocycle(4, 2, 3)
    # carries happen exactly when low parts overflow the block
    assert c.table[1][1] == 1  # floor(2/2) - 0 - 0
    assert c.table[1][2] == 0  # floor(3/2) - 0 - 1
    assert c.table[3][3] == 1  # floor(6/2) - 1 - 1
    assert c.table[0][3] == 0
    with pytest.raises(ValueError):
        carrying_cocycle(4, 3, 2)  # b must divide a


def test_cocycle_identity_holds():
    for a in range(1, 9):
        for b in (x for x in range(1, a + 1) if a % x == 0):
            for r in range(1, 5):
                assert is_cocycle(carrying_cocycle(a, b, r))


def test_normalization_enforced():
    with pytest.raises(ValueError):
        Cocycle2(2, 2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        Cocycle2(2, 2, ((0, 0), (0, 3)))  # entry not reduced


def test_coboundary_is_trivial_cocycle():
    rng = random.Random(6)
    for _ in range(20):
        a, r = rng.randint(1, 6), rng.randint(1, 6)
        f = [0] + [rng.randrange(r) for _ in range(a - 1)]
        d = coboundary(a, r, f)
        assert is_cocycle(d)
        assert h2_invariant(d) == 0


def test_non_cocycle_table_rejected():
    bad = Cocycle2(3, 2, ((0, 0, 0), (0, 1, 0), (0, 0, 0)))
    assert not is_cocycle(bad)
    with pytest.raises(NotACocycle):
        h2_invariant(bad)


def test_extension_group_orders():
    # full-wrap carrying on Z/2 by Z/2 gives Z/4
    z4 = Extension(carrying_cocycle(2, 2, 2))
    assert element_orders(z4) == (1, 2, 4, 4)
    klein = Extension(zero_cocycle(2, 2))
    assert element_orders(klein) == (1, 2, 2, 2)


def test_h2_invariant_frozen_values():
    # invariant of carrying(a, b, r) is a/b mod gcd(a, r)
    for a, b, r in ((2, 2, 2), (4, 2, 2), (4, 2, 4), (6, 2, 3), (12, 3, 6)):
        assert h2_invariant(carrying_cocycle(a, b, r)) == (a // b) % math.gcd(a, r)
    assert h2_invariant(zero_cocycle(5, 5)) == 0


def test_scaled_cocycle_invariant_is_linear():
    c = carrying_cocycle(6, 6, 4)
    g = math.gcd(6, 4)
    for q in range(5):
        assert h2_invariant(scale_cocycle(c, q)) == q % g


def test_extension_isomorphism_witness():
    w = extension_isomorphism(8, 2, 4)
    assert w.q == 4
    assert w.shift == [0, 0, 1, 1, 2, 2, 3, 3]
    assert w.psi.table == carrying_cocycle(8, 2, 4).table
    assert w.invariant == h2_invariant(w.phi) == h2_invariant(w.psi) == 0
    # the map the shift stands for is bijective and fixes centre and quotient
    for a in range(1, 9):
        for b in (x for x in range(1, a + 1) if a % x == 0):
            for r in range(1, 5):
                w = extension_isomorphism(a, b, r)
                mapping = shift_map(Extension(w.phi), w.shift)
                assert len(mapping) == a * r
                assert len(set(mapping.values())) == a * r
                assert all(mapping[(m, 0)] == (m, 0) for m in range(r))
                assert all(x[1] == y[1] for x, y in mapping.items())


def test_extension_isomorphism_builds_nothing_of_size_a_r():
    # a r = 160,000 at the guard: the a x a tables alone are about 4 MiB
    tracemalloc.start()
    try:
        extension_isomorphism(400, 20, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_extension_isomorphism_phi_is_the_scaled_wrap(monkeypatch):
    for a in range(1, 13):
        for b in (x for x in range(1, a + 1) if a % x == 0):
            for r in range(1, 7):
                w = extension_isomorphism(a, b, r)
                assert w.phi == scale_cocycle(carrying_cocycle(a, a, r), a // b)
    built = []
    original = Cocycle2.__post_init__
    monkeypatch.setattr(Cocycle2, "__post_init__", lambda c: built.append(c) or original(c))
    extension_isomorphism(12, 3, 5)
    assert len(built) == 2  # phi and psi, nothing thrown away


def test_isomorphic_pairs_attach_same_group():
    # q = 1: scaled cocycle equals the plain wrap; extension is cyclic
    w = extension_isomorphism(4, 4, 2)
    assert element_orders(Extension(w.psi)) == element_orders(
        Extension(carrying_cocycle(4, 4, 2))
    )


def test_cohomologous_bruteforce_matches_invariant():
    for a in (2, 3, 4):
        for r in (2, 3):
            wrap = carrying_cocycle(a, a, r)
            zero = zero_cocycle(a, r)
            same = h2_invariant(wrap) == h2_invariant(zero)
            witness = cohomologous_bruteforce(wrap, zero)
            assert (witness is not None) == same
    # a cocycle is always cohomologous to itself via f = 0
    c = carrying_cocycle(3, 3, 3)
    assert cohomologous_bruteforce(c, c) == (0, 0, 0)


def test_cohomologous_witness_is_verified():
    # carrying(2,2,2) vs zero: classes differ in Z/gcd(2,2), no witness
    assert cohomologous_bruteforce(carrying_cocycle(2, 2, 2), zero_cocycle(2, 2)) is None
    # carrying(3,3,2): gcd(3,2) = 1, so it must be a coboundary
    f = cohomologous_bruteforce(carrying_cocycle(3, 3, 2), zero_cocycle(3, 2))
    assert f is not None
    d = coboundary(3, 2, list(f))
    assert d.table == carrying_cocycle(3, 3, 2).table


def test_carrying_cocycle_is_symmetric():
    # psi(i, j) = psi(j, i) on c05's grid, so every extension cocycle-check
    # builds is abelian, as it reports without reading the table
    for a in range(1, 13):
        for b in (b for b in range(1, a + 1) if a % b == 0):
            for r in range(1, 7):
                table = carrying_cocycle(a, b, r).table
                assert table == tuple(zip(*table)), (a, b, r)
