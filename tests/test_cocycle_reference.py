"""The O(a^2) cocycle and carry-shift certificates against the exhaustive
loops in cocycle_reference.py, on seeded and exhaustively listed tables."""

import itertools
import random

import pytest

import cocycle_reference
from normtower.cohomology import (
    MAX_A,
    MAX_ORDER,
    Cocycle2,
    carrying_cocycle,
    extension_isomorphism,
    is_cocycle,
    scale_cocycle,
    shift_defect,
    zero_cocycle,
)
from normtower.errors import SearchSpaceTooLarge


def divisors(a):
    return [b for b in range(1, a + 1) if a % b == 0]


def table_from_inner(a, entries):
    """Normalized a x a table whose rows and columns 1..a-1 are `entries`."""
    it = iter(entries)
    return tuple(
        tuple(0 if i == 0 or j == 0 else next(it) for j in range(a)) for i in range(a)
    )


def random_cocycle(rng, a, r):
    """k * wrap + coboundary(f) for random k and normalized f."""
    f = [0] + [rng.randrange(r) for _ in range(a - 1)]
    k = rng.randrange(r)
    d = cocycle_reference.coboundary(a, r, f)
    return tuple(
        tuple((x + k * (i + j >= a)) % r for j, x in enumerate(row))
        for i, row in enumerate(d.table)
    )


def perturb(rng, table, r):
    """The table with one entry off the zero row and column moved."""
    a = len(table)
    i, j = rng.randrange(1, a), rng.randrange(1, a)
    rows = [list(row) for row in table]
    rows[i][j] = (rows[i][j] + rng.randrange(1, r)) % r
    return tuple(map(tuple, rows))


def agree(c):
    verdict = is_cocycle(c)
    assert verdict == cocycle_reference.is_cocycle(c), c
    return verdict


def test_every_small_normalized_table():
    # every normalized table for a = 1, 2, 3 (r <= 3) and a = 4 (r = 2)
    verdicts = []
    for a, r in ((1, 1), (1, 5), (2, 1), (2, 6), (3, 2), (3, 3), (4, 2)):
        for inner in itertools.product(range(r), repeat=(a - 1) ** 2):
            verdicts.append(agree(Cocycle2(a, r, table_from_inner(a, inner))))
    assert verdicts.count(True) and verdicts.count(False)


def test_random_tables_and_perturbed_cocycles():
    rng = random.Random(20)
    counts = {True: 0, False: 0}
    for _ in range(600):
        a, r = rng.randint(1, 8), rng.randint(1, 6)
        inner = [rng.randrange(r) for _ in range((a - 1) ** 2)]
        counts[agree(Cocycle2(a, r, table_from_inner(a, inner)))] += 1
        table = random_cocycle(rng, a, r)
        assert agree(Cocycle2(a, r, table))
        if a >= 2 and r >= 2:
            counts[agree(Cocycle2(a, r, perturb(rng, table, r)))] += 1
    assert counts[True] > 100 and counts[False] > 100


def test_carrying_scaled_and_zero_cocycles():
    for a in range(1, 13):
        for r in range(1, 5):
            assert agree(zero_cocycle(a, r))
            for b in divisors(a):
                assert agree(carrying_cocycle(a, b, r))
                assert agree(scale_cocycle(carrying_cocycle(a, a, r), a // b))


def test_carry_shift_map_multiplicative_on_every_pair():
    for a in range(1, 9):
        for b in divisors(a):
            for r in range(1, 5):
                w = extension_isomorphism(a, b, r)
                source = cocycle_reference.Extension(w.phi)
                mapping = cocycle_reference.shift_map(source, w.shift)
                target = cocycle_reference.Extension(w.psi)
                assert cocycle_reference.multiplicative_defect(source, target, mapping) is None


def both_routes(w, shift):
    """shift_defect and the pair loop on the same shift; they must name the
    same first failure, the pair loop as elements (0, i) and (0, j)."""
    defect = shift_defect(w.phi, w.psi, shift)
    source = cocycle_reference.Extension(w.phi)
    target = cocycle_reference.Extension(w.psi)
    pair = cocycle_reference.multiplicative_defect(
        source, target, cocycle_reference.shift_map(source, shift)
    )
    expected = None if defect is None else ((0, defect[0]), (0, defect[1]))
    assert pair == expected
    return defect


def test_wrong_shift_rejected_by_both_routes():
    for a, b, r in ((3, 1, 2), (4, 2, 3), (6, 3, 2), (8, 2, 4), (9, 3, 3)):
        w = extension_isomorphism(a, b, r)
        right = [i // b % r for i in range(a)]
        assert both_routes(w, right) is None
        wrong = [(s + (i == 1)) % r for i, s in enumerate(right)]
        assert both_routes(w, wrong) is not None


def test_random_shifts_agree():
    rng = random.Random(21)
    accepted = rejected = 0
    for _ in range(150):
        a = rng.randint(1, 6)
        b = rng.choice(divisors(a))
        r = rng.randint(1, 4)
        w = extension_isomorphism(a, b, r)
        shift = [0] + [rng.randrange(r) for _ in range(a - 1)]
        if both_routes(w, shift) is None:
            accepted += 1
        else:
            rejected += 1
    assert accepted and rejected


def test_guard_fires_before_any_table():
    with pytest.raises(SearchSpaceTooLarge, match=f"a = {MAX_A + 1} > {MAX_A}"):
        extension_isomorphism(MAX_A + 1, 1, 1)
    with pytest.raises(SearchSpaceTooLarge, match="a \\* r"):
        extension_isomorphism(400, 10, MAX_ORDER // 400 + 1)
    with pytest.raises(SearchSpaceTooLarge):
        extension_isomorphism(10, 1, 10**40)
    assert len(extension_isomorphism(MAX_A, MAX_A, 1).shift) == MAX_A


def test_groups_isomorphic_oracle():
    # full-wrap carrying on Z/2 by Z/2 gives Z/4, the zero cocycle the Klein group
    z4 = cocycle_reference.Extension(carrying_cocycle(2, 2, 2))
    klein = cocycle_reference.Extension(zero_cocycle(2, 2))
    assert not cocycle_reference.groups_isomorphic(z4, klein)
    assert cocycle_reference.groups_isomorphic(z4, z4)
    # the search finds an isomorphism wherever the carry shift certifies one
    for a in range(1, 7):
        for b in divisors(a):
            for r in range(1, 4):
                w = extension_isomorphism(a, b, r)
                assert cocycle_reference.groups_isomorphic(
                    cocycle_reference.Extension(w.phi), cocycle_reference.Extension(w.psi)
                )
