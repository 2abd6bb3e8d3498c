import functools
import itertools
import random

import pytest

from normtower import _kernels, cyclic_algebra
from normtower.cyclic_algebra import (
    MAX_FIELD_ORDER,
    _is_irreducible,
    FiniteField,
    FiniteFieldTower,
    algebra_element,
    ca_add,
    ca_mul,
    ca_one,
    find_irreducible,
    index_ladder,
    solve_norm,
    split_certificate,
)
from normtower.errors import InternalCheckError, SearchSpaceTooLarge
from field_reference import (
    DigitField,
    field_det,
    poly_mod,
    regular_representation,
    twisted_product,
)


# The field works on packed elements; these take and return encodings, so
# each case runs encode, the packed operation ca_mul and norm run, decode.


def packed_mul(field, a, b):
    return field.decode(field.mul(field.encode(a), field.encode(b)))


def packed_add(field, a, b):
    return field.decode(field.add(field.encode(a), field.encode(b)))


def packed_frobenius(field, a, times=1):
    return field.decode(field.frobenius(field.encode(a), times))


def packed_inv(field, a):
    return field.decode(field.inv(field.encode(a)))


def test_lex_least_moduli_frozen():
    # coefficients ascending: x^2+1, x^3+x+1, x^2+2
    assert find_irreducible(3, 2) == (1, 0, 1)
    assert find_irreducible(2, 3) == (1, 1, 0, 1)
    assert find_irreducible(5, 2) == (2, 0, 1)


def monic(l, k):
    """Every monic polynomial of degree k over F_l, little-endian."""
    return [list(c) + [1] for c in itertools.product(range(l), repeat=k)]


def irreducible_by_trial_division(f, l):
    k = len(f) - 1
    return not any(
        not any(poly_mod(f, g, l)) for d in range(1, k // 2 + 1) for g in monic(l, d)
    )


@pytest.mark.parametrize("l, top", [(2, 6), (3, 6), (5, 3), (7, 3)])
def test_irreducibility_against_trial_division(l, top):
    for k in range(1, top + 1):
        for f in monic(l, k):
            assert _is_irreducible(f, l) == irreducible_by_trial_division(f, l), f


@pytest.mark.parametrize(
    "l, square",
    [
        (3, [1, 0, 2, 0, 1]),  # (x^2 + 1)^2
        (2, [1, 0, 1, 0, 0, 0, 1]),  # (x^3 + x + 1)^2
        (5, [4, 4, 1]),  # (x + 2)^2
    ],
)
def test_squares_of_irreducibles_are_rejected(l, square):
    # Berlekamp's count alone sees one factor: rank(Q - I) = k - 1 with row i
    # of Q the digits of x^(l i) mod f. x^(l^k) = x mod f is what rejects it.
    k = len(square) - 1
    field = DigitField(l, square)
    rows = []
    for i in range(k):
        digits = field.decode(field.pow(l, l * i))
        rows += [(c - (j == i)) % l for j, c in enumerate(digits)]
    assert _kernels.rank(rows, k, k, l) == k - 1
    assert field.pow(l, l**k) != l
    assert not _is_irreducible(square, l)


def test_field_arithmetic_basics():
    f9 = FiniteField(3, 2)
    assert f9.order == 9
    # x * x = -1 = 2 with modulus x^2 + 1; x encodes as 3
    assert packed_mul(f9, 3, 3) == 2
    for a in range(1, 9):
        assert packed_mul(f9, a, packed_inv(f9, a)) == 1
    rng = random.Random(14)
    for _ in range(50):
        a, b = rng.randrange(9), rng.randrange(9)
        assert packed_frobenius(f9, packed_add(f9, a, b)) == packed_add(
            f9, packed_frobenius(f9, a), packed_frobenius(f9, b)
        )
        assert packed_frobenius(f9, packed_mul(f9, a, b)) == packed_mul(
            f9, packed_frobenius(f9, a), packed_frobenius(f9, b)
        )


ORACLE_FIELDS = (
    [(2, k) for k in range(1, 17)]
    + [(3, k) for k in range(1, 11)]
    + [(5, 4), (7, 5), (313, 2), (99991, 1)]
    # fields whose sums come closest to the packing bound
    + [(7, 3), (11, 3), (31, 2)]
)


@pytest.mark.parametrize("l, k", ORACLE_FIELDS)
def test_packed_field_agrees_with_digit_list_oracle(l, k):
    field = FiniteField(l, k)
    ref = DigitField(l, field.modulus)
    rng = random.Random(f"{l}:{k}")
    top = field.order - 1
    elems = [0, 1, top, l % field.order] + [rng.randrange(field.order) for _ in range(4)]
    # digits l - 1 and l - 2 push the product's fields to the top of their range
    heavy = [sum(rng.choice((l - 1, l - 2)) * l**i for i in range(k)) for _ in range(6)]
    pairs = [(a, b) for a in elems + heavy for b in elems + heavy]
    pairs += [(rng.randrange(field.order), rng.randrange(field.order)) for _ in range(40)]
    for a, b in pairs:
        assert packed_mul(field, a, b) == ref.mul(a, b)
        assert packed_add(field, a, b) == ref.add(a, b)
    for a in elems[:4] + elems[-2:]:
        for times in range(2 * k + 1):
            assert packed_frobenius(field, a, times) == ref.frobenius(a, times)
    # both routes read any int as its class mod l^k
    for a in (-1, -l, -field.order - 1, field.order, field.order + l + 1, 3 * field.order):
        assert field.decode(field.encode(a)) == a % field.order
        for b in (-2, 1, top):
            assert packed_mul(field, a, b) == ref.mul(a, b)
            assert packed_add(field, a, b) == ref.add(a, b)
        assert packed_frobenius(field, a) == ref.frobenius(a)
    # tau = Frobenius^d on L = F_(l^k) over E = F_(l^d), of order r = k / d
    for d in (d for d in range(1, k) if k % d == 0 and k // d >= 2):
        tower = FiniteFieldTower(l, d, k // d)
        assert tower.field.modulus == field.modulus
        for e in (0, top, rng.randrange(field.order)):
            image = e
            for times in range(2 * tower.r + 1):
                assert image == ref.frobenius(e, d * times)
                image = tower.tau(image)


@pytest.mark.parametrize("l, k", [(l, k) for l, k in ORACLE_FIELDS if l**k <= 2**12])
def test_encode_decode_round_trip(l, k):
    field = FiniteField(l, k)
    packed = [field.encode(e) for e in range(field.order)]
    assert [field.decode(v) for v in packed] == list(range(field.order))


def test_packed_mul_covers_every_field_sum_on_tight_fields():
    # every a against multipliers with large digits: the product's fields
    # take nearly every value up to k (l - 1)^2, where packing is tightest
    for l, k in ((31, 2), (7, 3)):
        field = FiniteField(l, k)
        ref = DigitField(l, field.modulus)
        multipliers = [
            sum(d * l**i for i, d in enumerate(digits))
            for digits in itertools.product((l // 2, l - 2, l - 1), repeat=k)
        ]
        for a in range(field.order):
            for b in multipliers:
                assert packed_mul(field, a, b) == ref.mul(a, b)


@pytest.mark.parametrize("l, k", [(31, 2), (7, 3), (313, 2), (99991, 1)])
def test_dot_covers_k_products_of_max_digit_elements(l, k):
    # k pairs with digits l - 1 and l - 2 put up to k^2 (l - 1)^2 in a field
    # before the one reduce; (313, 2) and (99991, 1) read digits as p > 256
    field = FiniteField(l, k)
    ref = DigitField(l, field.modulus)
    heavy = [
        sum(d * l**i for i, d in enumerate(digits))
        for digits in itertools.product((l - 1, l - 2), repeat=k)
    ]
    rng = random.Random(f"dot:{l}:{k}")
    cases = [([field.order - 1] * k, [field.order - 1] * k)]
    for _ in range(60):
        cases.append(([rng.choice(heavy) for _ in range(k)], [rng.choice(heavy) for _ in range(k)]))
    cases += [(us[:t], vs[:t]) for us, vs in cases[:8] for t in range(k)]
    for us, vs in cases:
        expected = functools.reduce(ref.add, map(ref.mul, us, vs), 0)
        got = field.dot([field.encode(u) for u in us], [field.encode(v) for v in vs])
        assert field.decode(got) == expected


@pytest.mark.parametrize(
    "l, d, r",
    [(3, 1, 2), (2, 1, 3), (5, 1, 2), (2, 2, 2), (3, 2, 3), (2, 5, 2), (2, 1, 8), (313, 1, 2)],
)
def test_ca_mul_agrees_with_reference_twisted_product(l, d, r):
    tower = FiniteFieldTower(l, d, r)
    ref = DigitField(l, tower.field.modulus)
    k, order = d * r, tower.field.order
    rng = random.Random(f"twisted:{l}:{d}:{r}")
    # norms are onto E^x: b = 1 and units of E other than 1
    bs = {1} | {tower.norm(rng.randrange(1, order)) for _ in range(6)}
    assert len(bs) > 1 or l**d == 2

    def heavy():
        return sum(rng.choice((l - 1, l - 2)) * l**i for i in range(k))

    def coefficients():
        kind = rng.randrange(4)
        if kind == 0:
            return [heavy() for _ in range(r)]
        if kind == 1:  # some coefficients zero
            return [rng.choice((0, heavy(), rng.randrange(order))) for _ in range(r)]
        if kind == 2:  # one nonzero coefficient
            slot = rng.randrange(r)
            return [heavy() if i == slot else 0 for i in range(r)]
        return [rng.randrange(order) for _ in range(r)]

    for b in sorted(bs):
        for _ in range(12):
            xs, ys = coefficients(), coefficients()
            x, y = algebra_element(tower, b, xs), algebra_element(tower, b, ys)
            assert ca_mul(x, y).coeffs == tuple(twisted_product(ref, d, b, xs, ys))
        top = [order - 1] * r
        zero = [0] * r
        for xs, ys in ((top, top), (top, zero), (zero, top)):
            x, y = algebra_element(tower, b, xs), algebra_element(tower, b, ys)
            assert ca_mul(x, y).coeffs == tuple(twisted_product(ref, d, b, xs, ys))


def test_tower_tau_and_base():
    tower = FiniteFieldTower(2, 1, 3)  # F_8 over F_2
    for e in range(8):
        assert tower.tau(tower.tau(tower.tau(e))) == e  # tau has order r
    assert tower.base_elements() == [0, 1]
    t32 = FiniteFieldTower(3, 1, 2)
    assert t32.base_elements() == [0, 1, 2]
    with pytest.raises(ValueError):
        FiniteFieldTower(3, 1, 1)


def test_norm_values():
    tower = FiniteFieldTower(3, 1, 2)
    # N(1 + x) = (1+x)(1-x) = 1 - x^2 = 2 with x^2 = -1
    assert tower.norm(4) == 2
    # base elements have norm b^r
    f = tower.field
    for b in (1, 2):
        assert tower.norm(b) == f.decode(f.pow(f.encode(b), 2))
    # norm lands in the base and is surjective onto units here
    norms = {tower.norm(e) for e in range(1, 9)}
    assert norms == {1, 2}


def test_solve_norm_frozen_and_roundtrip():
    tower = FiniteFieldTower(3, 1, 2)
    assert solve_norm(tower, 2) == 4
    for tower in (
        FiniteFieldTower(3, 1, 2),
        FiniteFieldTower(2, 1, 3),
        FiniteFieldTower(5, 1, 2),
    ):
        for b in tower.base_elements():
            if b == 0:
                continue
            w = solve_norm(tower, b)
            assert tower.norm(w) == b


def test_u_relations():
    tower = FiniteFieldTower(3, 1, 2)
    for b in (1, 2):
        u = algebra_element(tower, b, (0, 1))

        def scalar(c):
            return algebra_element(tower, b, (c, 0))

        # u^r equals the scalar b
        assert ca_mul(u, u) == scalar(b)
        # u c = tau(c) u for every scalar c
        for c in range(1, 9):
            left = ca_mul(u, scalar(c))
            right = ca_mul(scalar(tower.tau(c)), u)
            assert left == right


def test_associativity_and_distributivity_random():
    rng = random.Random(99)
    for l, d, r in ((3, 1, 2), (2, 1, 3)):
        tower = FiniteFieldTower(l, d, r)
        span = tower.field.order
        for _ in range(100):
            b = rng.choice([e for e in tower.base_elements() if e])
            x, y, z = (
                algebra_element(tower, b, [rng.randrange(span) for _ in range(r)])
                for _ in range(3)
            )
            assert ca_mul(ca_mul(x, y), z) == ca_mul(x, ca_mul(y, z))
            assert ca_mul(x, ca_add(y, z)) == ca_add(ca_mul(x, y), ca_mul(x, z))


def test_element_validation():
    tower = FiniteFieldTower(3, 1, 2)
    with pytest.raises(ValueError):
        algebra_element(tower, 0, (1, 0))  # b must be a unit
    with pytest.raises(ValueError):
        algebra_element(tower, 3, (1, 0))  # b must lie in the base
    with pytest.raises(ValueError):
        algebra_element(tower, 2, (1, 0, 0))  # wrong coefficient count
    for b in (-1, 9, 10):  # outside the encodings 0..8 of F_9
        assert not tower.is_in_base(b)
        with pytest.raises(ValueError):
            algebra_element(tower, b, (1, 0))


def test_coefficients_are_read_mod_field_order():
    # 9 and -1 are 0 and 8 in F_9: the element is stored canonically, so
    # equality, is_zero and the product with 1 agree on every representative
    tower = FiniteFieldTower(3, 1, 2)
    x = algebra_element(tower, 1, (9, -1))
    assert x.coeffs == (0, 8)
    assert x == algebra_element(tower, 1, (0, 8))
    assert ca_mul(x, ca_one(tower, 1)) == x
    assert algebra_element(tower, 1, (9, 0)).is_zero()
    assert algebra_element(tower, 1, (-9, 18)).is_zero()


def test_regular_representation_multiplicative():
    # det M(x y) = det M(x) det M(y) on the reference, with x y from ca_mul
    rng = random.Random(41)
    tower = FiniteFieldTower(3, 1, 2)
    ref = DigitField(3, tower.field.modulus)

    def det(x):
        return field_det(ref, regular_representation(ref, tower.d, x.b, x.coeffs))

    for _ in range(25):
        b = rng.choice((1, 2))
        x = algebra_element(tower, b, [rng.randrange(9) for _ in range(2)])
        y = algebra_element(tower, b, [rng.randrange(9) for _ in range(2)])
        assert det(ca_mul(x, y)) == ref.mul(det(x), det(y))


def test_split_certificate_properties():
    for l, d, r in ((3, 1, 2), (2, 1, 3), (5, 1, 2), (2, 2, 2), (2, 1, 4)):
        tower = FiniteFieldTower(l, d, r)
        ref = DigitField(l, tower.field.modulus)
        for b in (e for e in tower.base_elements() if e):
            cert = split_certificate(tower, b)
            assert tower.norm(cert.w) == b
            assert functools.reduce(ca_mul, [cert.v] * r) == ca_one(tower, b)
            assert not cert.z.is_zero()
            # v - 1 is nonzero and z (v - 1) = 0, by ca_mul and on the reference
            v_minus_1 = [ref.sub(c, int(i == 0)) for i, c in enumerate(cert.v.coeffs)]
            assert any(v_minus_1)
            assert ca_mul(cert.z, algebra_element(tower, b, v_minus_1)).is_zero()
            mat = regular_representation(ref, d, b, cert.z.coeffs)
            for row in mat:
                assert functools.reduce(ref.add, map(ref.mul, row, v_minus_1)) == 0
            assert field_det(ref, mat) == 0


def test_broken_certificate_raises(monkeypatch):
    tower = FiniteFieldTower(5, 1, 2)
    split_certificate(tower, 2)
    # a sum that drops its second term leaves z = 1, and v 1 != 1
    with monkeypatch.context() as m:
        m.setattr(cyclic_algebra, "ca_add", lambda x, y: x)
        with pytest.raises(InternalCheckError, match="v z != z"):
            split_certificate(tower, 2)
    # v = u w instead of u w^(-1) has v^2 = b^2 = 4
    with monkeypatch.context() as m:
        m.setattr(FiniteField, "inv", lambda self, a: a)
        with pytest.raises(InternalCheckError, match="v\\^r != 1"):
            split_certificate(tower, 2)


def test_split_certificate_norms_only_the_scan_and_its_preimage(monkeypatch):
    tower = FiniteFieldTower(3, 1, 2)
    w = solve_norm(tower, 2)
    calls = []
    real_norm = FiniteFieldTower.norm

    def counted_norm(self, e):
        calls.append(e)
        return real_norm(self, e)

    monkeypatch.setattr(FiniteFieldTower, "norm", counted_norm)
    assert split_certificate(tower, 2).w == w
    # solve_norm scans 1..w and stops at N(w) = b; nothing norms w again
    assert calls == list(range(1, w + 1))


def test_field_order_guard_before_modulus_search():
    for l, d, r in ((2, 100, 2), (2, 30, 3), (2, 10**9, 2), (317, 1, 2), (2, 1, 17)):
        with pytest.raises(SearchSpaceTooLarge, match=f"\\|L\\| = {l}\\^{d * r} > 100000"):
            FiniteFieldTower(l, d, r)
    assert FiniteFieldTower(2, 1, 16).field.order == 2**16 <= MAX_FIELD_ORDER
    assert FiniteFieldTower(313, 1, 2).field.order == 313**2 <= MAX_FIELD_ORDER
    with pytest.raises(ValueError, match="not prime"):
        FiniteFieldTower(4, 100, 2)  # a parse error still comes first


def test_index_ladder_identities():
    rows = index_ladder(2, 3)
    assert [row.index for row in rows] == [8, 4, 2]
    assert [row.centralizer_dim for row in rows] == [64, 16, 4]
    assert [row.base_degree for row in rows] == [1, 2, 4]
    assert [row.m for row in rows] == [2, 1, 0]
    with pytest.raises(ValueError):
        index_ladder(6, 2)
    with pytest.raises(ValueError):
        index_ladder(3, 0)
