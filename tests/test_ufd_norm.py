import itertools
import random

import pytest

from normtower.errors import (
    InadmissibleSpec,
    InternalCheckError,
    MissingRootOfUnity,
    SearchSpaceTooLarge,
)
from normtower.mvalue import NEG_INF
from normtower.roots import RootOfUnityContent
from normtower.ufd_norm import MAX_WORK, m_from_root_content, proposition_check
from ufd_reference import PolyRing, orbit_norm, proposition_check_dict, rational_function


def mu(ring, index, power=1):
    """The monomial mu_index^power as an exponent dict."""
    exps = [0] * ring.g
    exps[index] = power
    return {tuple(exps): 1}


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(4, 2, 2)
    with pytest.raises(ValueError):
        PolyRing(3, 3, 2)  # n must divide g
    assert PolyRing(3, 4, 2).step == 2


def test_shift_cycles_variables():
    ring = PolyRing(3, 2, 2)
    f = mu(ring, 0)
    assert ring.shift_poly(f) == mu(ring, 1)
    assert ring.shift_poly(f, 2) == f


def test_orbit_norm_monomial():
    # N(mu_1) = mu_1 mu_2 for two variables swapped by the action
    ring = PolyRing(3, 2, 2)
    w = rational_function(ring, mu(ring, 0), ring.constant(1))
    norm = orbit_norm(w)
    assert norm.num == ring.mul(mu(ring, 0), mu(ring, 1))
    assert norm.den == ring.constant(1)


def test_orbit_norm_of_ratio_is_one():
    ring = PolyRing(3, 2, 2)
    w = rational_function(ring, mu(ring, 0), mu(ring, 1))
    norm = orbit_norm(w)
    assert norm.is_constant() and norm.constant_value() == 1


def test_orbit_norm_of_constant():
    ring = PolyRing(5, 2, 2)
    for c in range(1, 5):
        w = rational_function(ring, ring.constant(c), ring.constant(1))
        assert orbit_norm(w).constant_value() == pow(c, 2, 5)


def test_orbit_norm_is_shift_invariant():
    rng = random.Random(8)
    ring = PolyRing(3, 2, 2)
    monos = ring.monomials_upto(2)
    for _ in range(20):
        num = {m: rng.randrange(3) for m in rng.sample(monos, 3)}
        num = {m: c for m, c in num.items() if c}
        if not num:
            continue
        w = rational_function(ring, num, ring.constant(1))
        norm = orbit_norm(w)
        shifted = ring.shift_poly(norm.num, 1)
        assert ring.freeze(shifted) == ring.freeze(norm.num)


def test_rational_function_normal_form():
    ring = PolyRing(3, 2, 2)
    # mu1^2 mu2 / mu1 cancels monomial content to mu1 mu2
    a = rational_function(ring, ring.mul(mu(ring, 0, 2), mu(ring, 1)), mu(ring, 0))
    b = rational_function(ring, ring.mul(mu(ring, 0), mu(ring, 1)), ring.constant(1))
    assert a == b
    assert hash(a) == hash(b)
    # denominators are normalized monic
    c = rational_function(ring, ring.constant(1), ring.scalar_mul(2, mu(ring, 0)))
    assert c.den == mu(ring, 0)


def test_proposition_frozen_sets():
    r32 = proposition_check(3, 2, 2)
    assert r32.consistent
    assert set(r32.unit_norms) == set(r32.nth_powers) == {1}
    r52 = proposition_check(5, 2, 1)
    assert r52.consistent
    assert set(r52.unit_norms) == {1, 4}
    r33 = proposition_check(3, 3, 1)
    assert r33.consistent
    assert set(r33.unit_norms) == {1, 2}


def test_proposition_agrees_with_naive_enumeration():
    # small enough to enumerate every nonzero numerator/denominator pair
    l, n, deg = 3, 2, 1
    ring = PolyRing(l, n, n)
    monos = ring.monomials_upto(deg)
    polys = []
    for coeffs in itertools.product(range(l), repeat=len(monos)):
        f = {m: c for m, c in zip(monos, coeffs) if c}
        if f:
            polys.append(f)
    seen = set()
    for num in polys:
        for den in polys:
            w = rational_function(ring, num, den)
            value = orbit_norm(w).constant_value()
            if value is not None and value != 0:
                seen.add(value)
    report = proposition_check(l, n, deg)
    assert seen == set(report.unit_norms)


# every ufd-check scan the benchmark runs (its light and heavy lists, as
# (l, n, deg, g)), c07's three, and scans with more variables than those
ORACLE_SCANS = (
    (3, 2, 1, 2), (5, 2, 1, 2), (2, 2, 2, 2), (3, 3, 1, 3), (7, 1, 1, 1),
    (5, 2, 2, 2), (7, 2, 1, 4), (7, 1, 2, 2), (2, 3, 2, 3),
    (3, 2, 2, None), (5, 2, 1, None), (3, 3, 1, None),
    (2, 2, 1, 8), (3, 3, 1, 6), (2, 1, 2, 3), (5, 1, 0, 4), (3, 2, 0, 2),
)


@pytest.mark.parametrize("l, n, deg, g", ORACLE_SCANS)
def test_packed_scan_agrees_with_dict_oracle(l, n, deg, g):
    assert proposition_check(l, n, deg, g=g) == proposition_check_dict(l, n, deg, g=g)


def test_proposition_guards():
    with pytest.raises(SearchSpaceTooLarge):
        proposition_check(11, 2, 1)
    with pytest.raises(SearchSpaceTooLarge):
        proposition_check(3, 2, 3)
    # 15 monomials of degree <= 2 in 4 variables: (3^15 - 1) / 2 representatives
    with pytest.raises(SearchSpaceTooLarge, match="7174453 monic"):
        proposition_check(3, 2, 2, g=4)
    # fewer than 200,000 representatives, but times len(monos)^n past
    # MAX_WORK: these scans ran 8.7 s, 5.4 s and minutes
    for l, n, deg, g, count, terms in (
        (3, 3, 1, 9, 29524, 10), (2, 2, 1, 16, 131071, 17), (2, 3, 1, 15, 65535, 16)
    ):
        message = f"^{count} monic representatives times {terms}\\^{n} exceed {MAX_WORK}$"
        with pytest.raises(SearchSpaceTooLarge, match=message):
            proposition_check(l, n, deg, g=g)
    # listing the monomials first would take 10^12 tuples of 10^6 entries
    with pytest.raises(SearchSpaceTooLarge, match=r"\(2\^1000001 - 1\) / 1 monic"):
        proposition_check(2, 1, 1, g=10**6)
    # degree 0 has one monomial however many variables; listing it recurses
    with pytest.raises(SearchSpaceTooLarge, match="g = 1000000000000 variables > 512"):
        proposition_check(3, 2, 0, g=10**12)
    with pytest.raises(ValueError):
        proposition_check(3, 2, 1, g=5)  # n must divide g


def test_root_content_normalization():
    assert RootOfUnityContent.cyclotomic(6).value == 3  # Q(xi_6) = Q(xi_3)
    assert RootOfUnityContent.cyclotomic(4).value == 4
    with pytest.raises(ValueError):
        RootOfUnityContent.finite_field(6)
    content = RootOfUnityContent.finite_field(13)
    assert content.max_power(3) == 1  # 3 || 12
    assert content.max_power(2) == 2
    assert RootOfUnityContent.cyclotomic(16).max_power(2) == 4
    assert RootOfUnityContent.cyclotomic(16).max_power(3) == 0


def test_root_content_json_roundtrip():
    for content in (
        RootOfUnityContent.cyclotomic(8),
        RootOfUnityContent.finite_field(13),
    ):
        assert RootOfUnityContent.from_json(content.to_json()) == content


def test_m_from_root_content_chain():
    assert m_from_root_content(RootOfUnityContent.cyclotomic(8), 2, 3) == 0
    assert m_from_root_content(RootOfUnityContent.cyclotomic(16), 2, 3) == NEG_INF
    assert m_from_root_content(RootOfUnityContent.finite_field(13), 3, 2) == 1
    with pytest.raises(MissingRootOfUnity):
        m_from_root_content(RootOfUnityContent.cyclotomic(8), 3, 2)
