import random
from fractions import Fraction

import pytest

from normtower.errors import FactorizationError
from normtower.numtheory import (
    MR_EXACT_BELOW,
    factorize,
    is_prime,
    legendre,
    valuation,
    whole,
)
from padic_reference import sqrt_mod_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_deterministic():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    # strong pseudoprime to base 2, caught by the extended base list
    assert not is_prime(3215031751)
    # strong pseudoprimes to every base 2-37, and to 2-41
    assert not is_prime(318665857834031151167461)
    assert MR_EXACT_BELOW == 1287836182261 * 2575672364521
    # a composite past the exact bound is still False
    assert not is_prime((2**89 - 1) * (2**61 - 1))


@pytest.mark.parametrize("n", [MR_EXACT_BELOW, 2**89 - 1, 10**30 + 57])
def test_is_prime_refuses_what_it_cannot_prove(n):
    # MR_EXACT_BELOW passes every base but is composite; the others are prime
    with pytest.raises(FactorizationError) as err:
        is_prime(n)
    assert str(err.value) == (
        f"{n} passes every Miller-Rabin base; primality is proved only below {MR_EXACT_BELOW}"
    )


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(24, 3) == 1
    assert valuation(24, 5) == 0
    assert valuation(-54, 3) == 3


def test_factorize_integers():
    sign, fac = factorize(360)
    assert sign == 1 and fac == {2: 3, 3: 2, 5: 1}
    sign, fac = factorize(-17)
    assert sign == -1 and fac == {17: 1}


def test_factorize_fractions():
    sign, fac = factorize(Fraction(-9, 20))
    assert sign == -1
    assert fac == {3: 2, 2: -2, 5: -1}


def test_factorize_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        sign, fac = factorize(n)
        prod = sign
        for q, e in fac.items():
            assert is_prime(q)
            prod *= q**e
        assert prod == n


def test_factorize_rejects_huge_cofactor():
    composite = (10**7 + 19) * (10**7 + 79)
    for smooth in (1, 2**40):
        with pytest.raises(FactorizationError) as err:
            factorize(smooth * composite)
        assert str(err.value) == f"composite cofactor {composite} exceeds trial bound"


@pytest.mark.parametrize(
    "n, digits",
    [
        (MR_EXACT_BELOW, 25),
        # a prime that is_prime cannot prove
        (10**30 + 57, 31),
        (-(2**5) * (10**30 + 57) ** 2, 61),
        (3**30 * (10**30 + 57), 31),
    ],
)
def test_factorize_refuses_a_cofactor_past_the_exact_bound(n, digits):
    with pytest.raises(FactorizationError) as err:
        factorize(Fraction(3, n))
    assert str(err.value) == (
        f"cofactor of {digits} digits survives trial division; "
        f"primality is proved only below {MR_EXACT_BELOW}"
    )


def test_factorize_smooth_past_the_exact_bound():
    assert factorize(10**4000) == (1, {2: 4000, 5: 4000})
    assert factorize(Fraction(-(3**100), 7 * 2**90)) == (-1, {2: -90, 3: 100, 7: -1})


@pytest.mark.parametrize(
    "n, expected",
    [
        (2**40 * 1000003, (1, {2: 40, 1000003: 1})),
        (3**30 * 999983, (1, {3: 30, 999983: 1})),
        (Fraction(-(5**12), 7 * 1000003), (-1, {5: 12, 7: -1, 1000003: -1})),
        (999983 * 1000003, (1, {999983: 1, 1000003: 1})),
        (2 * 999983**2, (1, {2: 1, 999983: 2})),
    ],
)
def test_factorize_smooth_times_prime(n, expected):
    # trial division stops once d * d passes the cofactor left, not n
    assert factorize(n) == expected


def test_factorize_keeps_a_prime_cofactor_past_the_trial_bound():
    # 10^13 + 37 is prime and above 10^12 = _TRIAL_BOUND^2, so trial division
    # leaves it whole and is_prime admits it
    prime = 10**13 + 37
    assert factorize(2 * prime) == (1, {2: 1, prime: 1})
    assert factorize(Fraction(1, prime)) == (1, {prime: -1})


def test_whole():
    assert whole(5, "x") == 5
    assert whole(-3, "x", ceiling=0) == -3
    assert whole(3, "x", floor=3, ceiling=3) == 3
    for bad, message in (
        (True, "x must be an integer, got True"),
        (2.0, "x must be an integer, got 2.0"),
        (None, "x must be an integer, got None"),
    ):
        with pytest.raises(ValueError) as err:
            whole(bad, "x", floor=0)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        whole(0, "n", floor=1)
    assert str(err.value) == "n must be >= 1"
    with pytest.raises(FactorizationError) as err:
        whole(65, "n", ceiling=64, error=FactorizationError)
    assert str(err.value) == "n must be at most 64, got 65"
    # an int past what Python prints is named by its size
    with pytest.raises(ValueError) as err:
        whole(10**5000, "n", ceiling=64)
    assert str(err.value) == "n must be at most 64, got <int of 16610 bits>"


def test_legendre():
    # squares mod 11: 1 3 4 5 9
    for a in range(1, 11):
        assert legendre(a, 11) == (1 if a in {1, 3, 4, 5, 9} else -1)
    assert legendre(22, 11) == 0


def test_sqrt_mod_prime():
    rng = random.Random(3)
    for p in (3, 5, 13, 17, 97, 101):
        for _ in range(20):
            x = rng.randrange(1, p)
            r = sqrt_mod_prime(x * x % p, p)
            assert r * r % p == x * x % p
