import random
from fractions import Fraction

import pytest

from normtower.errors import FactorizationError
from normtower.numtheory import (
    factorize,
    is_prime,
    legendre,
    valuation,
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
    with pytest.raises(FactorizationError):
        factorize((10**7 + 19) * (10**7 + 79))


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
