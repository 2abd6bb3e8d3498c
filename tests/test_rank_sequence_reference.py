"""The sparse pure rank sequence against the dense reference in
dense_rank_reference.py, on seeded inputs that need no compiled kernels."""

import random

import pytest

import dense_rank_reference
from normtower import galois_module
from normtower._kernels import _core_py
from normtower.fp_linalg import FpMatrix

PRIMES = (2, 3, 5, 7, 251, 4294967311, 2**61 - 1)
DIMS = range(1, 25)


def exponent_for(p, dim):
    """Least e >= 1 with p^e >= dim, so every block size up to dim is allowed."""
    e = 1
    while p**e < dim:
        e += 1
    return e


def nilpotent_part(mod):
    return (mod.sigma - FpMatrix.identity(mod.p, mod.dim)).entries


def assert_agree(mat, n, p):
    expected = dense_rank_reference.nilpotent_rank_sequence(list(mat), n, p)
    assert _core_py.nilpotent_rank_sequence(list(mat), n, p) == expected
    return expected


def test_one_by_one():
    for p in PRIMES:
        assert assert_agree([0], 1, p) == [1, 0]
        for mat in ([1], [p - 1]):
            with pytest.raises(ValueError, match="not nilpotent"):
                _core_py.nilpotent_rank_sequence(mat, 1, p)


def test_block_diagonal_modules():
    rng = random.Random(11)
    for p in PRIMES:
        for dim in DIMS:
            sizes = []
            while sum(sizes) < dim:
                sizes.append(rng.randint(1, dim - sum(sizes)))
            mod = galois_module.module_from_profile(p, exponent_for(p, dim), sizes)
            ranks = assert_agree(nilpotent_part(mod), dim, p)
            assert list(mod._ranks) == ranks


def test_random_gmodule_conjugates():
    for p in PRIMES:
        for dim in DIMS:
            mod = galois_module.random_gmodule(p, exponent_for(p, dim), dim, seed=dim)
            ranks = assert_agree(nilpotent_part(mod), dim, p)
            assert list(mod._ranks) == ranks


def test_strictly_upper_triangular():
    rng = random.Random(12)
    for p in PRIMES:
        for n in DIMS:
            density = rng.choice((0.1, 0.5, 1.0))
            mat = [0] * (n * n)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        mat[i * n + j] = rng.randrange(p)
            assert_agree(mat, n, p)


def test_sparse_non_nilpotent_rejected_by_both():
    rng = random.Random(13)
    for p in PRIMES:
        for n in DIMS:
            mat = [0] * (n * n)
            for _ in range(rng.randint(0, 2 * n)):
                mat[rng.randrange(n * n)] = rng.randrange(p)
            # a nonzero trace rules out nilpotency
            trace = sum(mat[i * n + i] for i in range(n)) % p
            k = rng.randrange(n)
            mat[k * n + k] = (mat[k * n + k] - trace + rng.randrange(1, p)) % p
            with pytest.raises(ValueError, match="not nilpotent"):
                dense_rank_reference.nilpotent_rank_sequence(list(mat), n, p)
            with pytest.raises(ValueError, match="not nilpotent"):
                _core_py.nilpotent_rank_sequence(list(mat), n, p)


def test_trace_zero_non_nilpotent_rejected_by_both():
    # a nilpotent Jordan block beside the swap [[0, 1], [1, 0]]: the ranks
    # fall while the block dies out, then stall at 2
    for p in PRIMES:
        for k in range(1, 6):
            n = k + 2
            mat = [0] * (n * n)
            for i in range(k - 1):
                mat[i * n + i + 1] = 1
            mat[k * n + k + 1] = mat[(k + 1) * n + k] = 1
            for kernel in (dense_rank_reference, _core_py):
                with pytest.raises(ValueError, match="not nilpotent"):
                    kernel.nilpotent_rank_sequence(list(mat), n, p)
