"""The packed rref, rank, mat_mul and inverse against the flat-list
references in dense_rank_reference.py, on seeded inputs of every shape."""

import random

import pytest

import dense_rank_reference
from normtower import _kernels, fp_linalg
from normtower.errors import NotInvertible
from normtower.fp_linalg import FpMatrix

# all three packing.from_fields conversions: one-byte residues (2, 3, 251),
# up to 8 bytes (257, 65537, 2^61 - 1) and wider (2^89 - 1)
PRIMES = (2, 3, 251, 257, 65537, 2**61 - 1, 2**89 - 1)
SHAPES = ((1, 1), (1, 6), (6, 1), (5, 5), (9, 9), (4, 9), (9, 4), (3, 12), (12, 3))


def random_matrix(rng, rows, cols, p, kind):
    """A rows x cols matrix: "zero", "dense", "sparse" (70% zeros) or
    "deficient" (a product through an inner dimension below both sides)."""
    if kind == "zero":
        return [0] * (rows * cols)
    if kind == "dense":
        return [rng.randrange(p) for _ in range(rows * cols)]
    if kind == "sparse":
        return [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(rows * cols)]
    inner = rng.randint(0, max(0, min(rows, cols) - 1))
    left = [rng.randrange(p) for _ in range(rows * inner)]
    right = [rng.randrange(p) for _ in range(inner * cols)]
    return dense_rank_reference.mat_mul(left, right, rows, inner, cols, p)


KINDS = ("zero", "dense", "sparse", "deficient")


@pytest.mark.parametrize("p", PRIMES)
def test_rref_and_rank_match_the_reference(p):
    rng = random.Random(f"rref:{p}")
    for rows, cols in SHAPES:
        for kind in KINDS:
            for _ in range(3):
                mat = random_matrix(rng, rows, cols, p, kind)
                expected = dense_rank_reference.rref(mat, rows, cols, p)
                assert _kernels.rref(mat, rows, cols, p) == expected, (rows, cols, kind)
                assert _kernels.rank(mat, rows, cols, p) == expected[1]
    # rows e_i + (p - 1) e_9, then (1, ..., 1, 0): the last row reduces
    # against all nine, each adding (p - 1)(p - 1) to its last field, the
    # largest sum a field must hold
    mat = [x for i in range(9) for x in [int(i == j) for j in range(9)] + [p - 1]]
    mat += [1] * 9 + [0]
    assert _kernels.rref(mat, 10, 10, p) == dense_rank_reference.rref(mat, 10, 10, p)


@pytest.mark.parametrize("p", PRIMES)
def test_mat_mul_matches_the_reference(p):
    rng = random.Random(f"mat_mul:{p}")
    for rows, inner in SHAPES:
        for cols in (1, 4, 9):
            for kind in KINDS:
                a = random_matrix(rng, rows, inner, p, kind)
                b = random_matrix(rng, inner, cols, p, "dense")
                expected = dense_rank_reference.mat_mul(a, b, rows, inner, cols, p)
                assert list(_kernels.mat_mul(a, b, rows, inner, cols, p)) == expected
    # every entry p - 1: each field sums k products of the largest residues
    full = [p - 1] * 81
    assert list(_kernels.mat_mul(full, full, 9, 9, 9, p)) == [9 * (p - 1) ** 2 % p] * 81


@pytest.mark.parametrize("p", PRIMES)
def test_mat_mul_returns_bytes_up_to_256_else_a_list(p):
    product = _kernels.mat_mul([1, 0, 0, 1], [0, 1, 1, 0], 2, 2, 2, p)
    assert type(product) is (bytes if p <= 256 else list)


@pytest.mark.parametrize("p", [p for p in PRIMES if p < 2**64])
def test_inverse_matches_the_reference(p):
    rng = random.Random(f"inverse:{p}")
    for n in (1, 2, 5, 9):
        for kind in KINDS:
            mat = random_matrix(rng, n, n, p, kind)
            aug = []
            for i in range(n):
                aug += mat[i * n : (i + 1) * n] + [int(i == j) for j in range(n)]
            reduced, _, pivots = dense_rank_reference.rref(aug, n, 2 * n, p)
            if any(j >= n for j in pivots):
                with pytest.raises(NotInvertible):
                    fp_linalg.inverse(FpMatrix(p, n, n, mat))
                continue
            expected = [x for i in range(n) for x in reduced[i * 2 * n + n : (i + 1) * 2 * n]]
            assert fp_linalg.inverse(FpMatrix(p, n, n, mat)).entries == expected
