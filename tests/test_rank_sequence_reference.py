"""The packed rank sequence against the dense reference in
dense_rank_reference.py, on seeded inputs."""

import random

import pytest

import dense_rank_reference
from normtower import _kernels, galois_module, packing

PRIMES = (2, 3, 5, 7, 251, 4294967311, 2**61 - 1)
DIMS = range(1, 25)
# primes on both sides of the one-byte residue conversion (251, 257), and
# generic conversions with residues of 2, 4 and 12 bytes
PACKING_PRIMES = (251, 257, 65537, 4294967311, 2**89 - 1)


def exponent_for(p, dim):
    """Least e >= 1 with p^e >= dim, so every block size up to dim is allowed."""
    e = 1
    while p**e < dim:
        e += 1
    return e


def nilpotent_part(mod):
    rows = mod.sigma.to_rows()
    return [(x - (i == j)) % mod.p for i, row in enumerate(rows) for j, x in enumerate(row)]


def assert_agree(mat, n, p):
    expected = dense_rank_reference.nilpotent_rank_sequence(list(mat), n, p)
    assert _kernels.nilpotent_rank_sequence(list(mat), n, p) == expected
    return expected


def test_pure_rank_sequence_known_values():
    # single Jordan block of size 3: ranks drop by one each step
    j3 = [0, 1, 0, 0, 0, 1, 0, 0, 0]
    assert _kernels.nilpotent_rank_sequence(j3, 3, 5) == [3, 2, 1, 0]
    assert _kernels.nilpotent_rank_sequence([0], 1, 2) == [1, 0]


def test_one_by_one():
    for p in PRIMES:
        assert assert_agree([0], 1, p) == [1, 0]
        for mat in ([1], [p - 1]):
            with pytest.raises(ValueError, match="not nilpotent"):
                _kernels.nilpotent_rank_sequence(mat, 1, p)


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
                _kernels.nilpotent_rank_sequence(list(mat), n, p)


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
            for kernel in (dense_rank_reference, _kernels):
                with pytest.raises(ValueError, match="not nilpotent"):
                    kernel.nilpotent_rank_sequence(list(mat), n, p)


def jordan_nilpotent(rng, n, largest):
    """N of a random partition of n into blocks of at most `largest`, and
    its rank sequence, sum over the blocks of max(0, size - k)."""
    mat = [0] * (n * n)
    sizes = []
    while sum(sizes) < n:
        at = sum(sizes)
        sizes.append(min(rng.randint(1, largest), n - at))
        for i in range(at, at + sizes[-1] - 1):
            mat[i * n + i + 1] = 1
    ranks = [sum(max(0, s - k) for s in sizes) for k in range(max(sizes) + 1)]
    return mat, ranks


def conjugate(rng, mat, n, p, rounds=4):
    """q^-1 N q for q a product of random transvections I + c e_i e_j^T,
    dense after a few sweeps over the columns."""
    rows = [mat[i * n : (i + 1) * n] for i in range(n)]
    for _ in range(rounds):
        for j in range(n):
            i = rng.randrange(n - 1)
            i += i >= j
            c = rng.randrange(1, p)
            for r in rows:  # column j += c * column i
                r[j] = (r[j] + c * r[i]) % p
            rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[j])]
    return [x for r in rows for x in r]


def test_dense_conjugated_modules():
    rng = random.Random(14)
    dims = [40, 60, 80, 100]
    rng.shuffle(dims)
    for p, n in zip((2, 3, 5, 7), dims):
        mat, ranks = jordan_nilpotent(rng, n, rng.choice((4, 16, n)))
        dense = conjugate(rng, mat, n, p)
        assert dense.count(0) < n * n * 0.7
        assert assert_agree(dense, n, p) == ranks


def test_worst_case_sums():
    # N strictly upper triangular with every entry p - 1, so that the
    # mat-vec sums reach (n - 1)(p - 1)^2, next to the bound the field width
    # is set by. N = (1 - p) J (1 - J)^-1 for the shift J: one Jordan block.
    for p in (2, 3, 251, 4294967311, 2**61 - 1) + PACKING_PRIMES:
        for n in DIMS:
            mat = [p - 1 if j > i else 0 for i in range(n) for j in range(n)]
            assert assert_agree(mat, n, p) == list(range(n, -1, -1))


def test_reduce_every_field_value():
    # every value below 2^h in every field at once, its neighbours holding
    # other values, must come back reduced mod p
    for p in (2, 3, 5, 7, 11):
        for n in (1, 2, 3, 8, 24):
            h = (n * (p - 1) ** 2 + p).bit_length()
            size, s, m, qmask = packing.layout(n, p)
            width = 8 * size
            top = (1 << h) - 1
            for x in range(1 << h):
                fields = [x if i % 2 == 0 else top - x for i in range(n)]
                packed = sum(v << (width * i) for i, v in enumerate(fields))
                reduced = packing.reduce(packed, p, m, s, qmask)
                assert reduced == sum((v % p) << (width * i) for i, v in enumerate(fields))


def test_field_bytes_round_trip():
    rng = random.Random(15)
    for p in (2,) + PACKING_PRIMES:
        for n in (1, 5, 24):
            size = packing.layout(n, p)[0]
            values = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(n)]
            raw = packing.to_fields(values, p, size)
            assert int.from_bytes(raw, "little") == sum(
                v << (8 * size * i) for i, v in enumerate(values)
            )
            assert list(packing.from_fields(raw, p, size)) == values


def embed(mat, k, n):
    """The k x k matrix mat as the top-left block of an n x n zero matrix."""
    wide = [0] * (n * n)
    for i in range(k):
        wide[i * n : i * n + k] = mat[i * k : (i + 1) * k]
    return wide


def mostly_one_blocks(rng, n, p):
    """N of Jordan blocks of up to 4 or 8 filling n // 3 rows and blocks of
    size 1 filling the rest, conjugated dense as the modules-dense inputs
    are, and its rank sequence: rank(N) is low, so most images reduce to
    zero against a small basis."""
    k = n // 3
    mat, ranks = jordan_nilpotent(rng, k, rng.choice((4, 8)))
    return conjugate(rng, embed(mat, k, n), n, p), [n] + ranks[1:]


def test_low_rank_dense_conjugates():
    # p = 257 reads the basis coefficients through the multi-byte field codec
    rng = random.Random(16)
    for p in (2, 3, 5, 7, 251, 257):
        for n in (12, 30, 61):
            mat, ranks = mostly_one_blocks(rng, n, p)
            assert mat.count(0) < n * n * 0.7
            assert ranks[1] <= n // 3
            assert assert_agree(mat, n, p) == ranks


def test_new_pivot_cleared_from_an_earlier_kept_vector():
    # rows e5 + e7, e7, e5 + e8 of N: the second row's pivot 7 must be
    # cleared from the first, or the third reduces to c e8 - e7, which lands on
    # the kept pivot 7 and the rank reads 2 instead of 3
    n = 9
    for p in (2, 3, 7, 257):
        for c in {1, min(2, p - 1), p - 1}:
            mat = [0] * (n * n)
            mat[0 * n + 5] = mat[0 * n + 7] = c
            mat[1 * n + 7] = 1
            mat[2 * n + 5] = 1
            mat[2 * n + 8] = c
            assert assert_agree(mat, n, p) == [9, 3, 0]


def test_scaled_jordan_shift():
    # N = c J: every image c e_(i+1) is normalized to the unit vector e_(i+1),
    # whose image is read straight off N as c e_(i+2)
    for p in (3, 5, 7, 251, 257, 4294967311):
        for n in (1, 2, 7, 24):
            for c in {2, p - 1, p // 2}:
                mat = [c if j == i + 1 else 0 for i in range(n) for j in range(n)]
                assert assert_agree(mat, n, p) == list(range(n, -1, -1))


def test_dense_non_nilpotent_rejected_by_both():
    # a nonzero eigenvalue, or the trace-zero swap [[0, 1], [1, 0]], beside
    # nilpotent blocks, conjugated dense
    rng = random.Random(17)
    for p in (2, 3, 5, 7, 251, 257):
        for n in (6, 20, 45):
            mat, _ = jordan_nilpotent(rng, n - 2, 4)
            wide = embed(mat, n - 2, n)
            if rng.random() < 0.5:
                wide[(n - 1) * n + n - 1] = rng.randrange(1, p)
            else:
                wide[(n - 2) * n + n - 1] = wide[(n - 1) * n + n - 2] = 1
            dense = conjugate(rng, wide, n, p)
            for kernel in (dense_rank_reference, _kernels):
                with pytest.raises(ValueError, match="not nilpotent"):
                    kernel.nilpotent_rank_sequence(list(dense), n, p)


def restrictions(ranks):
    """The dimensions a dense input with these ranks is restricted to on
    the way: a step restricts when its rank is at most half the dimension
    it ran in (and its basis held a non-unit vector, as a dense conjugate's
    does), unless the sequence ends or stalls there."""
    d, dims = ranks[0], []
    for prev, r in zip(ranks, ranks[1:]):
        if 0 < r < prev and 2 * r <= d:
            dims.append(r)
            d = r
    return dims


# from_fields' one-byte route (p <= 256) and its tuple route (p > 256),
# with fields of 1 to 33 bytes
RESTRICT_PRIMES = (2, 3, 7, 251, 65537, 2**61 - 1)


def test_dense_conjugates_of_small_blocks_restrict_to_the_image():
    # blocks of at most 4 halve the rank within two steps, so the rest of
    # the sequence runs on the image, in a narrower layout
    rng = random.Random(18)
    dims = [40, 55, 70, 85, 100, 115, 130, 45, 60, 75, 90, 125]
    narrower = 0
    for i, n in enumerate(dims):
        p = RESTRICT_PRIMES[i % len(RESTRICT_PRIMES)]
        mat, ranks = jordan_nilpotent(rng, n, rng.choice((3, 4)))
        dense = conjugate(rng, mat, n, p)
        assert dense.count(0) < n * n * 0.7
        assert restrictions(ranks)
        narrower += packing.layout(restrictions(ranks)[-1], p)[0] < packing.layout(n, p)[0]
        assert assert_agree(dense, n, p) == ranks
    assert narrower >= 6


def test_dense_non_nilpotent_stalls_after_a_restriction():
    # Jordan blocks of 3 and 1 beside the swap [[0, 1], [1, 0]]: the ranks
    # halve while the blocks die out, so the stall at rank 2 is found on
    # the image
    rng = random.Random(19)
    for p in RESTRICT_PRIMES:
        for threes, ones in ((4, 14), (9, 25)):
            k = 3 * threes + ones
            n = k + 2
            mat = [0] * (n * n)
            for b in range(threes):
                mat[3 * b * n + 3 * b + 1] = mat[(3 * b + 1) * n + 3 * b + 2] = 1
            mat[k * n + k + 1] = mat[(k + 1) * n + k] = 1
            assert restrictions([n, 2 * threes + 2, threes + 2, 2, 2])
            dense = conjugate(rng, mat, n, p)
            for kernel in (dense_rank_reference, _kernels):
                with pytest.raises(ValueError, match="not nilpotent"):
                    kernel.nilpotent_rank_sequence(list(dense), n, p)


def test_large_dense_conjugate_keeps_the_block_ranks():
    # too large for the dense reference: conjugation leaves the ranks of
    # the block-diagonal N
    rng = random.Random(20)
    n, p = 240, 5
    mat, ranks = jordan_nilpotent(rng, n, 6)
    dense = conjugate(rng, mat, n, p)
    assert dense.count(0) < n * n * 0.7
    assert len(restrictions(ranks)) >= 2
    assert _kernels.nilpotent_rank_sequence(dense, n, p) == ranks
