"""Both routes of the rank sequence against the dense reference in
dense_rank_reference.py, on seeded inputs: the successor-map lane that
nilpotent_rank_sequence takes on an N with at most one nonzero a row, and
the packed route, _packed_rank_sequence, that it takes on any other N."""

import importlib
import json
import random
from pathlib import Path

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
    """The kernel as called, and its packed route alone, against the reference."""
    expected = dense_rank_reference.nilpotent_rank_sequence(list(mat), n, p)
    assert _kernels.nilpotent_rank_sequence(list(mat), n, p) == expected
    assert _kernels._packed_rank_sequence(list(mat), n, p) == expected
    return expected


# every route, for the inputs each must refuse as not nilpotent
ROUTES = (
    dense_rank_reference.nilpotent_rank_sequence,
    _kernels.nilpotent_rank_sequence,
    _kernels._packed_rank_sequence,
)


def assert_refused(mat, n, p):
    for route in ROUTES:
        with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
            route(list(mat), n, p)


class Declined(Exception):
    """Raised by the packed route while takes_lane watches."""


def takes_lane(mat, n, p):
    """Whether nilpotent_rank_sequence answers or refuses N without its packed route."""

    def packed(mat, n, p):
        raise Declined

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_packed_rank_sequence", packed)
        try:
            _kernels.nilpotent_rank_sequence(mat, n, p)
        except Declined:
            return False
        except ValueError:
            pass
    return True


def test_pure_rank_sequence_known_values():
    # single Jordan block of size 3: ranks drop by one each step
    j3 = [0, 1, 0, 0, 0, 1, 0, 0, 0]
    assert _kernels.nilpotent_rank_sequence(j3, 3, 5) == [3, 2, 1, 0]
    assert _kernels.nilpotent_rank_sequence([0], 1, 2) == [1, 0]


def test_one_by_one():
    for p in PRIMES:
        assert takes_lane([0], 1, p)
        assert assert_agree([0], 1, p) == [1, 0]
        for mat in ([1], [p - 1]):
            assert takes_lane(mat, 1, p)
            assert_refused(mat, 1, p)


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
            assert_refused(mat, n, p)


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
            assert_refused(mat, n, p)


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
            assert_refused(dense, n, p)


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
            assert_refused(dense, n, p)


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


def partial_monomial(rng, n, p, edges):
    """N with the nonzero scalar c_j at (j, q) for each edge j -> q."""
    mat = [0] * (n * n)
    for j, q in edges:
        mat[j * n + q] = rng.randrange(1, p)
    return mat


def test_lane_declines_a_row_with_two_nonzeros():
    # the shift J with one more nonzero in row 0: n nonzeros in all
    rng = random.Random(21)
    for p in PRIMES:
        for n in (3, 5, 12):
            mat = partial_monomial(rng, n, p, [(j, j + 1) for j in range(n - 1)] + [(0, n - 1)])
            assert mat.count(0) == n * n - n
            assert not takes_lane(mat, n, p)
            assert assert_agree(mat, n, p)[1] == n - 1


def test_lane_declines_more_than_n_nonzeros():
    # strictly upper triangular and full: one Jordan block, n(n - 1) / 2 nonzeros
    for p in PRIMES:
        for n in (4, 9):
            mat = [1 if j > i else 0 for i in range(n) for j in range(n)]
            assert not takes_lane(mat, n, p)
            assert assert_agree(mat, n, p) == list(range(n, -1, -1))


def test_lane_on_the_zero_matrix():
    for p in PRIMES:
        for n in (1, 2, 7, 24):
            assert takes_lane([0] * (n * n), n, p)
            assert assert_agree([0] * (n * n), n, p) == [n, 0]


def test_lane_on_merging_walks():
    # 0 -> 2, 1 -> 2, 2 -> 3: two walks of length 2 end at 3
    for p in PRIMES:
        mat = partial_monomial(random.Random(p), 4, p, [(0, 2), (1, 2), (2, 3)])
        assert takes_lane(mat, 4, p)
        assert assert_agree(mat, 4, p) == [4, 2, 1, 0]
    # random forests: each j -> q with q later in a random order, so walks
    # merge and N is nilpotent
    rng = random.Random(22)
    for p in PRIMES:
        for n in DIMS:
            order = rng.sample(range(n), n)
            edges = [(j, rng.choice(order[k + 1 :])) for k, j in enumerate(order[:-1])]
            mat = partial_monomial(rng, n, p, rng.sample(edges, rng.randint(0, len(edges))))
            assert takes_lane(mat, n, p)
            assert_agree(mat, n, p)


def test_lane_refuses_scaled_cycles():
    # a cycle of length k with nonzero scalars, fed by a walk that merges
    # into it and beside a shift: the ranks stall at k
    rng = random.Random(23)
    for p in PRIMES:
        for k in (1, 2, 5):
            n = k + 6
            cycle = [(j, (j + 1) % k) for j in range(k)]
            tail = [(k, k + 1), (k + 1, 0)]
            shift = [(j, j + 1) for j in range(k + 2, n - 1)]
            mat = partial_monomial(rng, n, p, cycle + tail + shift)
            assert takes_lane(mat, n, p)
            assert_refused(mat, n, p)


def test_lane_on_one_jordan_block_at_512():
    # too large for the dense reference: the ranks of one block fall by one
    # a step, on the lane and on the packed route
    n = 512
    for p in (2**61 - 1, 2, 7):
        mat = partial_monomial(random.Random(p), n, p, [(j, j + 1) for j in range(n - 1)])
        assert takes_lane(mat, n, p)
        assert _kernels.nilpotent_rank_sequence(mat, n, p) == list(range(n, -1, -1))
    assert _kernels._packed_rank_sequence(mat, n, 7) == list(range(n, -1, -1))


@pytest.mark.parametrize("p", [2, 251, 257, 2**61 - 1])
def test_lane_reads_every_buffer_form(p):
    # the lane finds the nonzeros of bytes-like buffers with translate and
    # find, and of lists with compress
    forms = (bytes, bytearray, list) if p <= 256 else (list,)
    rng = random.Random(p)
    for n in (1, 6, 24, 61):
        for nilpotent in (True, False):
            edges = [(j, j + 1) for j in range(n - 1) if rng.random() < 0.8]
            if not nilpotent:
                edges = [(j, q) for j, q in edges if j] + [(0, n - 1), (n - 1, 0)] * (n > 1)
                edges = edges or [(0, 0)]
            mat = partial_monomial(rng, n, p, edges)
            for form in forms:
                assert takes_lane(form(mat), n, p)
            if nilpotent:
                expected = assert_agree(mat, n, p)
                for form in forms:
                    assert _kernels.nilpotent_rank_sequence(form(mat), n, p) == expected
            else:
                assert_refused(mat, n, p)
                for form in forms:
                    with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
                        _kernels.nilpotent_rank_sequence(form(mat), n, p)


def benchmark_inputs(monkeypatch, workload, seed):
    """p, n and N = sigma - 1 of every module of the benchmark's pass 0,
    built by perfbench/gen.py, which does not import normtower."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    gen = importlib.import_module("gen")
    for op in gen.make_ops(workload, seed, 0):
        module = json.loads(op.files["module"])
        p, sigma = module["p"], module["sigma"]
        n = len(sigma)
        yield [(x - (i == j)) % p for i, row in enumerate(sigma) for j, x in enumerate(row)], n, p


@pytest.mark.parametrize("seed", [0, 2027])
def test_benchmark_module_workloads_sit_on_either_side_of_the_lane(monkeypatch, seed):
    # every modules-sparse input, rejects included, is in Jordan form; no
    # modules-dense input is. A generator or kernel change that moves a
    # workload across the route selection fails here.
    sparse = [takes_lane(*args) for args in benchmark_inputs(monkeypatch, "modules-sparse", seed)]
    dense = [takes_lane(*args) for args in benchmark_inputs(monkeypatch, "modules-dense", seed)]
    assert len(sparse) == len(dense) == 100
    assert all(sparse)
    assert not any(dense)
