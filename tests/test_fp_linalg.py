import random
import re

import pytest

from normtower import _kernels, fp_linalg
from normtower.errors import NormTowerError, NotInvertible
from normtower.fp_linalg import FpMatrix


def identity(p, n):
    return FpMatrix(p, n, n, [int(i == j) for i in range(n) for j in range(n)])


def zeros(p, rows, cols):
    return FpMatrix(p, rows, cols, [0] * (rows * cols))


def rref(a):
    return _kernels.rref(a.entries, a.rows, a.cols, a.p)


def kernel_basis(a):
    """Right-kernel basis from the RREF free columns, a cross-check on `rank`.

    The basis vector for free column j has 1 in slot j and the negated
    RREF column above the pivots; vectors come in ascending j.
    """
    reduced, _, pivots = rref(a)
    basis = []
    for j in range(a.cols):
        if j in pivots:
            continue
        v = [0] * a.cols
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i * a.cols + j]) % a.p
        basis.append(tuple(v))
    return basis


def test_matrix_construction_validates():
    with pytest.raises(ValueError):
        FpMatrix(4, 1, 1, [0])  # modulus must be prime
    with pytest.raises(ValueError):
        FpMatrix(3, 2, 2, [0, 1, 2])  # wrong entry count
    m = FpMatrix.from_rows(3, [[4, -1], [0, 2]])
    assert m.to_rows() == [[1, 2], [0, 2]]


RESIDUE_CASES = {
    "reduced": lambda p: [0, 1, p - 1, 1, 0, p - 1],
    "negative": lambda p: [-1, -p, 0, -2 * p - 3, 1, -255],
    "at or past p": lambda p: [p, p + 1, 2 * p - 1, 0, 3 * p, 1],
    "255 and 256": lambda p: [255, 256, 0, 1, 255, 256],
    "large": lambda p: [2**64, 2**61 - 1, 10**30 + 7, -(2**70), 0, 1],
}


@pytest.mark.parametrize("make", RESIDUE_CASES.values(), ids=RESIDUE_CASES.keys())
@pytest.mark.parametrize("p", [2, 3, 251, 257, 2**61 - 1])
def test_entries_are_the_residues_of_the_input(p, make):
    entries = make(p)
    assert FpMatrix(p, 2, 3, entries).entries == [x % p for x in entries]
    assert FpMatrix(p, 2, 3, tuple(entries)).entries == [x % p for x in entries]


@pytest.mark.parametrize("make", RESIDUE_CASES.values(), ids=RESIDUE_CASES.keys())
@pytest.mark.parametrize("p", [2, 251, 257, 2**61 - 1])
def test_from_rows_reads_the_rows_as_the_flat_constructor(p, make):
    entries = make(p)
    rows = [entries[:3], entries[3:]]
    flat = FpMatrix(p, 2, 3, entries)
    for m in (FpMatrix.from_rows(p, rows), FpMatrix.from_rows(p, tuple(map(tuple, rows)))):
        assert m == flat and flat == m
        assert m.entries == flat.entries == [x % p for x in entries]
        assert [m.row(i) for i in (0, 1, -1)] == [flat.row(i) for i in (0, 1, -1)]
        assert m.to_rows() == flat.to_rows() == [[x % p for x in row] for row in rows]
    # the same buffer in another shape is another matrix
    assert FpMatrix.from_rows(p, [entries]) != flat


@pytest.mark.parametrize(
    "p, rows",
    [
        (2, [[1, True], [0, 1]]),
        (3, [[1, 2.0], [0, 1]]),
        (251, [["1", 0], [0, 1]]),
        (257, [[None, 0], [0, 1]]),
        (4, [[1, True], [0, 1]]),  # a non-int entry is refused before the modulus
        (4, [[1, 0], [0, 1]]),
        (1, [[1, 0], [0, 1]]),
        (True, [[1, 0], [0, 1]]),
        (2**61 + 1, [[1, 0], [0, 1]]),
        (3, [[], []]),
    ],
)
def test_from_rows_refuses_as_the_flat_constructor(p, rows):
    flat = [x for row in rows for x in row]
    with pytest.raises((ValueError, NormTowerError)) as expected:
        FpMatrix(p, len(rows), len(rows[0]), flat)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        FpMatrix.from_rows(p, rows)


@pytest.mark.parametrize("p", [2, 251, 257, 2**61 - 1])
def test_computed_matrices_equal_the_matrices_of_their_entries(p):
    rng = random.Random(p)
    a = fp_linalg.random_invertible(p, 4, rng)
    for m in (a, fp_linalg.inverse(a), fp_linalg.mat_mul(a, a)):
        assert FpMatrix(p, 4, 4, m.entries) == m
        assert FpMatrix.from_rows(p, m.to_rows()) == m


def test_entries_are_a_new_list_each_time():
    m = FpMatrix(3, 1, 2, [1, 2])
    m.entries[0] = 0
    m.row(0)[0] = 0
    m.to_rows()[0][0] = 0
    assert m.entries == [1, 2]


@pytest.mark.parametrize("p", [2, 3, 251])
def test_rank_sequence_reads_bytes_as_the_list(p):
    # J_3 + J_2 with a nonzero p - 1 above the blocks, in bytes and in a list
    rows = [[0, 1, 0, p - 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0] * 5]
    flat = [x for row in rows for x in row]
    ranks = _kernels.nilpotent_rank_sequence(flat, 5, p)
    assert ranks == [5, 3, 1, 0]
    assert _kernels.nilpotent_rank_sequence(bytearray(flat), 5, p) == ranks


def test_identity_multiplication():
    rng = random.Random(0)
    m = FpMatrix(5, 3, 3, [rng.randrange(5) for _ in range(9)])
    assert fp_linalg.mat_mul(identity(5, 3), m) == m
    assert fp_linalg.mat_mul(m, identity(5, 3)) == m


def test_unipotent_orders():
    u2 = FpMatrix.from_rows(2, [[1, 1], [0, 1]])
    assert fp_linalg.mat_mul(u2, u2) == identity(2, 2)
    u3 = FpMatrix.from_rows(3, [[1, 1], [0, 1]])
    u3_squared = fp_linalg.mat_mul(u3, u3)
    assert u3_squared != identity(3, 2)
    assert fp_linalg.mat_mul(u3_squared, u3) == identity(3, 2)


def test_rank_examples():
    assert fp_linalg.rank(zeros(3, 4, 4)) == 0
    assert fp_linalg.rank(identity(2, 5)) == 5
    assert fp_linalg.rank(FpMatrix.from_rows(2, [[1, 1], [1, 1]])) == 1


def test_kernel_basis_examples():
    assert kernel_basis(identity(3, 4)) == []
    basis = kernel_basis(zeros(3, 2, 2))
    assert sorted(basis) == [(0, 1), (1, 0)]
    basis = kernel_basis(FpMatrix.from_rows(3, [[1, 2]]))
    assert basis == [(1, 1)]  # x + 2y = 0 over F_3


def test_rank_nullity_and_product_bound():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice((2, 3, 5, 11))
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = FpMatrix(p, rows, cols, [rng.randrange(p) for _ in range(rows * cols)])
        r = fp_linalg.rank(a)
        kernel = kernel_basis(a)
        assert r + len(kernel) == cols
        for v in kernel:
            image = [sum(a.entries[i * cols + j] * v[j] for j in range(cols)) % p for i in range(rows)]
            assert not any(image)
        inner = rng.randint(1, 6)
        b = FpMatrix(p, cols, inner, [rng.randrange(p) for _ in range(cols * inner)])
        assert fp_linalg.rank(fp_linalg.mat_mul(a, b)) <= min(r, fp_linalg.rank(b))


def test_inverse_roundtrip():
    rng = random.Random(9)
    # the last two moduli are past 2^32, where products of residues need big ints
    for p in (2, 3, 13, 4294967311, 2**61 - 1):
        for n in (1, 2, 5):
            m = fp_linalg.random_invertible(p, n, rng)
            assert fp_linalg.mat_mul(m, fp_linalg.inverse(m)) == identity(p, n)
    with pytest.raises(NotInvertible):
        fp_linalg.inverse(zeros(3, 2, 2))


def test_rref_is_deterministic_and_idempotent():
    rng = random.Random(4)
    for _ in range(20):
        a = FpMatrix(3, 4, 5, [rng.randrange(3) for _ in range(20)])
        reduced, r, pivots = rref(a)
        assert rref(a) == (reduced, r, pivots)
        assert _kernels.rref(reduced, 4, 5, 3) == (reduced, r, pivots)
        assert len(pivots) == r == fp_linalg.rank(a)


def test_nilpotent_rank_sequence_blocks():
    # J_3 + J_2: ranks 5, 3, 1, 0
    sigma = FpMatrix.from_rows(
        3,
        [
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
        ],
    )
    assert _kernels.nilpotent_rank_sequence(sigma.entries, 5, 3) == [5, 3, 1, 0]
    with pytest.raises(ValueError):
        _kernels.nilpotent_rank_sequence(identity(3, 2).entries, 2, 3)
