import random
import re

import pytest

from normtower import _kernels, fp_linalg
from normtower.errors import NonIntegerEntries, NotInvertible
from normtower.fp_linalg import FpMatrix


def identity(p, n):
    return FpMatrix(p, [[int(i == j) for j in range(n)] for i in range(n)])


def zeros(p, rows, cols):
    return FpMatrix(p, [[0] * cols for _ in range(rows)])


def of_entries(p, rows, cols, entries):
    """The rows x cols matrix of these row-major entries."""
    return FpMatrix(p, [entries[i * cols : (i + 1) * cols] for i in range(rows)])


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
        FpMatrix(4, [[0]])  # modulus must be prime
    m = FpMatrix(3, [[4, -1], [0, 2]])
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
    rows = [entries[:3], entries[3:]]
    assert FpMatrix(p, rows).entries == [x % p for x in entries]
    assert FpMatrix(p, tuple(map(tuple, rows))).entries == [x % p for x in entries]


@pytest.mark.parametrize("make", RESIDUE_CASES.values(), ids=RESIDUE_CASES.keys())
@pytest.mark.parametrize("p", [2, 251, 257, 2**61 - 1])
def test_rows_give_the_unchecked_matrix_of_their_residues(p, make):
    entries = make(p)
    rows = [entries[:3], entries[3:]]
    residues = [[x % p for x in row] for row in rows]
    unchecked = FpMatrix._of(p, 2, 3, [x % p for x in entries])
    for m in (FpMatrix(p, rows), FpMatrix(p, tuple(map(tuple, rows))), FpMatrix(p, residues)):
        assert m == unchecked and unchecked == m
        assert m.entries == unchecked.entries == [x % p for x in entries]
        assert [m.row(i) for i in (0, 1, -1, -2)] == [*residues, *residues[::-1]]
        assert m.to_rows() == unchecked.to_rows() == residues
    # the same buffer in another shape is another matrix
    assert FpMatrix(p, [entries]) != unchecked


def test_row_reads_its_index_as_a_list_does():
    m = FpMatrix(5, [[1, 2], [3, 4]])
    assert [m.row(i) for i in (0, 1, -1, -2)] == [[1, 2], [3, 4], [3, 4], [1, 2]]
    for i in (2, -3):
        with pytest.raises(IndexError):
            m.row(i)


NOT_INTS = "matrix entries must be integers"
NOT_ROWS = "rows must be a nonempty list or tuple of lists or tuples"


@pytest.mark.parametrize(
    "p, rows, error, message",
    [
        (2, [[1, True], [0, 1]], NonIntegerEntries, NOT_INTS),
        (3, [[1, 2.0], [0, 1]], NonIntegerEntries, NOT_INTS),
        (251, [["1", 0], [0, 1]], NonIntegerEntries, NOT_INTS),
        (257, [[None, 0], [0, 1]], NonIntegerEntries, NOT_INTS),
        # a non-int entry is refused before the modulus
        (4, [[1, True], [0, 1]], NonIntegerEntries, NOT_INTS),
        (4, [[1, 0], [0, 1]], ValueError, "modulus 4 is not prime"),
        (1, [[1, 0], [0, 1]], ValueError, "modulus 1 is not prime"),
        (True, [[1, 0], [0, 1]], ValueError, "modulus must be an integer, got True"),
        (2**61 + 1, [[1, 0], [0, 1]], ValueError, f"modulus {2**61 + 1} is not prime"),
        (3, [[], []], ValueError, "cols must be >= 1"),
        (2.0, [[1]], ValueError, "modulus must be an integer, got 2.0"),
        ("2", [[1]], ValueError, "modulus must be an integer, got '2'"),
        (None, [[1]], ValueError, "modulus must be an integer, got None"),
        (0, [[1]], ValueError, "modulus 0 is not prime"),
        (-3, [[1]], ValueError, "modulus -3 is not prime"),
        (3, (), ValueError, NOT_ROWS),
        (3, "ab", ValueError, NOT_ROWS),
        (3, {0: [1]}, ValueError, NOT_ROWS),
        (3, [(1,), "a"], ValueError, NOT_ROWS),
        (3, [[1], [0, 1]], ValueError, "ragged rows"),
        (2**61 - 1, [[1, 0], [1]], ValueError, "ragged rows"),
        # ragged rows are refused before a non-int entry
        (4, [[1, 2.0], [1]], ValueError, "ragged rows"),
        (2, [[None]], NonIntegerEntries, NOT_INTS),
        (3, [[1, False]], NonIntegerEntries, NOT_INTS),
        (3, [[1, 1j]], NonIntegerEntries, NOT_INTS),
        (2**61 - 1, [[1.0]], NonIntegerEntries, NOT_INTS),
        (True, [[1.0]], NonIntegerEntries, NOT_INTS),
    ],
)
def test_matrix_refuses_by_name(p, rows, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        FpMatrix(p, rows)
    assert type(refused.value) is error


@pytest.mark.parametrize("p", [2, 251, 257, 2**61 - 1])
def test_computed_matrices_equal_the_matrices_of_their_entries(p):
    rng = random.Random(p)
    a = fp_linalg.random_invertible(p, 4, rng)
    for m in (a, fp_linalg.inverse(a), fp_linalg.mat_mul(a, a)):
        assert of_entries(p, 4, 4, m.entries) == m
        assert FpMatrix(p, m.to_rows()) == m


def test_entries_are_a_new_list_each_time():
    m = FpMatrix(3, [[1, 2]])
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
    m = FpMatrix(5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
    assert fp_linalg.mat_mul(identity(5, 3), m) == m
    assert fp_linalg.mat_mul(m, identity(5, 3)) == m


def test_unipotent_orders():
    u2 = FpMatrix(2, [[1, 1], [0, 1]])
    assert fp_linalg.mat_mul(u2, u2) == identity(2, 2)
    u3 = FpMatrix(3, [[1, 1], [0, 1]])
    u3_squared = fp_linalg.mat_mul(u3, u3)
    assert u3_squared != identity(3, 2)
    assert fp_linalg.mat_mul(u3_squared, u3) == identity(3, 2)


def test_rank_examples():
    assert fp_linalg.rank(zeros(3, 4, 4)) == 0
    assert fp_linalg.rank(identity(2, 5)) == 5
    assert fp_linalg.rank(FpMatrix(2, [[1, 1], [1, 1]])) == 1


def test_kernel_basis_examples():
    assert kernel_basis(identity(3, 4)) == []
    basis = kernel_basis(zeros(3, 2, 2))
    assert sorted(basis) == [(0, 1), (1, 0)]
    basis = kernel_basis(FpMatrix(3, [[1, 2]]))
    assert basis == [(1, 1)]  # x + 2y = 0 over F_3


def test_rank_nullity_and_product_bound():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice((2, 3, 5, 11))
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = FpMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        r = fp_linalg.rank(a)
        kernel = kernel_basis(a)
        assert r + len(kernel) == cols
        for v in kernel:
            image = [sum(a.entries[i * cols + j] * v[j] for j in range(cols)) % p for i in range(rows)]
            assert not any(image)
        inner = rng.randint(1, 6)
        b = FpMatrix(p, [[rng.randrange(p) for _ in range(inner)] for _ in range(cols)])
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
        a = FpMatrix(3, [[rng.randrange(3) for _ in range(5)] for _ in range(4)])
        reduced, r, pivots = rref(a)
        assert rref(a) == (reduced, r, pivots)
        assert _kernels.rref(reduced, 4, 5, 3) == (reduced, r, pivots)
        assert len(pivots) == r == fp_linalg.rank(a)


def test_nilpotent_rank_sequence_blocks():
    # J_3 + J_2: ranks 5, 3, 1, 0
    sigma = FpMatrix(
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


BUFFER_FORMS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "list": list,
    "tuple": tuple,
    "iterator": iter,
}


@pytest.mark.parametrize("form", BUFFER_FORMS.values(), ids=BUFFER_FORMS.keys())
@pytest.mark.parametrize("p", [2, 251, 257, 2**61 - 1])
def test_of_takes_any_bytes_like_or_iterable_of_residues(p, form):
    # residues below 256, so that every form can hold them
    residues = [(7 * k + 1) % min(p, 256) for k in range(12)]
    m = FpMatrix._of(p, 3, 4, form(residues))
    assert m == of_entries(p, 3, 4, residues)
    assert m.entries == residues
    assert m.to_rows() == [residues[:4], residues[4:8], residues[8:]]
    assert fp_linalg.rank(m) == fp_linalg.rank(of_entries(p, 3, 4, residues))


def test_of_keeps_a_bytes_buffer_and_copies_a_mutable_one():
    raw = bytes([1, 0, 0, 1])
    assert FpMatrix._of(2, 2, 2, raw)._residues is raw
    for p, buffer in ((2, bytearray(raw)), (257, list(raw))):
        m = FpMatrix._of(p, 2, 2, buffer)
        buffer[0] = 0
        assert m.entries == [1, 0, 0, 1]


@pytest.mark.parametrize("p", [2, 3, 251, 257, 2**61 - 1])
def test_unipotent_ranks_are_the_ranks_of_the_powers_of_a_minus_1(p):
    # two Jordan blocks, of sizes 3 and 1, conjugated by a random matrix
    block = FpMatrix(p, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    q = fp_linalg.random_invertible(p, 4, random.Random(p))
    a = fp_linalg.mat_mul(fp_linalg.mat_mul(fp_linalg.inverse(q), block), q)
    before = a.entries
    assert fp_linalg.unipotent_ranks(a) == [4, 2, 1, 0]
    assert fp_linalg.unipotent_ranks(block) == [4, 2, 1, 0]
    assert a.entries == before  # a's own buffer is not touched


def test_unipotent_ranks_refuse_a_non_square_or_non_unipotent_matrix():
    with pytest.raises(ValueError, match="^matrix must be square$"):
        fp_linalg.unipotent_ranks(zeros(3, 2, 3))
    with pytest.raises(ValueError):
        fp_linalg.unipotent_ranks(zeros(3, 2, 2))  # 0 - 1 is invertible
