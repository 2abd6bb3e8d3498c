import random

import pytest

from normtower import _kernels, fp_linalg, galois_module, numtheory
from normtower.errors import (
    InternalCheckError,
    InvalidShape,
    NotRealizable,
    OrderViolation,
    SearchSpaceTooLarge,
)
from normtower.fp_linalg import FpMatrix
from normtower.galois_module import (
    DecompositionShape,
    GModule,
    bruteforce_block_sizes,
    classify_profile,
    conjugate,
    decompose,
    enumerate_shapes,
    exceptional_range,
    jordan_profile,
    m_from_shape,
    module_from_json,
    module_from_profile,
    module_to_json,
    random_gmodule,
    synthesize,
)
from normtower.mvalue import UNDETERMINED
from normtower.numtheory import is_prime


def gmodule(p, n, rows):
    return GModule(p, n, FpMatrix.from_rows(p, rows))


def regular_representation(p, n):
    """Permutation matrix of the cycle on p^n points."""
    size = p**n
    rows = [[0] * size for _ in range(size)]
    for j in range(size):
        rows[(j + 1) % size][j] = 1
    return rows


def test_regular_representation_is_one_free_block():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        mod = gmodule(p, n, regular_representation(p, n))
        assert jordan_profile(mod) == (p**n,)
        shape = classify_profile(jordan_profile(mod), p, n)
        expected = [0] * (n + 1)
        expected[n] = 1
        assert shape.free_ranks == tuple(expected)
        assert shape.exceptional is None


def test_identity_module_is_all_ones():
    mod = gmodule(3, 2, [[int(i == j) for j in range(4)] for i in range(4)])
    assert jordan_profile(mod) == (1, 1, 1, 1)
    shape = classify_profile(jordan_profile(mod), 3, 2)
    assert shape.free_ranks == (4, 0, 0)
    assert m_from_shape(shape) is UNDETERMINED


def test_order_violation():
    # sigma of order 4 cannot act for p^n = 2
    sigma = regular_representation(2, 2)
    with pytest.raises(OrderViolation):
        gmodule(2, 1, sigma)
    # not unipotent at all
    with pytest.raises(OrderViolation):
        gmodule(3, 1, [[0, 1], [1, 0]])


def test_shape_validation():
    with pytest.raises(InvalidShape):
        DecompositionShape(2, 2, (0, 0), None)  # wrong rank count
    with pytest.raises(InvalidShape):
        DecompositionShape(2, 2, (0, 0, 0), None)  # empty
    with pytest.raises(InvalidShape):
        DecompositionShape(3, 2, (1, 0, 0), 2)  # m must be < n
    # p = 2, m = 0 would have dimension 2 = p^1: that summand is free
    with pytest.raises(InvalidShape):
        DecompositionShape(2, 2, (0, 0, 0), 0)
    with pytest.raises(InvalidShape, match="^p must be prime and n >= 1$"):
        DecompositionShape(4, 1, (1, 0), None)
    with pytest.raises(InvalidShape, match="^free rank y_0 must be >= 0$"):
        DecompositionShape(3, 1, (-1, 1), None)
    shape = DecompositionShape(2, 2, (0, 0, 0), 1)
    assert shape.exceptional_dim == 3
    assert shape.block_sizes() == (3,)


def test_jordan_profile_refuses_a_negative_block_count(monkeypatch):
    mod = module_from_profile(2, 2, [2, 1])
    assert jordan_profile(mod) == (2, 1)
    # r = 3, 2, 0 gives r_0 - 2 r_1 + r_2 = -1 blocks of size 1
    monkeypatch.setattr(mod, "_ranks", [3, 2, 0])
    with pytest.raises(InternalCheckError, match="negative block count at size 1"):
        jordan_profile(mod)


def test_exceptional_range_matches_power_test():
    # the reference is the test the shape and the classifier made before:
    # m < n is exceptional when p^m + 1 is not a power of p
    for p in filter(is_prime, range(2, 100)):
        for n in range(1, 9):
            expected = [
                m for m in range(n) if numtheory.power_exponent(p**m + 1, p) is None
            ]
            assert list(exceptional_range(p, n)) == expected, (p, n)
    # primality stays with the callers, which refuse a composite p in their own order
    assert exceptional_range(4, 2) == range(0, 2)


@pytest.mark.parametrize(
    "p, n, message",
    [
        (1, 3, "^p must be >= 2$"),
        (0, 2, "^p must be >= 2$"),
        (-3, 2, "^p must be >= 2$"),
        (3, 0, "^n must be >= 1$"),
        (3, -1, "^n must be >= 1$"),
        (3, numtheory.MAX_N + 1, f"^n must be at most {numtheory.MAX_N}, got {numtheory.MAX_N + 1}$"),
    ],
)
def test_exceptional_range_refuses_p_below_2_and_n_outside_1_to_max_n(p, n, message):
    with pytest.raises(ValueError, match=message):
        exceptional_range(p, n)


def test_gmodule_refuses_past_max_dim_before_ranks(monkeypatch):
    def no_ranks(*args):
        raise AssertionError("rank sequence taken")

    monkeypatch.setattr(_kernels, "nilpotent_rank_sequence", no_ranks)
    d = galois_module.MAX_DIM + 1
    identity = FpMatrix(2, d, d, [int(i % (d + 1) == 0) for i in range(d * d)])
    with pytest.raises(SearchSpaceTooLarge, match=f"^dimension {d} > 512$"):
        GModule(2, 1, identity)
    with pytest.raises(SearchSpaceTooLarge, match="^dimension 600 > 512$"):
        decompose(module_from_profile(3, 1, [1] * 600))


@pytest.mark.parametrize(
    "p, sizes, message",
    [
        (4, [2], "^modulus 4 is not prime$"),
        (1, [1], "^modulus 1 is not prime$"),
        (2, [], "^rows must be >= 1$"),
    ],
)
def test_block_diagonal_sigma_refuses_as_a_checked_matrix(p, sizes, message):
    # sigma is built unchecked from residues, so the modulus and the
    # dimension are checked before it, in FpMatrix's words
    with pytest.raises(ValueError, match=message):
        module_from_profile(p, 1, sizes)


def test_classifier_prefers_free_blocks():
    # {4, 4, 2, 1} at p = 2: the 2 is a free block of size p, not exceptional
    mod = module_from_profile(2, 2, [4, 4, 2, 1])
    shape = classify_profile(jordan_profile(mod), 2, 2)
    assert shape.free_ranks == (1, 1, 2)
    assert shape.exceptional is None
    assert m_from_shape(shape) is UNDETERMINED


def test_exceptional_detection():
    # {3} at p = 2, n = 2 has dimension p^1 + 1
    mod = module_from_profile(2, 2, [3])
    shape = classify_profile(jordan_profile(mod), 2, 2)
    assert shape.exceptional == 1
    assert m_from_shape(shape) == 1
    # {2} at p = 3, n = 1 has dimension p^0 + 1
    mod = module_from_profile(3, 1, [2])
    shape = classify_profile(jordan_profile(mod), 3, 1)
    assert shape.exceptional == 0
    assert m_from_shape(shape) == 0


def test_not_realizable_profiles():
    # two exceptional blocks, or a size neither a p-power nor p^m + 1
    for p, n, sizes in ((2, 2, [3, 3]), (3, 1, [2, 2]), (5, 1, [3]), (3, 2, [4, 4])):
        mod = module_from_profile(p, n, sizes)
        with pytest.raises(NotRealizable):
            classify_profile(jordan_profile(mod), p, n)
    # a free block next to the exceptional one is fine
    shape = classify_profile(jordan_profile(module_from_profile(2, 2, [3, 2])), 2, 2)
    assert shape.free_ranks == (0, 1, 0) and shape.exceptional == 1
    with pytest.raises(NotRealizable):
        decompose(module_from_profile(2, 2, [3, 3]))


def test_roundtrip_enumerated_shapes():
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        for shape in enumerate_shapes(p, n, 9):
            mod = synthesize(shape)
            assert classify_profile(jordan_profile(mod), p, n) == shape


def test_profile_is_conjugation_invariant():
    rng = random.Random(21)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 2)
        dim = rng.randint(1, 8)
        mod = random_gmodule(p, n, dim, seed=rng.randrange(10**6))
        q = fp_linalg.random_invertible(p, dim, rng)
        assert jordan_profile(conjugate(mod, q)) == jordan_profile(mod)


def test_bruteforce_oracle_agrees():
    rng = random.Random(5)
    for _ in range(25):
        p = rng.choice((2, 3))
        n = rng.randint(1, 3)
        dim = rng.randint(1, 6)
        mod = random_gmodule(p, n, dim, seed=rng.randrange(10**6))
        assert bruteforce_block_sizes(mod) == jordan_profile(mod)


def test_bruteforce_guard():
    with pytest.raises(SearchSpaceTooLarge):
        bruteforce_block_sizes(random_gmodule(2, 3, 7, seed=1))


def test_decompose_returns_profile_and_shape():
    shape = DecompositionShape(2, 2, (0, 0, 1), 1)
    profile, got_shape = decompose(synthesize(shape))
    assert profile == (4, 3)
    assert got_shape == shape
    assert m_from_shape(got_shape) == 1


def test_module_json_roundtrip():
    mod = random_gmodule(3, 2, 5, seed=8)
    data = module_to_json(mod)
    assert set(data) == {"p", "n", "sigma"}
    back = module_from_json(data)
    assert back.p == mod.p and back.n == mod.n
    assert back.sigma == mod.sigma
    with pytest.raises(ValueError):
        module_from_json({"p": 3, "n": 1})


def test_random_gmodule_is_seed_deterministic():
    a = random_gmodule(3, 2, 6, seed=42)
    b = random_gmodule(3, 2, 6, seed=42)
    assert a.sigma == b.sigma
