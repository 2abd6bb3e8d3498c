"""Library calls that the CLI's parsers keep out of reach, but that a
library caller can make: each must raise ValueError or a NormTowerError,
and within a second, so that a call that never returns fails the test
instead of stalling the suite."""

import contextlib
import signal
import tracemalloc
from decimal import Decimal

import pytest

from normtower.cohomology import (
    Cocycle2,
    carrying_cocycle,
    cohomologous_bruteforce,
    extension_isomorphism,
    zero_cocycle,
)
from normtower.cyclic_algebra import (
    FiniteField,
    FiniteFieldTower,
    algebra_element,
    ca_add,
    index_ladder,
)
from normtower.errors import (
    NormTowerError,
    NotInvertible,
    NotRealizable,
    SearchSpaceTooLarge,
)
from normtower.fp_linalg import FpMatrix, inverse, mat_mul
from normtower.galois_module import (
    DecompositionShape,
    GModule,
    bruteforce_block_sizes,
    classify_profile,
    enumerate_shapes,
    module_from_profile,
    random_gmodule,
)
from normtower.m_invariant import (
    BrauerRowenSpec,
    FunctionFieldSpec,
    LocalKummerSpec,
    compute_m,
    explain_m,
    find_dirichlet_prime,
    index_bound_check,
    residue_norm_test,
)
from normtower.numtheory import factorize, legendre, valuation
from normtower.padic import hensel_sqrt, hilbert_symbol, quaternion_splits_Q
from normtower.roots import RootOfUnityContent, m_from_root_content
from normtower.ufd_norm import proposition_check

ROWS = {
    "compute_m float n": lambda: compute_m(BrauerRowenSpec(2, 3.0, 1)),
    "shape bool exceptional m": lambda: DecompositionShape(3, 2, (0, 0, 0), True),
    "shape bool free rank": lambda: DecompositionShape(3, 1, (True, 0), None),
    "find_dirichlet_prime bool n": lambda: find_dirichlet_prime(2, True),
    "index_bound_check bool m": lambda: index_bound_check(True, 4, 2),
    "valuation p = 1": lambda: valuation(8, 1),
    "max_power p = 1": lambda: RootOfUnityContent.cyclotomic(8).max_power(1),
    "valuation p = 0": lambda: valuation(8, 0),
    "valuation p = -2": lambda: valuation(8, -2),
    "legendre p = 2": lambda: legendre(3, 2),
    "legendre p = 1": lambda: legendre(3, 1),
    "legendre p = -3": lambda: legendre(2, -3),
    "shape float p": lambda: DecompositionShape(3.0, 1, (1, 0)),
    "shape bool n": lambda: DecompositionShape(2, True, (1, 0)),
    "find_dirichlet_prime float p": lambda: find_dirichlet_prime(2.0, 2),
    "index_ladder bool n": lambda: index_ladder(2, True),
    "index_ladder float p": lambda: index_ladder(2.0, 2),
    "index_ladder huge n": lambda: index_ladder(2, 10**5),
    "compute_m huge n": lambda: compute_m(BrauerRowenSpec(2, 10**6, 0)),
    "compute_m local_kummer huge n": lambda: compute_m(LocalKummerSpec(2, 10**9, 3)),
    "classify_profile huge n": lambda: classify_profile((3, 1), 3, 10**7),
    "enumerate_shapes huge n": lambda: enumerate_shapes(2, 10**7, 4),
    "tower bool d": lambda: FiniteFieldTower(3, True, 2),
    "matrix bool rows": lambda: FpMatrix(2, True, 1, [1]),
    "tower float r": lambda: FiniteFieldTower(3, 1, 2.0),
    "field float k": lambda: FiniteField(3, 2.0),
    "proposition_check float degree bound": lambda: proposition_check(3, 2, 1.0),
    "module_from_profile float size": lambda: module_from_profile(2, 2, [2.0, 1]),
    "field float l": lambda: FiniteField(3.0, 1),
    "index_bound_check bool ind": lambda: index_bound_check(0, True, 2),
    "max_power bool conductor": lambda: RootOfUnityContent.cyclotomic(True).max_power(2),
    "compute_m float conductor": lambda: compute_m(
        FunctionFieldSpec(2, 2, RootOfUnityContent.cyclotomic(8.0))
    ),
    "carrying_cocycle float r": lambda: carrying_cocycle(4, 2, 3.0),
    "extension_isomorphism bool r": lambda: extension_isomorphism(4, 2, True),
    "proposition_check bool n": lambda: proposition_check(3, True, 1),
    "residue_norm_test float q": lambda: residue_norm_test(3, 1, 13.0),
    "valuation float n": lambda: valuation(8.0, 2),
    # an exact rational is an int or a Fraction: no float, Decimal, str or bool
    "hilbert_symbol float a": lambda: hilbert_symbol(0.1, 3, 5),
    "hilbert_symbol Decimal a": lambda: hilbert_symbol(Decimal("0.1"), 3, 5),
    "hilbert_symbol str a": lambda: hilbert_symbol("1/10", 3, 5),
    "hilbert_symbol bool a": lambda: hilbert_symbol(True, 3, 5),
    "quaternion_splits_Q float a": lambda: quaternion_splits_Q(0.1, 5),
    "quaternion_splits_Q bool a": lambda: quaternion_splits_Q(True, -1),
    "factorize float": lambda: factorize(0.1),
    "factorize str": lambda: factorize("1/10"),
    "factorize Decimal": lambda: factorize(Decimal("0.3")),
    "factorize bool": lambda: factorize(True),
    "hensel_sqrt float digits": lambda: hensel_sqrt(17, 10.0),
    "hensel_sqrt float u": lambda: hensel_sqrt(17.0, 10),
    "hensel_sqrt bool u": lambda: hensel_sqrt(True, 10),
    # bounded before any work that grows with the input
    "random_gmodule huge n": lambda: random_gmodule(3, 10**7, 2),
    "random_gmodule huge dim": lambda: random_gmodule(2, 1, 10**9),
    "module_from_profile 1500 blocks": lambda: module_from_profile(2, 1, [1] * 1500),
    "enumerate_shapes (2, 6, 256)": lambda: enumerate_shapes(2, 6, 256),
    "enumerate_shapes (2, 8, 512)": lambda: enumerate_shapes(2, 8, 512),
    "carrying_cocycle a = 1500": lambda: carrying_cocycle(1500, 1, 2),
    "zero_cocycle a = 1500": lambda: zero_cocycle(1500, 2),
    "cocycle float entry": lambda: Cocycle2(2, 4, ((0, 0), (0, 2.0))),
    "cocycle bool entry": lambda: Cocycle2(2, 4, ((0, 0), (0, True))),
}


# refused by name, not by whatever a later step trips over
NAMED = {
    "matrix float entry": (lambda: FpMatrix(2, 1, 1, [0.5]), "^matrix entries must be integers$"),
    "matrix str entry": (lambda: FpMatrix(2, 1, 1, ["1"]), "^matrix entries must be integers$"),
    "matrix bool entry": (lambda: FpMatrix(2, 1, 2, [1, True]), "^matrix entries must be integers$"),
    "matrix float entry p > 256": (
        lambda: FpMatrix(257, 1, 1, [1.0]),
        "^matrix entries must be integers$",
    ),
    "gmodule float entry": (
        lambda: GModule(2, 1, FpMatrix(2, 1, 1, [1.0])),
        "^matrix entries must be integers$",
    ),
    "index_bound_check p = 4": (lambda: index_bound_check(1, 4, 4), "^4 is not prime$"),
    "index_bound_check p = 9": (lambda: index_bound_check(1, 9, 9), "^9 is not prime$"),
    "index_bound_check p = 4, ind = 1": (lambda: index_bound_check(1, 1, 4), "^4 is not prime$"),
    "enumerate_shapes p = 0": (lambda: enumerate_shapes(0, 1, 5), "^p must be >= 2$"),
    "enumerate_shapes p = 1": (lambda: enumerate_shapes(1, 1, 5), "^p must be >= 2$"),
    "random_gmodule p = 0": (lambda: random_gmodule(0, 1, 3), "^p must be >= 2$"),
    "random_gmodule p = -3": (lambda: random_gmodule(-3, 1, 3), "^p must be >= 2$"),
}


class Hung(Exception):
    pass


def _hung(signum, frame):
    raise Hung("no answer within 1 s")


@contextlib.contextmanager
def _within_a_second():
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(1)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", ROWS.values(), ids=ROWS.keys())
def test_library_refuses_within_a_second(call):
    with _within_a_second(), pytest.raises((ValueError, NormTowerError)):
        call()


@pytest.mark.parametrize("call, message", NAMED.values(), ids=NAMED.keys())
def test_library_refuses_by_name_within_a_second(call, message):
    with _within_a_second(), pytest.raises(ValueError, match=message):
        call()


def test_module_from_profile_refuses_before_building_the_matrix():
    sizes = [1] * 1500
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge, match="^dimension 1500 > 512$"):
            module_from_profile(2, 1, sizes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _two_algebras():
    tower = FiniteFieldTower(3, 1, 2)
    return algebra_element(tower, 1, [0, 1]), algebra_element(tower, 2, [0, 1])


# each reaches a raise that no other test reaches, and names it by its message
UNREACHED = {
    "cocycle table not a x a": (lambda: Cocycle2(2, 3, ((0, 0),)), ValueError, "table must be a x a"),
    "bruteforce different groups": (
        lambda: cohomologous_bruteforce(zero_cocycle(2, 3), zero_cocycle(3, 3)),
        ValueError,
        "cocycles live on different groups",
    ),
    "bruteforce too many cochains": (
        lambda: cohomologous_bruteforce(zero_cocycle(8, 8), zero_cocycle(8, 8)),
        SearchSpaceTooLarge,
        "8\\^7 cochains exceed limit",
    ),
    "ragged rows": (lambda: FpMatrix.from_rows(3, [[1, 0], [1]]), ValueError, "ragged rows"),
    "mat_mul moduli": (
        lambda: mat_mul(FpMatrix(3, 1, 1, [1]), FpMatrix(5, 1, 1, [1])),
        ValueError,
        "moduli differ",
    ),
    "mat_mul inner dimensions": (
        lambda: mat_mul(FpMatrix(3, 1, 2, [1, 0]), FpMatrix(3, 1, 2, [1, 0])),
        ValueError,
        "inner dimensions differ",
    ),
    "inverse of 1 x 2": (
        lambda: inverse(FpMatrix(3, 1, 2, [1, 0])),
        NotInvertible,
        "non-square matrix",
    ),
    "gmodule modulus": (
        lambda: GModule(5, 1, FpMatrix(3, 1, 1, [1])),
        ValueError,
        "sigma modulus differs from p",
    ),
    "gmodule not square": (
        lambda: GModule(3, 1, FpMatrix(3, 1, 2, [1, 0])),
        ValueError,
        "sigma must be square",
    ),
    "classify block past p^n": (
        lambda: classify_profile((9,), 2, 3),
        NotRealizable,
        "block size 9 exceeds p\\^n = 8",
    ),
    "oracle too many vectors": (
        lambda: bruteforce_block_sizes(module_from_profile(7, 1, [6])),
        SearchSpaceTooLarge,
        "p\\^dim = 117649 vectors is too many",
    ),
    "explain_m unknown spec": (lambda: explain_m(object()), ValueError, "unknown tower spec"),
    "valuation of 0": (lambda: valuation(0, 3), ValueError, "valuation of 0 is undefined"),
    "factorize 0": (lambda: factorize(0), ValueError, "cannot factor 0"),
    "conductor 2 mod 4": (
        lambda: RootOfUnityContent("cyclotomic", 6),
        ValueError,
        "conductor must be odd or divisible by 4",
    ),
    "unknown root content kind": (
        lambda: RootOfUnityContent("p-adic", 3),
        ValueError,
        "unknown kind 'p-adic'",
    ),
    "m_from_root_content p = 4": (
        lambda: m_from_root_content(RootOfUnityContent.cyclotomic(8), 4, 1),
        ValueError,
        "4 is not prime",
    ),
    "field inverse of 0": (
        lambda: FiniteField(3, 2).inv(0),
        ZeroDivisionError,
        "inverse of 0 in a finite field",
    ),
    "ca_add different b": (
        lambda: ca_add(*_two_algebras()),
        ValueError,
        "elements live in different algebras",
    ),
}


@pytest.mark.parametrize("call, error, message", UNREACHED.values(), ids=UNREACHED.keys())
def test_library_refusal_reaches_its_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
