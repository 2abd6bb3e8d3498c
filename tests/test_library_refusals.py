"""Library calls that the CLI's parsers keep out of reach, but that a
library caller can make: each must raise ValueError or a NormTowerError,
and within a second, so that a call that never returns fails the test
instead of stalling the suite."""

import ast
import contextlib
import random
import signal
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from normtower import (
    cohomology,
    cyclic_algebra,
    fp_linalg,
    galois_module,
    m_invariant,
    numtheory,
    padic,
    roots,
    ufd_norm,
    verify,
)
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
    InternalCheckError,
    InvalidShape,
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
    BiquadraticSpec,
    BrauerRowenSpec,
    FunctionFieldSpec,
    LocalCyclotomicSpec,
    LocalKummerSpec,
    compute_m,
    explain_m,
    find_dirichlet_prime,
    index_bound_check,
    residue_norm_test,
)
from normtower.mvalue import NEG_INF
from normtower.numtheory import factorize, legendre, valuation
from normtower.padic import hensel_sqrt, hilbert_symbol, quaternion_splits_Q
from normtower.roots import RootOfUnityContent, m_from_root_content
from normtower.ufd_norm import proposition_check
from test_callers import SRC, definitions

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
    "matrix bool rows": lambda: FpMatrix(2, True),
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
    "matrix float entry": (lambda: FpMatrix(2, [[0.5]]), "^matrix entries must be integers$"),
    "matrix str entry": (lambda: FpMatrix(2, [["1"]]), "^matrix entries must be integers$"),
    "matrix bool entry": (lambda: FpMatrix(2, [[1, True]]), "^matrix entries must be integers$"),
    "matrix float entry p > 256": (
        lambda: FpMatrix(257, [[1.0]]),
        "^matrix entries must be integers$",
    ),
    "gmodule float entry": (
        lambda: GModule(2, 1, FpMatrix(2, [[1.0]])),
        "^matrix entries must be integers$",
    ),
    "index_bound_check p = 4": (lambda: index_bound_check(1, 4, 4), "^4 is not prime$"),
    "index_bound_check p = 9": (lambda: index_bound_check(1, 9, 9), "^9 is not prime$"),
    "index_bound_check p = 4, ind = 1": (lambda: index_bound_check(1, 1, 4), "^4 is not prime$"),
    "enumerate_shapes p = 0": (lambda: enumerate_shapes(0, 1, 5), "^p must be >= 2$"),
    "enumerate_shapes p = 1": (lambda: enumerate_shapes(1, 1, 5), "^p must be >= 2$"),
    "random_gmodule p = 0": (lambda: random_gmodule(0, 1, 3), "^p must be >= 2$"),
    "random_gmodule p = -3": (lambda: random_gmodule(-3, 1, 3), "^p must be >= 2$"),
    "matrix no rows": (
        lambda: FpMatrix(3, []),
        "^rows must be a nonempty list or tuple of lists or tuples$",
    ),
    "matrix int row": (
        lambda: FpMatrix(3, [[1], 2]),
        "^rows must be a nonempty list or tuple of lists or tuples$",
    ),
    "matrix int rows": (
        lambda: FpMatrix(3, 5),
        "^rows must be a nonempty list or tuple of lists or tuples$",
    ),
    "classify_profile float size": (
        lambda: classify_profile((2.0,), 2, 2),
        "^block size must be an integer, got 2.0$",
    ),
    "classify_profile bool size": (
        lambda: classify_profile((True,), 2, 2),
        "^block size must be an integer, got True$",
    ),
    "classify_profile str size": (
        lambda: classify_profile(("2",), 2, 2),
        "^block size must be an integer, got '2'$",
    ),
    "classify_profile size 0": (
        lambda: classify_profile((2, 0), 2, 2),
        "^block size must be >= 1$",
    ),
    # the ints are read before the desk-range tests compare them
    "proposition_check str l": (
        lambda: proposition_check("3", 2, 1),
        "^l must be an integer, got '3'$",
    ),
    "proposition_check None n": (
        lambda: proposition_check(3, None, 1),
        "^n must be an integer, got None$",
    ),
    "proposition_check str degree bound": (
        lambda: proposition_check(3, 2, "1"),
        "^degree bound must be an integer, got '1'$",
    ),
    # repr of this Fraction raises Python's own ValueError: past 4,300 digits
    "index_ladder huge Fraction p": (
        lambda: index_ladder(Fraction(10**5000, 3), 2),
        "^p must be an integer, got <Fraction past what Python prints>$",
    ),
    "hilbert_symbol huge Fraction place": (
        lambda: hilbert_symbol(2, 3, Fraction(10**5000, 3)),
        "^place must be a prime or 'inf', got <Fraction past what Python prints>$",
    ),
    "root content huge list": (
        lambda: roots.RootOfUnityContent.from_json([10**5000]),
        "^base must be a cyclotomic or finite_field object, got <list past what Python prints>$",
    ),
    "explain_m huge int spec": (
        lambda: m_invariant.explain_m(10**5000 * 3),
        "^unknown tower spec <int past what Python prints>$",
    ),
    "spec_from_json huge variant": (
        lambda: m_invariant.spec_from_json({"variant": [10**5000]}),
        "^unknown tower variant <list past what Python prints>$",
    ),
    "residue_norm_test p = 0": (lambda: residue_norm_test(0, 1, 13), "^p must be >= 2$"),
    "algebra_element str coefficient": (
        lambda: algebra_element(TOWER, 1, ["1", 0]),
        "^coefficient 0 must be an integer, got '1'$",
    ),
    "algebra_element float coefficient": (
        lambda: algebra_element(TOWER, 1, [1.0, 0]),
        "^coefficient 0 must be an integer, got 1.0$",
    ),
    "algebra_element None coefficient": (
        lambda: algebra_element(TOWER, 1, [None, 0]),
        "^coefficient 0 must be an integer, got None$",
    ),
    "algebra_element bool coefficient": (
        lambda: algebra_element(TOWER, 1, [True, 0]),
        "^coefficient 0 must be an integer, got True$",
    ),
    "algebra_element str second coefficient": (
        lambda: algebra_element(TOWER, 1, [0, "1"]),
        "^coefficient 1 must be an integer, got '1'$",
    ),
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
    "ragged rows": (lambda: FpMatrix(3, [[1, 0], [1]]), ValueError, "ragged rows"),
    "mat_mul moduli": (
        lambda: mat_mul(FpMatrix(3, [[1]]), FpMatrix(5, [[1]])),
        ValueError,
        "moduli differ",
    ),
    "mat_mul inner dimensions": (
        lambda: mat_mul(FpMatrix(3, [[1, 0]]), FpMatrix(3, [[1, 0]])),
        ValueError,
        "inner dimensions differ",
    ),
    "inverse of 1 x 2": (
        lambda: inverse(FpMatrix(3, [[1, 0]])),
        NotInvertible,
        "non-square matrix",
    ),
    "gmodule modulus": (
        lambda: GModule(5, 1, FpMatrix(3, [[1]])),
        ValueError,
        "sigma modulus differs from p",
    ),
    "gmodule not square": (
        lambda: GModule(3, 1, FpMatrix(3, [[1, 0]])),
        ValueError,
        "sigma must be square",
    ),
    "classify p = 0": (
        lambda: classify_profile((2,), 0, 1),
        InvalidShape,
        "^p must be prime and n >= 1$",
    ),
    "classify p = 4": (
        lambda: classify_profile((3,), 4, 1),
        InvalidShape,
        "^p must be prime and n >= 1$",
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


B = 10**5000  # past what Python prints: str(B) raises ValueError

# each refusal shows a caller's int past what Python prints by its bit length,
# through numtheory.shown, instead of failing to print it
SHOWN_BY_BIT_LENGTH = {
    "FiniteField l": (lambda: FiniteField(B, 2), ValueError),
    "FiniteField k": (lambda: FiniteField(3, B), SearchSpaceTooLarge),
    "index_ladder p": (lambda: index_ladder(B, 2), ValueError),
    "matrix modulus": (lambda: FpMatrix(B, [[1]]), ValueError),
    "classify_profile block size": (lambda: classify_profile((B,), 2, 1), NotRealizable),
    "find_dirichlet_prime p": (lambda: find_dirichlet_prime(B + 1, 1, 5), ValueError),
    "index_bound_check p": (lambda: index_bound_check(1, 4, B), ValueError),
    "index_bound_check ind": (lambda: index_bound_check(1, B, 2), ValueError),
    "finite_field order": (lambda: RootOfUnityContent.finite_field(2**20000 * 3), ValueError),
    "m_from_root_content p": (
        lambda: m_from_root_content(RootOfUnityContent.cyclotomic(8), B, 2),
        ValueError,
    ),
    "hilbert_symbol place": (lambda: hilbert_symbol(2, 3, B), ValueError),
    "carrying_cocycle a": (lambda: carrying_cocycle(B, 1, 2), SearchSpaceTooLarge),
    "extension_isomorphism a": (lambda: extension_isomorphism(B, 1, 2), SearchSpaceTooLarge),
    "extension_isomorphism r": (lambda: extension_isomorphism(2, 1, B), SearchSpaceTooLarge),
    "cohomologous_bruteforce r": (
        lambda: cohomologous_bruteforce(
            Cocycle2(2, B, ((0, 0), (0, 0))), Cocycle2(2, B, ((0, 0), (0, 0)))
        ),
        SearchSpaceTooLarge,
    ),
    "proposition_check g": (lambda: proposition_check(2, 1, 0, g=B), SearchSpaceTooLarge),
    "proposition_check monomial count": (
        lambda: proposition_check(2, 1, 1, g=B),
        SearchSpaceTooLarge,
    ),
    "hensel_sqrt digits": (lambda: hensel_sqrt(17, -B), ValueError),
}


@pytest.mark.parametrize(
    "call, error", SHOWN_BY_BIT_LENGTH.values(), ids=SHOWN_BY_BIT_LENGTH.keys()
)
def test_refusal_shows_a_huge_int_by_its_bit_length(call, error):
    with _within_a_second(), pytest.raises(error, match=r"<int of \d+ bits>"):
        call()


def test_index_bound_check_divides_out_p():
    # 1000003 is prime and past the trial bound, so factorize cannot split its square
    assert index_bound_check(1, 1000003**2, 1000003) is True
    assert index_bound_check(0, 1000003**2, 1000003) is False
    assert index_bound_check(NEG_INF, 1, 2) is True
    assert index_bound_check(NEG_INF, 2, 2) is False
    # factorize raised FactorizationError on this composite cofactor
    with pytest.raises(ValueError, match=f"^index {2 * 1000003**2} is not a power of 2$"):
        index_bound_check(1, 2 * 1000003**2, 2)


TOWER = FiniteFieldTower(3, 1, 2)

# one call that answers for each public callable in src that takes an int,
# with the positions of its int arguments; a spec's int fields are read by
# explain_m, so a spec is called through compute_m
INT_ARGS = {
    "cohomology.Cocycle2": (Cocycle2, (2, 3, ((0, 0), (0, 0))), (0, 1)),
    "cohomology.zero_cocycle": (zero_cocycle, (2, 3), (0, 1)),
    "cohomology.carrying_cocycle": (carrying_cocycle, (4, 2, 3), (0, 1, 2)),
    "cohomology.scale_cocycle": (
        lambda q: cohomology.scale_cocycle(carrying_cocycle(4, 2, 3), q),
        (2,),
        (0,),
    ),
    "cohomology.extension_isomorphism": (extension_isomorphism, (4, 2, 3), (0, 1, 2)),
    "cyclic_algebra.FiniteField": (FiniteField, (3, 2), (0, 1)),
    "cyclic_algebra.FiniteFieldTower": (FiniteFieldTower, (3, 1, 2), (0, 1, 2)),
    "cyclic_algebra.algebra_element": (algebra_element, (TOWER, 2, [0, 1]), (1,)),
    "cyclic_algebra.ca_one": (cyclic_algebra.ca_one, (TOWER, 2), (1,)),
    "cyclic_algebra.solve_norm": (cyclic_algebra.solve_norm, (TOWER, 2), (1,)),
    "cyclic_algebra.split_certificate": (cyclic_algebra.split_certificate, (TOWER, 2), (1,)),
    "cyclic_algebra.index_ladder": (index_ladder, (2, 3), (0, 1)),
    "fp_linalg.FpMatrix": (FpMatrix, (2, [[1]]), (0,)),
    "fp_linalg.random_invertible": (
        lambda p, n: fp_linalg.random_invertible(p, n, random.Random(0)),
        (2, 2),
        (0, 1),
    ),
    "galois_module.GModule": (GModule, (2, 1, FpMatrix(2, [[1]])), (0, 1)),
    "galois_module.DecompositionShape": (DecompositionShape, (3, 2, (0, 0, 0), 1), (0, 1, 3)),
    "galois_module.exceptional_range": (galois_module.exceptional_range, (3, 2), (0, 1)),
    "galois_module.classify_profile": (classify_profile, ((2, 1), 2, 1), (1, 2)),
    "galois_module.module_from_profile": (module_from_profile, (2, 2, [2, 1]), (0, 1)),
    "galois_module.random_gmodule": (random_gmodule, (2, 1, 2, 0), (0, 1, 2, 3)),
    "galois_module.enumerate_shapes": (enumerate_shapes, (2, 1, 3), (0, 1, 2)),
    "m_invariant.BrauerRowenSpec": (
        lambda *f: compute_m(BrauerRowenSpec(*f)),
        (2, 3, 1),
        (0, 1, 2),
    ),
    "m_invariant.FunctionFieldSpec": (
        lambda p, n: compute_m(FunctionFieldSpec(p, n, RootOfUnityContent.cyclotomic(8))),
        (2, 2),
        (0, 1),
    ),
    "m_invariant.LocalCyclotomicSpec": (
        lambda *f: compute_m(LocalCyclotomicSpec(*f)),
        (2, 1, 3),
        (0, 1, 2),
    ),
    "m_invariant.LocalKummerSpec": (
        lambda *f: compute_m(LocalKummerSpec(*f)),
        (2, 2, 5),
        (0, 1, 2),
    ),
    "m_invariant.BiquadraticSpec": (lambda *f: compute_m(BiquadraticSpec(*f)), (17, 1), (0, 1)),
    "m_invariant.find_dirichlet_prime": (find_dirichlet_prime, (2, 2, 100), (0, 1, 2)),
    "m_invariant.residue_norm_test": (residue_norm_test, (3, 1, 13), (0, 1, 2)),
    "m_invariant.index_bound_check": (index_bound_check, (1, 4, 2), (0, 1, 2)),
    "numtheory.valuation": (valuation, (8, 2), (0, 1)),
    "numtheory.factorize": (factorize, (12,), (0,)),
    "padic.hensel_sqrt": (hensel_sqrt, (17, 10), (0, 1)),
    "padic.hilbert_symbol": (hilbert_symbol, (2, 3, 5), (0, 1, 2)),
    "padic.quaternion_splits_Q": (quaternion_splits_Q, (2, 3), (0, 1)),
    "roots.RootOfUnityContent": (RootOfUnityContent, ("cyclotomic", 8), (1,)),
    "roots.RootOfUnityContent.cyclotomic": (RootOfUnityContent.cyclotomic, (8,), (0,)),
    "roots.RootOfUnityContent.finite_field": (RootOfUnityContent.finite_field, (9,), (0,)),
    "roots.RootOfUnityContent.max_power": (RootOfUnityContent.cyclotomic(8).max_power, (2,), (0,)),
    "roots.m_from_root_content": (
        m_from_root_content,
        (RootOfUnityContent.cyclotomic(8), 2, 1),
        (1, 2),
    ),
    "ufd_norm.proposition_check": (proposition_check, (3, 1, 1, 1), (0, 1, 2, 3)),
    "verify.run_checks": (lambda seed: verify.run_checks("c01", seed), (0,), (0,)),
}

# public callables that take an int but do not hold it to the int rule, by
# design: the reason, then the callables it covers
INT_RULE_EXEMPT = {
    "the README leaves it to its callers": ["numtheory.legendre"],
    "its callers pass the int through whole first, and it runs on every matrix "
    "FpMatrix builds": ["numtheory.is_prime"],
    "unguarded: classify_profile calls it once per block, on a p and sizes it "
    "has checked": ["numtheory.power_exponent"],
    "the int and rational rules themselves, and how a message shows a value": [
        "numtheory.whole",
        "numtheory.rational",
        "numtheory.shown",
        "numtheory.shown_repr",
    ],
    "formats whatever m compute_m returns": ["mvalue.format_m"],
    "the modulus search FiniteField runs after checking l and k": [
        "cyclic_algebra.find_irreducible"
    ],
    "a list-style row index, read by to_rows and inverse over range(rows)": [
        "fp_linalg.FpMatrix.row"
    ],
    "field arithmetic on the elements a field hands out": [
        *(
            f"cyclic_algebra._Quotient.{name}"
            for name in ("encode", "decode", "mul", "add", "pow")
        ),
        "cyclic_algebra.FiniteField.inv",
        "cyclic_algebra.FiniteField.frobenius",
        "cyclic_algebra.FiniteFieldTower.tau",
        "cyclic_algebra.FiniteFieldTower.is_in_base",
        "cyclic_algebra.FiniteFieldTower.norm",
    ],
    "an inner loop on sizes and residues its callers (FpMatrix, GModule, the "
    "field, the unit-norm search) have checked": [
        *(f"_kernels.{name}" for name in ("mat_mul", "rref", "rank", "nilpotent_rank_sequence")),
        *(f"packing.{name}" for name in ("layout", "reduce", "to_fields", "from_fields")),
    ],
    "a result record the library builds from ints it has checked": [
        "cohomology.IsomorphismWitness",
        "cyclic_algebra.AlgebraElement",
        "cyclic_algebra.CertifiedSplit",
        "cyclic_algebra.LadderRow",
        "m_invariant.MResult",
        "m_invariant.CrossCheckVerdict",
        "padic.QuaternionReport",
        "ufd_norm.PropositionReport",
        "verify.CheckRecord",
        "verify.VerificationReport",
    ],
}
EXEMPT = [name for names in INT_RULE_EXEMPT.values() for name in names]

# public callables that take no int: matrices, modules, shapes, specs, cocycles,
# algebra elements, JSON data, a module file's text, argv or a check tag
NO_INT = {
    "_kernels.backend_name",
    "cli.main",
    "cohomology.is_cocycle",
    "cohomology.shift_defect",
    "cohomology.h2_invariant",
    "cohomology.cohomologous_bruteforce",
    "cyclic_algebra.FiniteFieldTower.base_elements",
    "cyclic_algebra.AlgebraElement.coeffs",
    "cyclic_algebra.AlgebraElement.is_zero",
    "cyclic_algebra.ca_add",
    "cyclic_algebra.ca_mul",
    "fp_linalg.FpMatrix.entries",
    "fp_linalg.FpMatrix.to_rows",
    "fp_linalg.mat_mul",
    "fp_linalg.rank",
    "fp_linalg.unipotent_ranks",
    "fp_linalg.inverse",
    "galois_module.GModule.dim",
    "galois_module.DecompositionShape.exceptional_dim",
    "galois_module.DecompositionShape.total_dim",
    "galois_module.DecompositionShape.block_sizes",
    "galois_module.jordan_profile",
    "galois_module.m_from_shape",
    "galois_module.decompose",
    "galois_module.synthesize",
    "galois_module.conjugate",
    "galois_module.bruteforce_block_sizes",
    "galois_module.module_to_json",
    "galois_module.module_from_json",
    "galois_module.read_plain_module",
    "m_invariant.BiquadraticSpec.p",
    "m_invariant.BiquadraticSpec.n",
    "m_invariant.MResult.m_text",
    "m_invariant.compute_m",
    "m_invariant.explain_m",
    "m_invariant.cross_check_profile",
    "m_invariant.spec_to_json",
    "m_invariant.spec_from_json",
    "numtheory.json_int",
    "roots.RootOfUnityContent.describe",
    "roots.RootOfUnityContent.to_json",
    "roots.RootOfUnityContent.from_json",
    "verify.VerificationReport.passed",
    "verify.VerificationReport.to_json",
    "verify.VerificationReport.text_lines",
    "verify._Context.rng",
}


def test_every_public_callable_is_sorted_by_the_int_rule():
    walked = {
        qualified
        for path in sorted(SRC.glob("*.py"))
        for qualified, *_ in definitions(ast.parse(path.read_text()), path.stem)
        if path.stem != "errors"  # exception classes take a message
    }
    names = [*INT_ARGS, *EXEMPT, *NO_INT]
    assert len(names) == len(set(names)), "a callable is sorted twice"
    assert walked == set(names)


@pytest.mark.parametrize(
    "call, args", [row[:2] for row in INT_ARGS.values()], ids=INT_ARGS.keys()
)
def test_int_args_rows_answer(call, args):
    with _within_a_second():
        call(*args)


def _each_int_position(values):
    return [
        pytest.param(call, args, i, value, id=f"{name} arg {i} {value!r}")
        for name, (call, args, positions) in INT_ARGS.items()
        for i in positions
        for value in values
    ]


# a str too: read through whole at first use, it is refused, never a TypeError
@pytest.mark.parametrize("call, args, i, bad", _each_int_position((True, 2.0, "2")))
def test_int_arg_refuses_bool_and_float(call, args, i, bad):
    args = list(args)
    args[i] = bad
    with _within_a_second(), pytest.raises((ValueError, NormTowerError)):
        call(*args)


@pytest.mark.parametrize("call, args, i, value", _each_int_position((0, 1, -1)))
def test_int_arg_0_1_and_minus_1_answer_or_refuse(call, args, i, value):
    args = list(args)
    args[i] = value
    with _within_a_second():
        try:
            call(*args)
        except (ValueError, NormTowerError) as err:
            # an internal check firing is a bug, not a refusal
            assert not isinstance(err, InternalCheckError), err
