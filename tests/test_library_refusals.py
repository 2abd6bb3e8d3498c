"""Library calls that the CLI's parsers keep out of reach, but that a
library caller can make: each must raise ValueError or a NormTowerError,
and within a second, so that a call that never returns fails the test
instead of stalling the suite."""

import signal

import pytest

from normtower.cohomology import carrying_cocycle, extension_isomorphism
from normtower.cyclic_algebra import FiniteField, FiniteFieldTower, index_ladder
from normtower.errors import NormTowerError
from normtower.fp_linalg import FpMatrix
from normtower.galois_module import (
    DecompositionShape,
    classify_profile,
    enumerate_shapes,
    module_from_profile,
)
from normtower.m_invariant import (
    BrauerRowenSpec,
    FunctionFieldSpec,
    LocalKummerSpec,
    compute_m,
    find_dirichlet_prime,
    index_bound_check,
    residue_norm_test,
)
from normtower.numtheory import legendre, valuation
from normtower.roots import RootOfUnityContent
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
}


class Hung(Exception):
    pass


def _hung(signum, frame):
    raise Hung("no answer within 1 s")


@pytest.mark.parametrize("call", ROWS.values(), ids=ROWS.keys())
def test_library_refuses_within_a_second(call):
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(1)
    try:
        with pytest.raises((ValueError, NormTowerError)):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
