"""Library calls that the CLI's parsers keep out of reach, but that a
library caller can make: each must raise ValueError or a NormTowerError,
and within a second, so that a call that never returns fails the test
instead of stalling the suite."""

import signal

import pytest

from normtower.errors import NormTowerError
from normtower.galois_module import DecompositionShape
from normtower.m_invariant import (
    BrauerRowenSpec,
    compute_m,
    find_dirichlet_prime,
    index_bound_check,
)
from normtower.numtheory import legendre, valuation
from normtower.roots import RootOfUnityContent

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
