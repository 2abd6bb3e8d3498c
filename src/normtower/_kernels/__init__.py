"""Kernel selection: compiled extension when present, pure Python otherwise.

Set NORMTOWER_PURE_KERNELS=1 to force the pure-Python backend.

The compiled kernels compute in signed 64-bit integers. Before reducing
mod p, the rank sequence sums n products of residues in [0, p) and the
other kernels add one product to one residue. A call with
terms * (p - 1)^2 >= 2^63, terms being n or 1 (the delayed-reduction bound
of FFLAS-FFPACK), goes to the pure kernels, which use Python ints. Below
that bound nothing overflows: even at the largest p with
(p - 1)^2 < 2^63, (p - 1)^2 + p - 1 stays below 2^63.
"""

import os

from . import _core_py

if os.environ.get("NORMTOWER_PURE_KERNELS") == "1":
    impl = _core_py
else:
    try:
        from . import _core as impl  # type: ignore[no-redef]
    except ImportError:
        impl = _core_py

_INT64_LIMIT = 1 << 63


def _exact(terms, p):
    """`impl` if its int64 arithmetic stays exact for these sums, else `_core_py`."""
    return impl if terms * (p - 1) ** 2 < _INT64_LIMIT else _core_py


def mat_mul(a, b, n, k, m, p):
    return _exact(1, p).mat_mul(a, b, n, k, m, p)


def rref(mat, rows, cols, p):
    return _exact(1, p).rref(mat, rows, cols, p)


def rank(mat, rows, cols, p):
    return _exact(1, p).rank(mat, rows, cols, p)


def nilpotent_rank_sequence(mat, n, p):
    return _exact(n, p).nilpotent_rank_sequence(mat, n, p)


def backend_name():
    return impl.BACKEND
