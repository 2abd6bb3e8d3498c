import random
from types import SimpleNamespace

import pytest

from normtower._kernels import _core_py

try:
    from normtower._kernels import _core
except ImportError:
    _core = None

needs_compiled = pytest.mark.skipif(_core is None, reason="compiled kernels not built")


def random_flat(rng, rows, cols, p):
    return [rng.randrange(p) for _ in range(rows * cols)]


def random_nilpotent(rng, n, p):
    flat = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            flat[i * n + j] = rng.randrange(p)
    return flat


@needs_compiled
def test_backend_names():
    assert _core_py.BACKEND == "python"
    assert _core.BACKEND == "c"


def test_fp_linalg_reports_active_backend():
    from normtower import _kernels, fp_linalg

    assert fp_linalg.BACKEND == _kernels.backend_name()
    assert fp_linalg.BACKEND in ("c", "python")


@needs_compiled
def test_mat_mul_parity():
    rng = random.Random(1)
    for p in (2, 3, 5, 97):
        for _ in range(10):
            n, k, m = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
            a = random_flat(rng, n, k, p)
            b = random_flat(rng, k, m, p)
            assert _core.mat_mul(a, b, n, k, m, p) == _core_py.mat_mul(a, b, n, k, m, p)


@needs_compiled
def test_rref_and_rank_parity():
    rng = random.Random(2)
    for p in (2, 3, 7):
        for _ in range(20):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            a = random_flat(rng, rows, cols, p)
            got_c = _core.rref(list(a), rows, cols, p)
            got_py = _core_py.rref(list(a), rows, cols, p)
            assert got_c == got_py
            assert _core.rank(list(a), rows, cols, p) == _core_py.rank(
                list(a), rows, cols, p
            )


@needs_compiled
def test_nilpotent_rank_sequence_parity():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(20):
            n = rng.randint(1, 10)
            a = random_nilpotent(rng, n, p)
            assert _core.nilpotent_rank_sequence(a, n, p) == _core_py.nilpotent_rank_sequence(a, n, p)


@needs_compiled
def test_non_nilpotent_rejected_by_both():
    ident = [1, 0, 0, 1]
    with pytest.raises(ValueError):
        _core.nilpotent_rank_sequence(ident, 2, 3)
    with pytest.raises(ValueError):
        _core_py.nilpotent_rank_sequence(ident, 2, 3)


def test_pure_rank_sequence_known_values():
    # single Jordan block of size 3: ranks drop by one each step
    j3 = [0, 1, 0, 0, 0, 1, 0, 0, 0]
    assert _core_py.nilpotent_rank_sequence(j3, 3, 5) == [3, 2, 1, 0]
    assert _core_py.nilpotent_rank_sequence([0], 1, 2) == [1, 0]


# Moduli where int64 products overflow: (p - 1)^2 >= 2^63.
OVERFLOW_PRIMES = (4294967311, 2**61 - 1)


@needs_compiled
def test_dispatch_is_exact_past_int64():
    from normtower import _kernels

    rng = random.Random(4)
    for p in OVERFLOW_PRIMES:
        for _ in range(10):
            n = rng.randint(2, 6)
            a = random_flat(rng, n, n, p)
            b = random_flat(rng, n, n, p)
            assert _kernels.mat_mul(a, b, n, n, n, p) == _core_py.mat_mul(a, b, n, n, n, p)
            assert _kernels.rref(list(a), n, n, p) == _core_py.rref(list(a), n, n, p)
            assert _kernels.rank(list(a), n, n, p) == _core_py.rank(list(a), n, n, p)
            nil = random_nilpotent(rng, n, p)
            assert _kernels.nilpotent_rank_sequence(nil, n, p) == _core_py.nilpotent_rank_sequence(
                nil, n, p
            )


@needs_compiled
def test_compiled_exact_up_to_int64_bound():
    # 3037000493 is the largest prime with (p - 1)^2 < 2^63, and
    # 2 (2^31 - 2)^2 < 2^63, so these calls stay on the compiled kernels
    rng = random.Random(5)
    p, q = 3037000493, 2**31 - 1
    for _ in range(10):
        n = rng.randint(2, 6)
        a = random_flat(rng, n, n, p)
        b = random_flat(rng, n, n, p)
        assert _core.mat_mul(a, b, n, n, n, p) == _core_py.mat_mul(a, b, n, n, n, p)
        assert _core.rref(list(a), n, n, p) == _core_py.rref(list(a), n, n, p)
        nil = random_nilpotent(rng, 2, q)
        assert _core.nilpotent_rank_sequence(nil, 2, q) == _core_py.nilpotent_rank_sequence(nil, 2, q)


def test_int64_guard_routes_by_bound(monkeypatch):
    from normtower import _kernels

    calls = []

    def recording(name):
        def kernel(*args):
            calls.append(name)
            return getattr(_core_py, name)(*args)

        return kernel

    fake = SimpleNamespace(
        BACKEND="c",
        **{name: recording(name) for name in ("mat_mul", "rref", "rank", "nilpotent_rank_sequence")},
    )
    monkeypatch.setattr(_kernels, "impl", fake)

    for p, compiled in ((3037000493, True), (3037000507, False), (2**61 - 1, False)):
        calls.clear()
        _kernels.mat_mul([1], [1], 1, 1, 1, p)
        _kernels.rref([1], 1, 1, p)
        _kernels.rank([1], 1, 1, p)
        assert calls == (["mat_mul", "rref", "rank"] if compiled else [])

    # the rank sequence sums n products before it reduces
    p = 2**31 - 1
    for n, compiled in ((1, True), (2, True), (3, False)):
        calls.clear()
        assert _kernels.nilpotent_rank_sequence([0] * (n * n), n, p) == [n, 0]
        assert calls == (["nilpotent_rank_sequence"] if compiled else [])
