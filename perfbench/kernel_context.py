"""Kernel timings at fixed sizes, each checked against its own result.

Context for the traced run: how fast the active backend's mat_mul, rref,
rank and nilpotent_rank_sequence are on random inputs of fixed shape,
independent of any workload. Every timed call's result is checked:
the rank sequence falls strictly to 0, the rref rank equals rank, and
mat_mul agrees with a plain product on sampled entries.
"""

import random
import time

SIZES = (24, 48)
PRIME = 251
REPEATS = 3
# result checks made per run: mat_mul, rref against rank, the rank sequence
CHECKS = 3 * len(SIZES)


def metric_names():
    return [f"kctx.{k}.n{n}_ms" for n in SIZES for k in ("mat_mul", "rref", "rank", "nilpotent_rank_sequence")]


def _nilpotent(rng, n, p):
    """Strictly upper triangular, so N^n = 0."""
    return [rng.randrange(p) if j > i else 0 for i in range(n) for j in range(n)]


def _best_ms(fn):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000, result


def run(kernels, seed):
    """(metrics, failure reasons) for the given kernel module."""
    rng = random.Random(f"kernels:{seed}")
    p = PRIME
    metrics, failures = {}, []
    for n in SIZES:
        a = [rng.randrange(p) for _ in range(n * n)]
        b = [rng.randrange(p) for _ in range(n * n)]
        nil = _nilpotent(rng, n, p)

        ms, prod = _best_ms(lambda: kernels.mat_mul(a, b, n, n, n, p))
        metrics[f"kctx.mat_mul.n{n}_ms"] = ms
        for _ in range(16):
            i, j = rng.randrange(n), rng.randrange(n)
            if prod[i * n + j] != sum(a[i * n + t] * b[t * n + j] for t in range(n)) % p:
                failures.append(f"mat_mul n={n} differs at ({i}, {j})")
                break

        ms, (_, rref_rank, _) = _best_ms(lambda: kernels.rref(a, n, n, p))
        metrics[f"kctx.rref.n{n}_ms"] = ms
        ms, rank = _best_ms(lambda: kernels.rank(a, n, n, p))
        metrics[f"kctx.rank.n{n}_ms"] = ms
        if rref_rank != rank:
            failures.append(f"rref rank {rref_rank} != rank {rank} at n={n}")

        ms, seq = _best_ms(lambda: kernels.nilpotent_rank_sequence(nil, n, p))
        metrics[f"kctx.nilpotent_rank_sequence.n{n}_ms"] = ms
        if seq[0] != n or seq[-1] != 0 or any(x <= y for x, y in zip(seq, seq[1:])):
            failures.append(f"rank sequence {seq} at n={n} is not strictly decreasing to 0")
    return {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}, failures
