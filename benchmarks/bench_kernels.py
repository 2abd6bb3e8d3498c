"""Timing comparison: compiled matrix kernels vs the pure-Python fallback.

Runs mat_mul, rref, and nilpotent_rank_sequence on random inputs of a few
sizes and prints the best-of-k wall time for each backend. The rank
sequence runs twice: on a random strictly upper-triangular matrix (one
Jordan block, n steps), and on N = sigma - 1 of a dense module, Jordan
blocks of at most 32 conjugated by random transvections, as `decompose`
meets it on a conjugated module file.
"""

import argparse
import random
import time

from normtower._kernels import _core_py

try:
    from normtower._kernels import _core
except ImportError:
    _core = None


def random_flat(rng, rows, cols, p):
    return [rng.randrange(p) for _ in range(rows * cols)]


def random_nilpotent(rng, n, p):
    # strictly upper triangular, so N^n = 0 by construction
    flat = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            flat[i * n + j] = rng.randrange(p)
    return flat


def dense_module_nilpotent(rng, n, p, largest=32):
    """N of Jordan blocks of random sizes up to `largest`, conjugated by
    4 n random transvections I + c e_i e_j^T, which fill it densely."""
    rows = [[0] * n for _ in range(n)]
    at = 0
    while at < n:
        size = min(rng.randint(1, largest), n - at)
        for i in range(at, at + size - 1):
            rows[i][i + 1] = 1
        at += size
    for _ in range(4):
        for j in range(n):
            i = rng.randrange(n - 1)
            i += i >= j
            c = rng.randrange(1, p)
            for r in rows:  # column j += c * column i
                r[j] = (r[j] + c * r[i]) % p
            rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[j])]
    return [x for r in rows for x in r]


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="32,64,128,256", help="matrix sizes")
    parser.add_argument("--p", type=int, default=251, help="prime modulus")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    rng = random.Random(args.seed)
    backends = [("python", _core_py)]
    if _core is not None:
        backends.append(("c", _core))
    else:
        print("compiled kernels unavailable; timing the fallback only")

    header = f"{'op':<30}{'n':>6}" + "".join(f"{name:>14}" for name, _ in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))

    for n in sizes:
        a = random_flat(rng, n, n, args.p)
        b = random_flat(rng, n, n, args.p)
        nil = random_nilpotent(rng, n, args.p)
        module_nil = dense_module_nilpotent(rng, n, args.p)
        cases = (
            ("mat_mul", lambda mod: mod.mat_mul(a, b, n, n, n, args.p)),
            ("rref", lambda mod: mod.rref(list(a), n, n, args.p)),
            (
                "nilpotent_rank_sequence",
                lambda mod: mod.nilpotent_rank_sequence(nil, n, args.p),
            ),
            (
                "rank_sequence_dense_module",
                lambda mod: mod.nilpotent_rank_sequence(module_nil, n, args.p),
            ),
        )
        for op_name, call in cases:
            times = []
            for _, mod in backends:
                times.append(best_of(lambda: call(mod), args.repeats))
            row = f"{op_name:<30}{n:>6}"
            for t in times:
                row += f"{t * 1000:>12.2f}ms"
            if len(times) == 2 and times[1] > 0:
                row += f"{times[0] / times[1]:>9.1f}x"
            print(row)

    for name, mod in backends:
        got = mod.nilpotent_rank_sequence(random_nilpotent(rng, 8, 3), 8, 3)
        assert got[-1] == 0, f"{name} backend returned a non-vanishing tail"


if __name__ == "__main__":
    main()
