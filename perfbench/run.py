"""End-to-end and per-layer benchmark for the normtower CLI.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Runs from the root of a source checkout: the program is imported from
./src. One client in one process calls `normtower.cli.main` on a closed
loop over the workload's op list, repeating whole passes while another
pass fits in S seconds (always at least one), and checks every answer.
Each pass gets fresh inputs from the workload's fixed schedule.

Every reported time is scaled to a fixed machine speed: a reference loop
is timed before every op and every cold start, and each reading is
multiplied by REF_PROBE_S over the loop's median time around it (see
`scaled`). `wall_s` is the median over passes of a pass's scaled time;
`op_p50_ms` and `op_p90_ms` pool every scaled op latency of the run.

--trace 0 reports the end-to-end metrics. --trace 1 runs one untraced
and one traced pass and reports per-layer metrics instead; it does not
look at S. --workload all runs every workload in its own process and
prints one table.

The last stdout line is a JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it name every metric with its
unit. A fuller record goes to perfbench/out/.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gen
import kernel_context
import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh-interpreter imports per run: COLD_STARTS_FIRST before the first
# pass and the rest spread over the passes; setup_s is their median
COLD_STARTS = 30
COLD_STARTS_FIRST = 15

# The host's speed drifts by up to 2x, in stretches of seconds to
# minutes, and CPU time drifts with wall time, so a run cannot wait a slow
# stretch out. Each reading is therefore scaled by REF_PROBE_S over the
# median time of a fixed interpreter-bound loop (`probe`) timed next to it:
# the probes of the PROBE_WINDOW ops on either side, or PROBES_PER_COLD_START
# taken just before a cold start. REF_PROBE_S is about the probe's time on
# the 2-CPU virtual machine this benchmark was written on when its host is
# quiet, so scaled times read as seconds on that machine.
REF_PROBE_S = 0.0008
PROBE_WINDOW = 10
PROBES_PER_COLD_START = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=gen.ALL_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# run facts recorded beside every result
# ---------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def peak_rss_mib():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024


# the probe's fixed inputs: a PROBE_N x PROBE_N matrix mod 251 and a vector
# with about three entries in ten zero, as the kernels' vectors have
PROBE_N = 128
_probe_rng = random.Random(0)
PROBE_MAT = [_probe_rng.randrange(251) for _ in range(PROBE_N * PROBE_N)]
PROBE_VEC = [_probe_rng.randrange(251) if _probe_rng.random() < 0.7 else 0 for _ in range(PROBE_N)]


def probe():
    """Seconds taken by one product of PROBE_MAT with PROBE_VEC mod 251,
    written as the pure kernels' matrix-vector product (`_apply` in
    normtower/_kernels/_core_py.py) is, but kept here so that a change to
    the program leaves it alone. Of the loops tried, this one's time
    tracked the program's most closely as the host's speed drifted."""
    start = time.perf_counter()
    n, mat, v = PROBE_N, PROBE_MAT, PROBE_VEC
    out = [0] * n
    for i in range(n):
        row = mat[i * n : (i + 1) * n]
        s = 0
        for j in range(n):
            c = v[j]
            if c:
                s += row[j] * c
        out[i] = s % 251
    return time.perf_counter() - start


def scaled(latencies, probes):
    """Each latency times REF_PROBE_S over the median of the probes taken
    within PROBE_WINDOW ops of it. probes[i] was taken before op i, and
    the last one after the last op."""
    out = []
    for i, t in enumerate(latencies):
        near = probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 2]
        out.append(t * REF_PROBE_S / statistics.median(near))
    return out


def cold_starts(count):
    """Scaled wall times of `count` fresh interpreters each importing
    normtower.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import normtower.cli"]
    times = []
    for _ in range(count):
        speed = statistics.median(probe() for _ in range(PROBES_PER_COLD_START))
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append((time.perf_counter() - start) * REF_PROBE_S / speed)
    return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def write_inputs(ops, workdir):
    """Write each op's files; return the argv lists with real paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, op in enumerate(ops):
        paths = {}
        for key, text in op.files.items():
            path = workdir / f"{i:03d}-{key}.json"
            path.write_text(text)
            paths["@" + key] = str(path)
        argvs.append([paths.get(a, a) for a in op.argv])
    return argvs


def run_pass(cli, argvs, tracer=None):
    """Call cli.main on every argv in turn, timing a probe before each op
    and after the last: ([(rc, out, err, s)], [probe s])."""
    results, probes = [], []
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op_id = i
        probes.append(probe())
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:
            rc = "exception"
            err.write(traceback.format_exc())
        results.append((rc, out.getvalue(), err.getvalue(), time.perf_counter() - start))
    probes.append(probe())
    return results, probes


def check_pass(ops, results):
    """Oracle reasons for every wrong op in a pass."""
    reasons = []
    for i, (op, (rc, out, err, _)) in enumerate(zip(ops, results)):
        reason = oracle.check(op, rc, out, err)
        if reason:
            reasons.append(f"op {i} {op.kind} {' '.join(op.argv)}: {reason}")
    return reasons


def _json_or_none(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def comparable(op, out):
    """Output with the registry's per-check timings removed."""
    doc = _json_or_none(out) if op.kind == "verify-paper" else None
    if not isinstance(doc, dict):
        return out
    for c in doc.get("checks", []):
        c.pop("seconds", None)
    return json.dumps(doc, sort_keys=True)


def verify_seconds(ops, results):
    """verify.cNN_s from the program's own `seconds` field."""
    found = {}
    for op, (_, out, _, _) in zip(ops, results):
        doc = _json_or_none(out) if op.kind == "verify-paper" else None
        if isinstance(doc, dict):
            found.update((c.get("id"), c.get("seconds", 0.0)) for c in doc.get("checks", []))
    return {f"verify.c{i:02d}_s": {"value": found.get(f"c{i:02d}", 0.0), "unit": "s"} for i in range(1, 11)}


def percentile90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def run_workload(args):
    if not (SRC / "normtower" / "cli.py").is_file():
        sys.stderr.write(f"no normtower sources under {SRC}; run from a source checkout\n")
        return 2
    cold_starts(1)  # byte-compiles the sources once, untimed
    sys.path.insert(0, str(SRC))
    import normtower._kernels
    from normtower import cli

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    failures, input_hashes, attempted = [], [], 0
    try:
        if args.trace:
            ops = gen.make_ops(args.workload, args.seed)
            input_hashes.append(gen.inputs_hash(ops))
            argvs = write_inputs(ops, workdir)
            plain, plain_probes = run_pass(cli, argvs)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, traced_probes = run_pass(cli, argvs, tracer)
            plain_wall = sum(scaled([r[3] for r in plain], plain_probes))
            traced_wall = sum(scaled([r[3] for r in traced], traced_probes))
            failures += check_pass(ops, plain) + check_pass(ops, traced)
            for i, (op, a, b) in enumerate(zip(ops, plain, traced)):
                if (a[0], comparable(op, a[1]), a[2]) != (b[0], comparable(op, b[1]), b[2]):
                    failures.append(f"op {i} {op.kind}: traced output differs from untraced")
            kmetrics, kfailures = kernel_context.run(normtower._kernels, args.seed)
            failures += kfailures
            metrics = tracer.metrics()
            metrics.update(kmetrics)
            metrics.update(verify_seconds(ops, plain))
            in_bytes = sum(len(t.encode()) for op in ops for t in op.files.values())
            metrics["cli.json_in_bytes"] = {"value": in_bytes, "unit": "B"}
            metrics["cli.json_out_bytes"] = {"value": sum(len(r[1].encode()) for r in traced), "unit": "B"}
            metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
            # two checked passes, one output comparison per op, and the
            # kernel context's own checks
            attempted = 3 * len(ops) + kernel_context.CHECKS
            passes = 2
        else:
            latencies, walls, raw_walls, probe_medians = [], [], [], []
            setup = cold_starts(COLD_STARTS_FIRST)
            spread = COLD_STARTS - COLD_STARTS_FIRST
            begin = time.perf_counter()
            while True:
                start = time.perf_counter()
                ops = gen.make_ops(args.workload, args.seed, len(walls))
                input_hashes.append(gen.inputs_hash(ops))
                results, probes = run_pass(cli, write_inputs(ops, workdir / str(len(walls))))
                pass_time = time.perf_counter() - start
                failures += check_pass(ops, results)
                attempted += len(ops)
                latencies.append(scaled([r[3] for r in results], probes))
                walls.append(sum(latencies[-1]))
                raw_walls.append(sum(r[3] for r in results))
                probe_medians.append(statistics.median(probes))
                elapsed = time.perf_counter() - begin
                due = COLD_STARTS_FIRST + min(spread, int(spread * elapsed / args.seconds))
                setup += cold_starts(due - len(setup))
                if time.perf_counter() - begin + pass_time > args.seconds:
                    break
            setup += cold_starts(COLD_STARTS - len(setup))
            pooled = [t for lat in latencies for t in lat]
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "op_p50_ms": {"value": statistics.median(pooled) * 1000, "unit": "ms"},
                "op_p90_ms": {"value": percentile90(pooled) * 1000, "unit": "ms"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
            }
            passes = len(walls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(ops),
        "backend": normtower._kernels.backend_name(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "inputs_sha256": input_hashes,
    }
    for key, value in facts.items():
        print(f"{key}: {value}")
    for reason in failures[:20]:
        print(f"FAIL {reason}")
    print(f"metric fail_ratio = {len(failures) / attempted} 1")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record = dict(facts, fail_ratio=len(failures) / attempted, failures=failures, **result)
    if not args.trace:
        record["pass_wall_s"] = walls
        record["raw_pass_wall_s"] = raw_walls
        record["probe_median_s"] = probe_medians
        record["setup_samples_s"] = setup
        record["op_latency_ms"] = [[op.kind] + [t * 1000 for t in slot] for op, slot in zip(ops, zip(*latencies))]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, then one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in gen.ALL_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        fail_ratio = result["failed"] / result["attempted"]
        rows.append((workload, "fail_ratio", fail_ratio, "1"))
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
            combined["metrics"][f"{workload}.{name}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:<15} {name:<{width}} {value:>14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
