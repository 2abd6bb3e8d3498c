"""Tests for the benchmark itself: generation, oracle and tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import kernel_context  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from normtower import cli, numtheory  # noqa: E402


def _small_ops():
    """A quick mix: every towers-algebra op kind that is light, a few small
    modules, and one registry check."""
    ops = [op for op in gen.make_ops("towers-algebra", 3) if not op.heavy]
    ops += [op for op in gen.make_ops("modules-dense", 3)[:12]]
    ops.append(gen.Op("verify-paper", ["verify-paper", "--format", "json", "--only", "c03"], {"exit": 0, "checks": ["c03"]}))
    return ops


def _run(ops, tmp_path, tracer=None):
    argvs = run.write_inputs(ops, tmp_path)
    results, _ = run.run_pass(cli, argvs, tracer)
    return results


def test_generation_is_deterministic_per_seed():
    for workload in gen.ALL_WORKLOADS:
        first = gen.inputs_hash(gen.make_ops(workload, 11))
        assert first == gen.inputs_hash(gen.make_ops(workload, 11))
        assert first != gen.inputs_hash(gen.make_ops(workload, 12))


def test_each_pass_gets_fresh_inputs_on_the_same_schedule():
    for workload in gen.ALL_WORKLOADS:
        first, second = gen.make_ops(workload, 11, 0), gen.make_ops(workload, 11, 1)
        assert gen.inputs_hash(first) != gen.inputs_hash(second)
        assert [(op.kind, op.heavy, op.expect["exit"]) for op in first] == [
            (op.kind, op.heavy, op.expect["exit"]) for op in second
        ]
    assert gen.make_ops("registry", 11)[0].argv[-1] == "11"
    first, second = gen.make_ops("modules-dense", 11, 0), gen.make_ops("modules-dense", 11, 1)
    dims = [[len(json.loads(op.files["module"])["sigma"]) for op in ops] for ops in (first, second)]
    assert dims[0] == dims[1]


def test_workload_sizes():
    towers = gen.make_ops("towers-algebra", 0)
    assert len(towers) >= 100
    assert sum(op.heavy for op in towers) == 20 + len(gen.VERIFY_HEAVY)
    for workload in ("modules-sparse", "modules-dense"):
        modules = gen.make_ops(workload, 0)
        assert len(modules) >= 100
        assert sum(op.expect["exit"] == 2 for op in modules) == len(modules) // 10
    kinds = {op.kind for op in towers}
    assert {f"m-compute:{v}" for v in ("brauer_rowen", "function_field", "local_cyclotomic", "local_kummer", "biquadratic")} <= kinds
    assert {"find-prime", "hilbert:all", "hilbert:place", "cocycle-check", "algebra", "ufd-check", "verify-paper"} <= kinds
    checks = sorted(c for op in towers if op.kind == "verify-paper" for c in op.expect["checks"])
    assert checks == [f"c{i:02d}" for i in range(1, 11) if i != 6]


def test_conjugated_modules_are_dense():
    # block-diagonal input has at most 2 nonzeros a row; conjugation fills it
    for op in gen.make_ops("modules-dense", 5)[40:]:
        sigma = json.loads(op.files["module"])["sigma"]
        nonzero = sum(1 for row in sigma for x in row if x) / len(sigma) ** 2
        assert nonzero > 0.25, (len(sigma), nonzero)
    for op in gen.make_ops("modules-sparse", 5):
        sigma = json.loads(op.files["module"])["sigma"]
        assert max(sum(1 for x in row if x) for row in sigma) <= 2


def test_latencies_are_scaled_by_the_nearby_probes():
    ref = run.REF_PROBE_S
    assert run.scaled([1.0, 2.0], [ref] * 3) == [1.0, 2.0]
    # a host running at half speed doubles both the probes and the op
    assert run.scaled([2.0, 4.0], [2 * ref] * 3) == [1.0, 2.0]
    # one slow probe among many does not move the scale
    assert run.scaled([1.0], [ref, 3 * ref, ref, ref]) == [1.0]


def test_oracle_accepts_the_program_on_a_small_mix(tmp_path):
    ops = _small_ops()
    for op, (rc, out, err, _) in zip(ops, _run(ops, tmp_path)):
        assert oracle.check(op, rc, out, err) is None, op.argv


def test_oracle_flags_wrong_answers_and_exit_codes(tmp_path):
    ops = [op for op in gen.make_ops("towers-algebra", 4) if op.kind in ("find-prime", "hilbert:all") and op.expect["exit"] == 0]
    ops += [op for op in gen.make_ops("modules-dense", 4)[:10] if op.expect["exit"] == 2][:1]
    results = _run(ops, tmp_path)
    for op, (rc, out, err, _) in zip(ops, results):
        assert oracle.check(op, rc, out, err) is None
        wrong_rc = 0 if rc else 1
        assert oracle.check(op, wrong_rc, out, err) is not None
        if rc == 0:
            assert oracle.check(op, rc, out, "warning\n") is not None
            payload = json.loads(out)
            if op.kind == "find-prime":
                payload["q"] += 2
            else:
                payload["symbols"][0][1] *= -1
            assert oracle.check(op, rc, json.dumps(payload), err) is not None
        else:
            assert oracle.check(op, rc, out, "NotRealizable: no\n") is not None


def test_traced_run_prints_the_same_outputs(tmp_path):
    ops = _small_ops()
    plain = _run(ops, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _run(ops, tmp_path, tracer)
    for op, a, b in zip(ops, plain, traced):
        assert (a[0], run.comparable(op, a[1]), a[2]) == (b[0], run.comparable(op, b[1]), b[2])
    assert tracer.calls["cli.main"] == len(ops)
    assert tracer.calls["kernels.nilpotent_rank_sequence"] > 0
    # spans nest: every parent is an earlier-opened span of the same op
    by_id = {s[0]: s for s in tracer.spans}
    for sid, _, start, end, parent, op_id in tracer.spans:
        if parent is not None:
            p = by_id[parent]
            assert p[2] <= start <= end <= p[3] and p[5] == op_id


def test_every_shared_binding_is_wrapped_and_restored():
    originals = {attr: getattr(numtheory, attr) for _, attr in tracing.SHARED}
    bound = {(mod.__name__, attr) for attr in originals for mod, _ in tracing.shared_bindings(attr)}
    for name in ("fp_linalg", "galois_module", "cyclic_algebra", "padic", "ufd_norm", "m_invariant"):
        assert (f"normtower.{name}", "is_prime") in bound
    for name in ("m_invariant", "padic", "roots", "verify"):
        assert (f"normtower.{name}", "factorize") in bound
    targets = {(spec, attr): tracing._owner(spec).__dict__[attr] for _, spec, attr, _, _ in tracing.TARGETS}

    tracer = tracing.Tracer()
    with tracer.installed():
        for modname, attr in bound:
            fn = getattr(sys.modules[modname], attr)
            assert fn is not originals[attr] and fn.__wrapped__ is originals[attr]
        for (spec, attr), original in targets.items():
            assert tracing._owner(spec).__dict__[attr].__wrapped__ is original
        assert sys.modules["normtower.galois_module"].is_prime(7)
    assert tracer.calls["numtheory.is_prime"] == 1

    for modname, attr in bound:
        assert getattr(sys.modules[modname], attr) is originals[attr]
    for (spec, attr), original in targets.items():
        assert tracing._owner(spec).__dict__[attr] is original


def test_wrappers_are_removed_when_the_traced_code_raises():
    original = numtheory.factorize
    with pytest.raises(ValueError):
        with tracing.Tracer().installed():
            sys.modules["normtower.padic"].factorize(0)
    assert sys.modules["normtower.padic"].factorize is original


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    expected = tracing.metric_names() + kernel_context.metric_names()
    expected += [f"verify.c{i:02d}_s" for i in range(1, 11)]
    expected += ["cli.json_in_bytes", "cli.json_out_bytes", "trace.overhead_s"]
    assert sorted(per_layer) == sorted(expected)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_kernel_context_checks_its_results():
    import normtower._kernels as kernels

    metrics, failures = kernel_context.run(kernels, 0)
    assert not failures and sorted(metrics) == sorted(kernel_context.metric_names())

    class Broken:
        mat_mul = staticmethod(lambda a, b, n, k, m, p: [0] * (n * m))
        rref = staticmethod(lambda a, r, c, p: (a, 0, ()))
        rank = staticmethod(kernels.rank)
        nilpotent_rank_sequence = staticmethod(lambda a, n, p: [n, 0, 0])

    _, failures = kernel_context.run(Broken, 0)
    assert len(failures) == 3 * len(kernel_context.SIZES)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "towers-algebra", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_refuses_mixed_backends(tmp_path):
    import compare

    metrics = {m["name"]: {"value": 1.0} for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for side, backend in (("base", "python"), ("new", "c")):
        (tmp_path / side).mkdir()
        record = {"workload": "registry", "backend": backend, "metrics": metrics}
        (tmp_path / side / "registry-seed1-trace0.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
    record["backend"] = "python"
    (tmp_path / "new" / "registry-seed1-trace0.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 0
