"""Correctness oracle: one verdict per executed op.

An op succeeds when its exit code is the expected one and its output
matches what the generator derived independently. An expected exit 2
must name the expected error class on stderr; any other text on stderr,
a wrong answer or an unexpected exit code is a failure.
"""

import json

# expectation keys that are not fields of the program's JSON output
_META = ("exit", "error", "checks")


def check(op, rc, out, err):
    """None if the op's result is correct, else a one-line reason."""
    want = op.expect["exit"]
    if rc != want:
        return f"exit {rc}, expected {want}: {err.strip()[:120]}"
    if want != 0:
        if not err.startswith(op.expect["error"] + ":"):
            return f"stderr {err.strip()[:120]!r}, expected {op.expect['error']}"
        return None
    if err:
        return f"unexpected stderr {err.strip()[:120]!r}"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return f"stdout is not JSON: {out[:120]!r}"
    if not isinstance(payload, dict):
        return f"stdout is not a JSON object: {out[:120]!r}"
    for key, value in op.expect.items():
        if key not in _META and payload.get(key) != value:
            return f"{key} = {payload.get(key)!r}, expected {value!r}"
    extra = _EXTRA.get(op.kind)
    try:
        return extra(op, payload) if extra else None
    except (KeyError, TypeError, IndexError) as err:
        return f"malformed output: {err!r}"


def _hilbert_all(op, payload):
    product = 1
    for _, s in payload["symbols"]:
        product *= s
    return None if product == 1 else f"product formula gives {product}"


def _algebra(op, payload):
    order, r = op.expect["field_order"], op.expect["r"]
    v, z = payload["v_coeffs"], payload["zero_divisor_coeffs"]
    if not 0 < payload["norm_preimage"] < order:
        return f"norm preimage {payload['norm_preimage']} outside F_{order}^x"
    # v = u w^-1 lives in the u^1 slot; z = 1 + v + ... + v^(r-1) fills all r
    if len(v) != r or not 0 < v[1] < order or any(v[i] for i in range(r) if i != 1):
        return f"v coefficients {v} are not u * (unit)"
    if len(z) != r or z[0] != 1 or z[1] != v[1] or not all(0 < c < order for c in z):
        return f"zero divisor coefficients {z} are not 1 + v + ... + v^{r - 1}"
    return None


def _verify_paper(op, payload):
    checks = payload.get("checks", [])
    ids = [c["id"] for c in checks]
    if ids != op.expect["checks"]:
        return f"checks {ids}, expected {op.expect['checks']}"
    failed = [c["id"] for c in checks if not c["passed"]]
    if failed or payload.get("passed") is not True:
        return f"checks failed: {failed}"
    return None


def _m_compute(op, payload):
    return None if payload.get("evidence") else "no evidence lines"


_EXTRA = {
    "hilbert:all": _hilbert_all,
    "algebra": _algebra,
    "verify-paper": _verify_paper,
    **{
        f"m-compute:{v}": _m_compute
        for v in ("brauer_rowen", "function_field", "local_cyclotomic", "local_kummer", "biquadratic")
    },
}
