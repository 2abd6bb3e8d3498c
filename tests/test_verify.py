"""The c10 inputs, the routes c06 runs, the faults c09 catches, and the
failure record of the verify registry."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from field_reference import DigitField, twisted_product
from normtower import _kernels, cli, cyclic_algebra, padic, verify
from normtower.numtheory import factorize


def reference_rational(rng):
    """The c10 generator as a running Fraction product."""
    value = Fraction(1)
    for q in (2, 3, 5, 7, 11, 13):
        if rng.random() < 0.4:
            value *= Fraction(q) ** rng.choice((-2, -1, 1, 2))
    if rng.random() < 0.5:
        value = -value
    return value


def test_random_rationals_match_the_fraction_reference():
    for seed in range(5):
        ref_rng = verify._Context(seed).rng("hilbert")
        rng = verify._Context(seed).rng("hilbert")
        for _ in range(1000):
            triple = [reference_rational(ref_rng) for _ in range(3)]
            ref_places = {padic.INFINITE_PLACE, 2}
            for value in triple:
                ref_places.update(factorize(value)[1])
            drawn = [verify._random_rational(rng) for _ in range(3)]
            assert [value for value, _ in drawn] == triple
            places = {padic.INFINITE_PLACE, 2}
            for _, used in drawn:
                places.update(used)
            assert places == ref_places
        assert rng.random() == ref_rng.random()


def test_failing_check_carries_its_traceback(monkeypatch, capsys):
    def broken(ctx):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(
        verify, "CHECKS", (("c01", "passes", lambda ctx: "ok"), ("c02", "raises", broken))
    )
    assert cli.main(["verify-paper", "--format", "json"]) == 2
    passing, failing = json.loads(capsys.readouterr().out)["checks"]
    assert "traceback" not in passing
    assert failing["detail"] == "ValueError: broken on purpose"
    assert failing["traceback"].startswith("Traceback (most recent call last):")
    assert "in broken" in failing["traceback"]
    assert failing["traceback"].endswith("ValueError: broken on purpose\n")

    assert cli.main(["verify-paper"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("FAIL    0.00s  ValueError: broken on purpose")
    assert lines[2] == "1/2 checks passed"
    assert not any("Traceback" in line for line in lines)


def test_c06_runs_both_rank_sequence_routes(monkeypatch, capsys):
    # the synthesized modules are in Jordan form, so the kernel reads their
    # ranks off the successor map; their dense conjugates take the packed
    # route, and c06 compares the two profiles
    calls = Counter()
    kernel, packed = _kernels.nilpotent_rank_sequence, _kernels._packed_rank_sequence

    def counted_kernel(mat, n, p):
        calls["kernel"] += 1
        return kernel(mat, n, p)

    def counted_packed(mat, n, p):
        calls["packed"] += 1
        return packed(mat, n, p)

    monkeypatch.setattr(_kernels, "nilpotent_rank_sequence", counted_kernel)
    monkeypatch.setattr(_kernels, "_packed_rank_sequence", counted_packed)
    assert cli.main(["verify-paper", "--only", "c06", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["passed"]
    lane = calls["kernel"] - calls["packed"]
    assert lane > 0
    assert calls["packed"] > 0

    # a packed route that drops the last rank breaks the conjugation check
    def short_packed(mat, n, p):
        return packed(mat, n, p)[:-2] + [0]

    monkeypatch.setattr(_kernels, "_packed_rank_sequence", short_packed)
    assert cli.main(["verify-paper", "--only", "c06", "--format", "json"]) == 2
    assert not json.loads(capsys.readouterr().out)["checks"][0]["passed"]


@pytest.mark.parametrize("fault", ["wrap dropped", "tau is the identity"])
def test_c09_catches_a_wrong_product(monkeypatch, capsys, fault):
    # either fault leaves an associative algebra, L[u]/(u^r - 1) or the
    # commutative L[u]/(u^r - b), so the triples pass and the certificates,
    # which need u^r = b and u w = tau(w) u, must fail
    def wrong_product(x, y):
        tower = x.tower
        field = DigitField(tower.l, tower.field.modulus)
        d, b = (tower.d, 1) if fault == "wrap dropped" else (0, x.b)
        coeffs = twisted_product(field, d, b, x.coeffs, y.coeffs)
        return cyclic_algebra.algebra_element(tower, x.b, coeffs)

    monkeypatch.setattr(cyclic_algebra, "ca_mul", wrong_product)
    assert cli.main(["verify-paper", "--only", "c09", "--format", "json"]) == 2
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert not check["passed"]
    assert check["detail"].startswith(("AssertionError", "InternalCheckError: "))
    assert "in split_certificate" in check["traceback"]
