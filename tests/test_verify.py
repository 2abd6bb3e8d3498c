"""The c10 inputs and the failure record of the verify registry."""

import json
import random
from fractions import Fraction

from normtower import cli, padic, verify
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
