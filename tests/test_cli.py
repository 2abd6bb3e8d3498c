import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from normtower import cli
from normtower.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_find_prime_text_and_json(capsys):
    code, out, _ = run(capsys, "find-prime", "--p", "2", "--n", "2")
    assert code == 0 and out == "5\n"
    code, out, _ = run(capsys, "find-prime", "--p", "3", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"p": 3, "n": 1, "q": 13}


def test_hilbert_single_place(capsys):
    code, out, _ = run(capsys, "hilbert", "--a", "-1", "--b", "-1", "--place", "2")
    assert code == 0 and out == "-1\n"
    code, out, _ = run(
        capsys, "hilbert", "--a", "-1", "--b", "-1", "--place", "inf", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["symbol"] == -1 and data["place"] == "inf"


def test_hilbert_all_places(capsys):
    code, out, _ = run(
        capsys, "hilbert", "--a", "-1", "--b", "-1", "--place", "all", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["splits"] is False
    assert sorted(data["ramified"]) == ["2", "inf"]
    symbols = dict(tuple(pair) for pair in data["symbols"])
    product = 1
    for s in symbols.values():
        product *= s
    assert product == 1


def test_hilbert_zero_denominator_exits_1(capsys):
    for place in ("2", "all"):
        code, out, err = run(capsys, "hilbert", "--a", "1/0", "--b", "3", "--place", place)
        assert (code, out, err) == (1, "", "error: '1/0' has a zero denominator\n")
    code, out, err = run(capsys, "hilbert", "--a", "2", "--b=-5/0", "--place", "inf")
    assert (code, out, err) == (1, "", "error: '-5/0' has a zero denominator\n")


def test_hilbert_of_zero_exits_1_at_every_place(capsys):
    for place in ("inf", "2", "3"):
        for a, b in (("0", "3"), ("-2", "0/5")):
            code, out, err = run(capsys, "hilbert", "--a", a, "--b", b, "--place", place)
            assert (code, out, err) == (1, "", "error: Hilbert symbol of zero\n")
    code, out, err = run(capsys, "hilbert", "--a", "0", "--b", "3", "--place", "all")
    assert (code, out, err) == (1, "", "error: quaternion parameters must be nonzero\n")


@pytest.mark.parametrize(
    "value, message",
    [
        # exponents refused before Fraction builds the power of ten; the
        # last took 12.8 s in Fraction alone
        ("1e20000", "'1e20000' has an exponent past 4307"),
        ("1e1000000", "'1e1000000' has an exponent past 4309"),
        ("-2.5E+10_000_000", "'-2.5E+10_000_000' has an exponent past 4316"),
        ("1e-99999999", "'1e-99999999' has an exponent past 4311"),
        # small exponents, but a numerator or denominator of 4,301 digits
        ("1e4300", "'1e4300' has a numerator or denominator of more than 4300 digits"),
        ("3/1e-4300", None),
        ("7e-4301", "'7e-4301' has a numerator or denominator of more than 4300 digits"),
        # an exponent of 5,000 digits is compared by its length, not converted
        pytest.param("1e" + "9" * 5000, "has an exponent past 9302", id="exponent-of-5000-digits"),
        # a run Fraction would not read: Python's own limit message before
        pytest.param("9" * 5000, "has a run of more than 4300 digits", id="run-of-5000-digits"),
        pytest.param("0." + "0" * 4300 + "1", "has a run of more than 4300 digits", id="decimals-of-4301-digits"),
    ],
)
def test_hilbert_oversized_rational_exits_1(capsys, value, message):
    for place in ("5", "all"):
        start = time.perf_counter()
        code, out, err = run(capsys, "hilbert", f"--a={value}", "--b", "3", "--place", place)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        assert message is None or message in err


def test_hilbert_printable_rational_answers(capsys):
    # 10^4000 has 4,001 digits, under the 4,300 Python prints
    code, out, err = run(capsys, "hilbert", "--a", "1e4000", "--b", "3", "--place", "5")
    assert (code, out, err) == (0, "1\n", "")
    code, out, _ = run(capsys, "hilbert", "--a", "1e-4000", "--b", "3", "--place", "2", "--format", "json")
    assert code == 0 and json.loads(out)["a"] == "1/1" + "0" * 4000


def test_synthesize_decompose_pipeline(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "synthesize",
        "--p", "2", "--n", "2", "--free-ranks", "0,0,1",
        "--exceptional", "1", "--format", "json",
    )
    assert code == 0
    module_file = tmp_path / "mod.json"
    module_file.write_text(out)
    code, out, _ = run(capsys, "decompose", str(module_file), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["profile"] == [4, 3]
    assert data["free_ranks"] == [0, 0, 1]
    assert data["exceptional"] == 1
    assert data["m"] == "1"


def test_decompose_identity_module(capsys, tmp_path):
    module_file = tmp_path / "id.json"
    module_file.write_text(
        json.dumps({"p": 2, "n": 1, "sigma": [[1, 0], [0, 1]]})
    )
    code, out, _ = run(capsys, "decompose", str(module_file))
    assert code == 0
    assert "m = undetermined" in out


def test_decompose_not_realizable_exits_2(capsys, tmp_path):
    # two exceptional blocks of size 3 for p = 2, n = 2
    sigma = [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ]
    module_file = tmp_path / "bad.json"
    module_file.write_text(json.dumps({"p": 2, "n": 2, "sigma": sigma}))
    code, _, err = run(capsys, "decompose", str(module_file))
    assert code == 2
    assert "NotRealizable" in err


def test_decompose_order_violation_exits_2(capsys, tmp_path):
    module_file = tmp_path / "order.json"
    module_file.write_text(
        json.dumps({"p": 3, "n": 1, "sigma": [[0, 1], [1, 0]]})
    )
    code, _, err = run(capsys, "decompose", str(module_file))
    assert code == 2
    assert "OrderViolation" in err


def test_parse_errors_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "decompose", str(tmp_path / "missing.json"))
    assert code == 1
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 1 and "invalid JSON" in err
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"p": 3}))
    code, _, err = run(capsys, "decompose", str(incomplete))
    assert code == 1


def test_decompose_rejects_malformed_module_json(capsys, tmp_path):
    ragged = {"p": 3, "n": 1, "sigma": [[1, 0], [0]]}
    cases = (
        ({"p": 3, "n": 1, "sigma": []}, "sigma"),
        ({"p": 3, "n": 1, "sigma": "ab"}, "sigma"),
        ({"p": 3, "n": 1, "sigma": [[1.0, 1], [0, 1]]}, "integers"),
        ({"p": 3, "n": 1, "sigma": [[True, 1], [0, 1]]}, "integers"),
        ({"p": 2.0, "n": 1, "sigma": [[1, 1], [0, 1]]}, "'p'"),
        ({"p": 3, "n": "1", "sigma": [[1, 1], [0, 1]]}, "'n'"),
        (ragged, "square"),
        ({"p": 3, "n": 1, "sigma": [[1, 1, 0], [0, 1, 0]]}, "square"),
        ({"p": 3, "n": 1, "sigma": [1, 1]}, "square"),
        ([[1, 1], [0, 1]], "object"),
        ({"p": 3, "n": 65, "sigma": [[1, 1], [0, 1]]}, "at most 64"),
    )
    for payload, needle in cases:
        module_file = tmp_path / "mod.json"
        module_file.write_text(json.dumps(payload))
        code, out, err = run(capsys, "decompose", str(module_file))
        assert code == 1, payload
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert needle in err, (payload, err)


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"variant": "biquadratic", "a": "17", "d": -1}, "'a'"),
        ({"variant": "local_cyclotomic", "p": 3, "n": 1, "q": None}, "'q'"),
        ({"variant": "function_field", "p": 2, "n": 2, "base": 5}, "base"),
        (["biquadratic", 17, -1], "object"),
        (
            {
                "variant": "function_field",
                "p": 2,
                "n": 2,
                "base": {"kind": "cyclotomic", "conductor": "8"},
            },
            "'conductor'",
        ),
        ({"variant": "brauer_rowen", "p": 2.0, "n": 3, "t": 1}, "'p'"),
        ({"variant": "brauer_rowen", "p": 2, "n": 200000, "t": 1}, "at most 64"),
        ({"variant": "brauer_rowen", "p": True, "n": 3, "t": 1}, "'p'"),
        ({"variant": "quintic", "p": 5, "n": 1}, "unknown tower variant"),
        ({"variant": "brauer_rowen", "p": 2, "n": 65, "t": 1}, "at most 64"),
    ],
    ids=[
        "a-string",
        "q-null",
        "base-int",
        "spec-list",
        "conductor-string",
        "p-float",
        "n-200000",
        "p-bool",
        "unknown-variant",
        "n-65",
    ],
)
def test_m_compute_rejects_malformed_spec_json(capsys, tmp_path, payload, needle):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "m-compute", "--spec", str(spec_file))
    assert code == 1, payload
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert needle in err, (payload, err)


def test_main_repeats_like_fresh_processes(capsys):
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in (
        ["find-prime", "--p", "3", "--n", "1", "--format", "json"],
        ["find-prime", "--p", "four", "--n", "1"],
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "normtower.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        for _ in range(3):
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 1 and fresh.stderr.startswith("usage: normtower")


def test_usage_and_help_follow_current_streams(capsys):
    # the parser is kept between calls; build it while other streams are
    # installed, then check that it writes to the ones current at the call
    cli._build_parser.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli._build_parser()
    code, out, err = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: normtower") and err == ""
    code, out, err = run(capsys, "find-prime", "--help")
    assert code == 0 and out.startswith("usage: normtower find-prime") and err == ""
    code, out, err = run(capsys, "find-prime", "--p", "2")
    assert code == 1 and out == ""
    assert err.startswith("usage: normtower find-prime") and "--n" in err


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "find-prime", "--p", "2")[0] == 1  # missing --n
    assert run(capsys, "find-prime", "--p", "four", "--n", "1")[0] == 1
    assert run(capsys, "find-prime", "--p=--", "--n", "1")[:2] == (1, "")
    assert run(capsys)[0] == 1
    # g = 0 is not a default for g = n
    argv = ["ufd-check", "--l", "3", "--n", "2", "--deg", "1", "--g", "0"]
    assert run(capsys, *argv) == (1, "", "error: need n >= 1 and n | g\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--a=--", "--b", "3", "--place", "2"],
        ["m-compute", "--spec=--"],
        ["verify-paper", "--only=--"],
        # a typed option, an option with choices and abbreviations of both:
        # from Python 3.13 on argparse would run int() or the choices on "--"
        ["find-prime", "--p=--", "--n", "1"],
        ["find-prime", "--p", "2", "--n", "1", "--li=--"],
        ["synthesize", "--format=--", "--p", "2", "--n", "1", "--free-ranks", "1,1"],
        ["synthesize", "--fo=--", "--p", "2", "--n", "1", "--free-ranks", "1,1"],
        # refused before argparse looks for the missing --n
        ["find-prime", "--p=--"],
    ],
)
def test_a_lone_dash_dash_is_not_an_option_value(capsys, argv):
    # main refuses "--k=--" before argparse reads it, in the same words on
    # every Python: argparse reads it as an empty list before 3.13 and as
    # "--" from 3.13 on
    usage = "usage: normtower [-h] COMMAND ...\n"
    assert run(capsys, *argv) == (1, "", usage + "normtower: error: '--' is not a value\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--", "--format=--"],  # after a lone "--", a positional
        ["synthesize", "--f=--"],  # ambiguous: --format or --free-ranks
        ["find-prime", "--help=--"],
        ["find-prime", "--h=--"],
        ["find-prime", "--q=--"],  # no option of find-prime
        ["find-prime", "-p=--"],
        ["no-such-command", "--p=--"],
        [],
    ],
)
def test_dash_dash_refusal_leaves_other_tokens_to_argparse(argv):
    assert cli._gives_dash_dash(argv) is False


def test_a_positional_after_dash_dash_is_a_value(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    err = "error: [Errno 2] No such file or directory: '--'\n"
    assert run(capsys, "decompose", "--", "--") == (1, "", err)


def test_domain_verdicts_exit_2(capsys):
    code, _, err = run(capsys, "find-prime", "--p", "3", "--n", "1", "--limit", "12")
    assert code == 2 and "NotFoundBelowLimit" in err


# MR_EXACT_BELOW = 1287836182261 * 2575672364521 passes every Miller-Rabin
# base, and from it on a number that does is refused, not taken as prime
UNPROVED = "3317044064679887385961981"


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--a", "2", "--b", "3", "--place", UNPROVED],
        ["synthesize", "--p", UNPROVED, "--n", "1", "--free-ranks", "1,0"],
        ["find-prime", "--p", UNPROVED, "--n", "1", "--limit", str(10**53)],
    ],
    ids=["hilbert", "synthesize", "find-prime"],
)
def test_unproved_prime_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"FactorizationError: {UNPROVED} passes every Miller-Rabin base; "
        f"primality is proved only below {UNPROVED}\n"
    )


def test_m_compute_takes_the_prime_find_prime_proves(capsys, tmp_path):
    # q - 1 = 100 * 3^64: Pocklington proves q past MR_EXACT_BELOW in both commands
    q = "343368382029251248465784908928101"
    code, out, _ = run(capsys, "find-prime", "--p", "3", "--n", "64", "--limit", str(10**40))
    assert (code, out.split()) == (0, [q])
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"variant": "local_cyclotomic", "p": 3, "n": 64, "q": int(q)}))
    code, out, _ = run(capsys, "m-compute", "--spec", str(spec_file), "--format", "json")
    assert code == 0 and json.loads(out)["m"] == "0"
    # q - 1 = 17 p^2 + p with p^2 < q: no base proves q, so the refusal stands
    q = "68000000000206000000000157"
    spec = {"variant": "local_cyclotomic", "p": 2000000000003, "n": 1, "q": int(q)}
    spec_file.write_text(json.dumps(spec))
    code, out, err = run(capsys, "m-compute", "--spec", str(spec_file))
    assert (code, out) == (2, "")
    assert err.startswith(f"FactorizationError: {q} passes every Miller-Rabin base")


def test_m_compute_biquadratic(capsys, tmp_path):
    spec_file = tmp_path / "biq.json"
    spec_file.write_text(json.dumps({"variant": "biquadratic", "a": 17, "d": -1}))
    code, out, _ = run(capsys, "m-compute", "--spec", str(spec_file))
    assert code == 0
    assert out.splitlines()[0] == "m = 1"
    code, out, _ = run(capsys, "m-compute", "--spec", str(spec_file), "--format", "json")
    data = json.loads(out)
    assert data["m"] == "1" and len(data["evidence"]) >= 3


def test_m_compute_all_variants(capsys, tmp_path):
    cases = (
        ({"variant": "brauer_rowen", "p": 2, "n": 3, "t": 1}, "1"),
        ({"variant": "local_cyclotomic", "p": 2, "n": 2, "q": 5}, "0"),
        ({"variant": "local_kummer", "p": 3, "n": 2, "l": 5}, "-inf"),
        (
            {
                "variant": "function_field",
                "p": 2,
                "n": 3,
                "base": {"kind": "cyclotomic", "conductor": 8},
            },
            "0",
        ),
    )
    for payload, expected in cases:
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(payload))
        code, out, _ = run(
            capsys, "m-compute", "--spec", str(spec_file), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["m"] == expected


def test_cocycle_check(capsys):
    code, out, _ = run(
        capsys, "cocycle-check", "--a", "8", "--b", "2", "--r", "4", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert data["invariant"] == 0  # q = 4 = 0 mod gcd(8, 4)
    assert data["cocycle_block"] and data["cocycle_scaled"]


def test_algebra_certificate(capsys):
    code, out, _ = run(
        capsys, "algebra", "--l", "3", "--r", "2", "--b", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["norm_preimage"] == 4
    # F_9 over F_3, whose units are encoded 1 and 2: every other b is refused
    for b in ("0", "5", "9", "-1"):
        code, out, err = run(capsys, "algebra", "--l", "3", "--d", "1", "--r", "2", "--b", b)
        assert (code, out) == (1, "")
        assert err == "error: b must be a nonzero element of the base field\n"


def test_algebra_heavy_towers_frozen(capsys):
    # every base unit b of the towers the benchmark's heavy algebra slots use
    cases = json.loads((Path(__file__).parent / "algebra_heavy_payloads.json").read_text())
    assert len(cases) == 4 + 8 + 31 + 1
    for case in cases:
        code, out, err = run(capsys, "algebra", *case["argv"], "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == case["payload"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cocycle-check", "--a", "1000", "--b", "10", "--r", "1000"], "a = 1000 > 400"),
        (["cocycle-check", "--a", "400", "--b", "10", "--r", "401"], "a * r = 400 * 401 > 160000"),
        (["cocycle-check", "--a", "10", "--b", "1", "--r", str(10**50)], "a * r"),
        (["algebra", "--l", "2", "--d", "100", "--r", "2", "--b", "1"], "|L| = 2^200 > 100000"),
        (["algebra", "--l", "2", "--d", "30", "--r", "3", "--b", "1"], "|L| = 2^90 > 100000"),
        (["algebra", "--l", "2", "--d", str(10**12), "--r", "2", "--b", "1"], "|L| = 2^"),
        (["synthesize", "--p", "2", "--n", "40", "--free-ranks", "0," * 40 + "1"], "dimension 1099511627776 > 512"),
        (["synthesize", "--p", "2", "--n", "9", "--free-ranks", "1," + "0," * 8 + "1"], "dimension 513 > 512"),
        (["decompose", "-"], "dimension 513 > 512"),
        # (2^521 - 1)^64 has more than the 4,300 digits Python prints
        (["synthesize", "--p", str(2**521 - 1), "--n", "64", "--free-ranks", "0," * 64 + "1"], "dimension of 33344 bits > 512"),
        # representatives times the n-fold product size: 65,535 representatives
        # passed the old bound on them alone, and the scan ran for minutes
        (["ufd-check", "--l", "2", "--n", "3", "--deg", "1", "--g", "15"], "65535 monic representatives times 16^3 exceed 2000000"),
    ],
)
def test_search_guards_exit_2_in_one_line(capsys, monkeypatch, argv, message):
    # stdin for decompose: the identity module of dimension 513, one past MAX_DIM
    sigma = [[int(i == j) for j in range(513)] for i in range(513)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"p": 2, "n": 10, "sigma": sigma})))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("SearchSpaceTooLarge: ") and message in err
    assert err.count("\n") == 1


def test_bad_cocycle_and_prime_arguments_exit_1(capsys):
    code, _, err = run(capsys, "cocycle-check", "--a", "2", "--b", "1", "--r", "0")
    assert (code, err) == (1, "error: r must be >= 1\n")
    for n in (65, 100000):
        code, out, err = run(capsys, "find-prime", "--p", "2", "--n", str(n))
        assert (code, out, err) == (1, "", f"error: n must be at most 64, got {n}\n")
    # before any p^i is formed: 2^3000 has 904 digits, 2^20000 too many to print
    for n in (3000, 20000):
        ranks = "0," * n + "1"
        code, out, err = run(capsys, "synthesize", "--p", "2", "--n", str(n), "--free-ranks", ranks)
        assert (code, out, err) == (1, "", f"error: n must be at most 64, got {n}\n")
    # 1 + p^n past the 4,300 digits Python prints: the message names it as a power
    code, out, err = run(capsys, "find-prime", "--p", str(2**521 - 1), "--n", "64", "--limit", "5")
    assert (code, out) == (1, "")
    assert err == f"error: limit 5 is below 1 + p^n = 1 + {2**521 - 1}^64\n"
    code, out, _ = run(capsys, "find-prime", "--p", "2", "--n", "64", "--limit", str(2**74))
    assert (code, out) == (0, "461168601842738790401\n")  # 25 * 2^64 + 1


@pytest.mark.parametrize("command", ["m-compute", "verify-paper"])
@pytest.mark.parametrize("precision", ["-5", "0", "10001", "100000000", "five"])
def test_precision_out_of_range_exits_1(capsys, tmp_path, command, precision):
    # no value is in range: the 2-adic working precision follows from the spec
    spec_file = tmp_path / "biq.json"
    spec_file.write_text(json.dumps({"variant": "biquadratic", "a": 17, "d": -1}))
    argv = ["--spec", str(spec_file)] if command == "m-compute" else []
    code, out, err = run(capsys, command, *argv, "--precision", precision)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: --precision {precision}" in err


@pytest.mark.parametrize("c", [2**15, 2**16, 2**20, 3 * 2**100])
def test_biquadratic_precision_follows_c(capsys, tmp_path, c):
    # a - sqrt(a) has 2-adic valuation 2 v_2(c) - 1, so the digits the
    # verdict needs grow with v_2(c): 33 at c = 2^15, 203 at c = 3 * 2^100
    spec_file = tmp_path / "biq.json"
    for d, m in ((-1, "m = 1"), (1, "m = undetermined<=0")):
        spec_file.write_text(json.dumps({"variant": "biquadratic", "a": 1 + c * c, "d": d}))
        code, out, err = run(capsys, "m-compute", "--spec", str(spec_file))
        assert (code, out.splitlines()[0], err) == (0, m, "")


def test_negative_degree_bound_exits_1(capsys):
    code, out, err = run(capsys, "ufd-check", "--l", "3", "--n", "2", "--deg", "-1")
    assert (code, out, err) == (1, "", "error: degree bound must be >= 0\n")


def test_ufd_check(capsys):
    code, out, _ = run(
        capsys, "ufd-check", "--l", "3", "--n", "2", "--deg", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    assert data["unit_norms"] == [1]


def test_verify_paper_subset(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "c08")
    assert code == 0
    assert "ladder-index-centralizer" in out and "pass" in out
    code, out, _ = run(
        capsys, "verify-paper", "--only", "c08", "--format", "json"
    )
    data = json.loads(out)
    assert data["passed"] is True and len(data["checks"]) == 1
    code, _, err = run(capsys, "verify-paper", "--only", "zzz")
    assert code == 1


def test_internal_invariant_violation_exits_3(capsys, monkeypatch, tmp_path):
    from normtower import m_invariant
    from normtower.errors import InternalCheckError

    def boom(spec):
        raise InternalCheckError("certificate oracles disagree")

    monkeypatch.setattr(m_invariant, "explain_m", boom)
    spec = tmp_path / "spec.json"
    spec.write_text('{"variant": "biquadratic", "a": 17, "d": -1}')
    code, _, err = run(capsys, "m-compute", "--spec", str(spec))
    assert code == 3
    assert "certificate oracles disagree" in err

    def type_error(spec):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(m_invariant, "explain_m", type_error)
    code, out, err = run(capsys, "m-compute", "--spec", str(spec))
    assert code == 3
    assert out == ""
    assert err == "internal error: TypeError: unsupported operand\n"
    assert "Traceback" not in err


def test_key_error_is_internal(capsys, monkeypatch, tmp_path):
    # no input check raises KeyError, so one is a bug, not a usage error
    from normtower import m_invariant

    def key_error(spec):
        raise KeyError("variant")

    monkeypatch.setattr(m_invariant, "explain_m", key_error)
    spec = tmp_path / "spec.json"
    spec.write_text('{"variant": "brauer_rowen", "p": 2, "n": 3, "t": 1}')
    code, out, err = run(capsys, "m-compute", "--spec", str(spec))
    assert (code, out) == (3, "")
    assert err == "internal error: KeyError: 'variant'\n"


def test_deeply_nested_json_exits_1(capsys, monkeypatch, tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for command in (["decompose"], ["m-compute", "--spec"]):
        code, out, err = run(capsys, *command, str(path))
        assert (code, out, err) == (1, "", f"error: {path}: invalid JSON: nested too deeply\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
        code, out, err = run(capsys, *command, "-")
        assert (code, out, err) == (1, "", "error: -: invalid JSON: nested too deeply\n")


def test_output_is_deterministic(capsys):
    # c09 draws from the seeded generator, so two runs must agree exactly
    first = run(capsys, "verify-paper", "--only", "c09", "--format", "json")
    second = run(capsys, "verify-paper", "--only", "c09", "--format", "json")
    a, b = json.loads(first[1]), json.loads(second[1])
    for record in a["checks"] + b["checks"]:
        record.pop("seconds")
    assert a == b
    assert first[0] == second[0] == 0


def test_every_flag_is_read_by_its_handler(capsys, tmp_path):
    module = tmp_path / "mod.json"
    module.write_text(json.dumps({"p": 2, "n": 1, "sigma": [[1, 1], [0, 1]]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variant": "biquadratic", "a": 17, "d": -1}))
    argvs = (
        ["decompose", str(module)],
        ["synthesize", "--p", "2", "--n", "1", "--free-ranks", "0,1"],
        ["m-compute", "--spec", str(spec)],
        ["find-prime", "--p", "2", "--n", "2"],
        ["hilbert", "--a", "2", "--b", "3", "--place", "2"],
        ["cocycle-check", "--a", "4", "--b", "2", "--r", "2"],
        ["algebra", "--l", "3", "--r", "2", "--b", "2"],
        ["ufd-check", "--l", "3", "--n", "2", "--deg", "1"],
        ["verify-paper", "--only", "c08"],
    )
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    for argv in argvs:
        args = cli._build_parser().parse_args(argv, namespace=Recording())
        handler = args.func
        read.clear()
        assert handler(args) == 0
        capsys.readouterr()
        assert set(vars(args)) - {"command", "func"} <= read, argv
    assert len(argvs) == len(cli._COMMANDS)
