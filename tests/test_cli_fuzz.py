"""Seeded fuzz of the exit-code contract.

Valid argument vectors for all nine subcommands, and valid module and
tower spec JSON, are mutated: types and signs swapped, numbers pushed past
each guard, keys dropped, objects nested, and the flags a subcommand does
not take added. Every run must exit 0, 1 or 2 with no traceback and no
`internal error` line, within a time limit that only a hang exceeds. A
module file's text is mutated too, and `decompose` must print the same
with the plain module reader as with the JSON path alone.
"""

import json
import random
import signal

import pytest

from normtower import galois_module
from normtower.cli import main
from normtower.errors import NormTowerError
from normtower.galois_module import MAX_DIM

SEED = 20240
CASES = 600  # argument vectors; each JSON file below adds its own mutations
TEXT_CASES = 300  # mutated module file texts, each run on both read paths
# per run: a hang, not a slow input; ufd-check --l 3 --n 3 --deg 1 --g 9
# took about 7 s before ufd-check bounded its work, and now exits 2
SECONDS = 20


def module(sigma, p=2, n=2):
    return {"p": p, "n": n, "sigma": sigma}


VALID_MODULE = module([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
VALID_SPECS = (
    {"variant": "brauer_rowen", "p": 2, "n": 3, "t": 1},
    {"variant": "function_field", "p": 2, "n": 2, "base": {"kind": "cyclotomic", "conductor": 8}},
    {"variant": "function_field", "p": 3, "n": 1, "base": {"kind": "finite_field", "order": 7}},
    {"variant": "local_cyclotomic", "p": 3, "n": 1, "q": 13},
    {"variant": "local_kummer", "p": 3, "n": 2, "l": 2},
    {"variant": "biquadratic", "a": 17, "d": -1},
)

# option -> value of a valid run; "@module" and "@spec" name the JSON files
COMMANDS = {
    "decompose": {None: "@module"},
    "synthesize": {"--p": "2", "--n": "2", "--free-ranks": "0,0,1", "--exceptional": "1"},
    "m-compute": {"--spec": "@spec"},
    "find-prime": {"--p": "3", "--n": "2", "--limit": "1000"},
    "hilbert": {"--a": "-1", "--b": "3/4", "--place": "2"},
    "cocycle-check": {"--a": "8", "--b": "2", "--r": "4"},
    "algebra": {"--l": "3", "--d": "1", "--r": "2", "--b": "2"},
    "ufd-check": {"--l": "3", "--n": "2", "--deg": "1", "--g": "2"},
    # --only stays: without it every check runs, which takes seconds
    "verify-paper": {"--only": "c08", "--seed": "7"},
}
FIXED = {None, "--spec", "--only"}  # never dropped or mutated
# values past the guards: n <= 64, dimension <= 512,
# a <= 400, a r <= 160,000, |L| <= 10^5, field and degree bounds of ufd-check
PAST_GUARDS = ("65", "401", "513", "160001", "200001", "3000", str(10**12), str(2**64))
NOT_INTS = ("x", "1.5", "", "1/0", "0", "true", "null", "[1]", "{}", "--")


def mutate_value(rng, value):
    kind = rng.randrange(4)
    if kind == 0:
        return "-" + value.lstrip("-") if not value.startswith("-") else value[1:]
    if kind == 1:
        return rng.choice(NOT_INTS)
    if kind == 2:
        return rng.choice(PAST_GUARDS)
    return rng.choice(("0", "1", "2", "3", "4", "7", "9", "0,1", "1,0,0,0", "inf", "all", "c", "m-"))


def mutate_argv(rng, command):
    options = dict(COMMANDS[command])
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(list(options))
        if key in FIXED:
            continue
        if rng.random() < 0.2:
            del options[key]
        else:
            options[key] = mutate_value(rng, options[key])
    argv = [command]
    for key, value in options.items():
        argv += [value] if key is None else [f"{key}={value}"]
    if rng.random() < 0.2:
        argv += ["--format", rng.choice(("json", "text", "xml"))]
    return argv


def mutate_json(rng, data):
    """One mutation of a JSON object: a key dropped, or a value swapped
    for another type, negated, pushed past a guard or nested."""
    data = json.loads(json.dumps(data))
    key = rng.choice(list(data))
    kind = rng.randrange(5)
    if kind == 0:
        del data[key]
    elif kind == 1:
        data[key] = rng.choice(("2", 2.0, True, None, [2], {"value": 2}))
    elif kind == 2 and isinstance(data[key], int) and not isinstance(data[key], bool):
        data[key] = -data[key]
    elif kind == 3:
        data[key] = rng.choice((65, 513, 10**6, 2**61 - 1, 10**40))
    else:
        data[key] = {key: data[key]}
    return data


def module_cases(rng):
    sigma = VALID_MODULE["sigma"]
    yield VALID_MODULE
    yield module([[int(i == j) for j in range(MAX_DIM)] for i in range(MAX_DIM)], n=9)
    yield module([[int(i == j) for j in range(MAX_DIM + 1)] for i in range(MAX_DIM + 1)], n=10)
    yield module([[1] * (MAX_DIM + 1)])  # not square
    yield module([[[x] for x in row] for row in sigma])  # nested entries
    yield module(sigma, p=2**61 - 1)
    yield [VALID_MODULE]
    yield "sigma"
    for _ in range(40):
        yield mutate_json(rng, VALID_MODULE)
        rows = [list(row) for row in sigma]
        rows[rng.randrange(3)][rng.randrange(3)] = rng.choice((-1, 5, 2**70, 0.5, "1", None))
        yield module(rows)


# text-level mutations of the module file: the plain reader must read each
# as json.loads does, or leave it to json.loads
WHITESPACE = (" ", "\t", "\n", "\r", "\r\n", "\f", "\v")
ENTRIES = ("01", "10", "-1", "true")


def mutate_module_text(rng):
    """VALID_MODULE's file with one or two text mutations: whitespace
    inserted, keys reordered (in compact or indented form), a BOM, CRLF line
    endings, one entry replaced, or one bracket or comma dropped."""
    keys = list(VALID_MODULE)
    rng.shuffle(keys)
    text = json.dumps({k: VALID_MODULE[k] for k in keys}, **rng.choice(
        ({}, {"separators": (",", ":")}, {"indent": 2}, {"indent": 1, "sort_keys": True})
    ))
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(5)
        if kind == 0:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(WHITESPACE) + text[at:]
        elif kind == 1:
            text = "\ufeff" + text
        elif kind == 2:
            text = text.replace("\n", "\r\n") if "\n" in text else text.replace(",", ",\r\n")
        elif kind == 3:
            start = text.index("[")
            at = rng.choice([i for i, c in enumerate(text) if c in "01" and i > start])
            text = text[:at] + rng.choice(ENTRIES) + text[at + 1 :]
        else:
            at = rng.choice([i for i, c in enumerate(text) if c in "[],"])
            text = text[:at] + text[at + 1 :]
    return text


def spec_cases(rng):
    yield from VALID_SPECS
    yield list(VALID_SPECS)
    for _ in range(60):
        spec = rng.choice(VALID_SPECS)
        mutated = mutate_json(rng, spec)
        if "base" in mutated and isinstance(mutated["base"], dict) and rng.random() < 0.5:
            mutated["base"] = mutate_json(rng, mutated["base"])
        yield mutated


class Hang(BaseException):
    """Raised by the alarm; not an Exception, so main does not catch it."""


@pytest.fixture
def call(capsys):
    def on_alarm(signum, frame):
        raise Hang

    previous = signal.signal(signal.SIGALRM, on_alarm)

    def run(argv):
        signal.setitimer(signal.ITIMER_REAL, SECONDS)
        try:
            code = main(argv)
        except Hang:
            pytest.fail(f"no exit within {SECONDS} s: {argv}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        out = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code, out.err)
        assert "Traceback" not in out.err and "internal error" not in out.err, (argv, out.err)
        return code, out.out, out.err

    yield run
    signal.signal(signal.SIGALRM, previous)


def test_mutated_argument_vectors_keep_the_exit_contract(call, tmp_path):
    rng = random.Random(SEED)
    module_file = tmp_path / "module.json"
    module_file.write_text(json.dumps(VALID_MODULE))
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(VALID_SPECS[-1]))
    files = {"@module": str(module_file), "@spec": str(spec_file)}
    for _ in range(CASES):
        argv = mutate_argv(rng, rng.choice(list(COMMANDS)))
        for name, path in files.items():
            argv = [arg.replace(name, path) for arg in argv]
        call(argv)


def test_mutated_json_keeps_the_exit_contract(call, tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "input.json"
    for data in module_cases(rng):
        path.write_text(json.dumps(data))
        call(["decompose", str(path)])
    for data in spec_cases(rng):
        path.write_text(json.dumps(data))
        call(["m-compute", "--spec", str(path)])


def test_mutated_module_text_reads_alike_on_both_paths(call, tmp_path, monkeypatch):
    rng = random.Random(SEED)
    path = tmp_path / "module.json"
    plain = 0
    for _ in range(TEXT_CASES):
        text = mutate_module_text(rng)
        path.write_bytes(text.encode())
        argv = ["decompose", str(path), "--format", rng.choice(("json", "text"))]
        with monkeypatch.context() as patch:
            patch.setattr(galois_module, "read_plain_module", lambda text: None)
            parsed = call(argv)
        assert call(argv) == parsed, repr(text)
        try:
            plain += galois_module.read_plain_module(path.read_text()) is not None
        except (ValueError, NormTowerError):  # taken, and refused as the JSON path refuses
            plain += 1
    # whitespace, key order and CRLF keep a file plain; the other mutations do not
    assert 0 < plain < TEXT_CASES


def test_flags_a_subcommand_does_not_take_exit_1(call, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(VALID_SPECS[-1]))
    module_file = tmp_path / "module.json"
    module_file.write_text(json.dumps(VALID_MODULE))
    files = {"@module": str(module_file), "@spec": str(spec_file)}
    takes = {"verify-paper": {"--seed"}}
    for command, options in COMMANDS.items():
        argv = [command]
        for key, value in options.items():
            value = files.get(value, value)
            argv += [value] if key is None else [key, value]
        for flag in {"--precision", "--seed"} - takes.get(command, set()):
            code, _, err = call(argv + [flag, "3"])
            assert code == 1 and f"unrecognized arguments: {flag} 3" in err, (argv, flag)
