"""The plain module reader against the JSON path.

`galois_module.read_plain_module` reads a plain module file, whose sigma
is a square array of one-digit integers, straight into its residue buffer,
and declines any other text, which `decompose` then parses with
json.loads. On every text of the corpus below `decompose` must print the
same exit code, stdout and stderr with the reader as with a reader that
always declines, and the reader must take exactly the texts marked plain.
"""

import contextlib
import io
import json

import pytest

from normtower import cli, galois_module
from normtower.galois_module import MAX_DIM


def synthesize_output():
    """What `synthesize --format json` writes: indent 2, sorted keys."""
    out = io.StringIO()
    argv = ["synthesize", "--p", "3", "--n", "2", "--free-ranks", "1,0,1", "--exceptional", "1"]
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--format", "json"]) == 0
    return out.getvalue()


def identity(d, p=2, n=1):
    rows = ",".join("[" + ",".join("1" if i == j else "0" for j in range(d)) + "]" for i in range(d))
    return f'{{"p":{p},"n":{n},"sigma":[{rows}]}}'


BLOCK = {"p": 2, "n": 2, "sigma": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}
COMPACT = json.dumps(BLOCK, separators=(",", ":"))
SPACED = json.dumps(BLOCK)
SYNTHESIZED = synthesize_output()
README = '{"p": 2, "n": 2, "sigma": [[1,1,0,0],[0,1,0,0],[0,0,1,1],[0,0,0,1]]}'

# name, text, whether the reader takes it (answers or raises) rather than declining
CORPUS = [
    ("compact", COMPACT, True),
    ("json.dumps spacing", SPACED, True),
    ("synthesize output", SYNTHESIZED, True),
    ("README example", README, True),
    ("CRLF", SPACED.replace(", ", ",\r\n  "), True),
    ("CRLF syntax error", '{"p": 2,\r\n "n": 2,\r\n "sigma": [[1, 1],\r\n [0, 1]],\r\n}\r\n', False),
    ("tabs and newlines in sigma", '{"p":2,"n":2,"sigma"\t:\n[ [1 ,1]\t,\r[0,\n1 ] ] }', True),
    ("sigma first, extra keys", '{"sigma":[[1,1],[0,1]],"note":"[[2]]","p":2,"n":1}', True),
    ("UTF-8 BOM", "\ufeff" + COMPACT, False),
    ("duplicate key spelled sigma", r'{"p":2,"n":2,"sig\u006da":[[1,0],[0,1]],"sigma":[[1,1],[0,1]]}', False),
    ("duplicate key spelled sigma last", r'{"p":2,"n":2,"sigma":[[1,1],[0,1]],"sig\u006da":[[1]]}', False),
    ("duplicate plain sigma", '{"p":2,"n":2,"sigma":[[1,0],[0,1]],"sigma":[[1,1],[0,1]]}', False),
    ("sigma nested in another object", '{"p":2,"n":2,"m":{"sigma":[[1,1],[0,1]]}}', False),
    ("sigma nested beside an escaped one", r'{"p":2,"n":2,"m":{"sigma":[[1]]},"sig\u006da":[[1]]}', False),
    ("sigma inside a string", r'{"p":2,"n":2,"note":"\"sigma\": [[1]]","sigma":[[1,1],[0,1]]}', False),
    ("sigma as a string value", '{"p":2,"n":2,"note":"sigma","sigma":[[1,1],[0,1]]}', False),
    ("sigma key in a string", '{"p":2,"n":2,"note":"a "sigma": [[1]] b"}', False),
    ("form feed between rows", '{"p":2,"n":2,"sigma":[[1,1],\f[0,1]]}', False),
    ("vertical tab between rows", '{"p":2,"n":2,"sigma":[[1,1],\v[0,1]]}', False),
    ("leading zero 01", '{"p":2,"n":2,"sigma":[[1,01],[0,1]]}', False),
    ("digits apart 1 0", '{"p":2,"n":2,"sigma":[[1 0],[0,1]]}', False),
    ("minus zero", '{"p":2,"n":2,"sigma":[[1,-0],[0,1]]}', False),
    ("entry at p", '{"p":2,"n":2,"sigma":[[3,1],[2,1]]}', True),
    ("entry above p", '{"p":5,"n":1,"sigma":[[6,9],[5,1]]}', True),
    ("two-digit entry", '{"p":2,"n":2,"sigma":[[11,1],[0,1]]}', False),
    ("float entry", '{"p":2,"n":2,"sigma":[[1.0,1],[0,1]]}', False),
    ("bool entry", '{"p":2,"n":2,"sigma":[[true,1],[0,1]]}', False),
    ("p = 11, 0/1 entries", '{"p":11,"n":1,"sigma":[[1,1,0],[0,1,1],[0,0,1]]}', True),
    ("p = 2^61 - 1", '{"p":2305843009213693951,"n":1,"sigma":[[1,1],[0,1]]}', True),
    ("p = 257, entry 9", '{"p":257,"n":1,"sigma":[[1,9],[0,1]]}', True),
    ("p = 4", '{"p":4,"n":1,"sigma":[[1,1],[0,1]]}', True),
    ("p = true", '{"p":true,"n":1,"sigma":[[1,1],[0,1]]}', True),
    ("p = 1", '{"p":1,"n":1,"sigma":[[1]]}', True),
    ("p = 2.0", '{"p":2.0,"n":1,"sigma":[[1]]}', True),
    ("missing p", '{"n":1,"sigma":[[1]]}', True),
    ("n = 0", '{"p":2,"n":0,"sigma":[[1,1],[0,1]]}', True),
    ("n = 65", '{"p":2,"n":65,"sigma":[[1]]}', True),
    ("missing n", '{"p":2,"sigma":[[1,1],[0,1]]}', True),
    ("order above p^n", '{"p":2,"n":1,"sigma":[[1,1,0],[0,1,1],[0,0,1]]}', True),
    ("not unipotent", '{"p":3,"n":1,"sigma":[[0,1],[1,0]]}', True),
    ("exceptional summand", '{"p":3,"n":1,"sigma":[[1,1],[0,1]]}', True),
    ("ragged rows", '{"p":2,"n":2,"sigma":[[1,1],[1]]}', False),
    ("not square", '{"p":2,"n":2,"sigma":[[1,1],[0,1],[0,0]]}', False),
    ("empty sigma []", '{"p":2,"n":2,"sigma":[]}', False),
    ("empty row [[]]", '{"p":2,"n":2,"sigma":[[]]}', False),
    ("row of rows", '{"p":2,"n":2,"sigma":[[1,[1]],[0,1]]}', False),
    ("extra bracket after sigma", '{"p":2,"n":2,"sigma":[[1,1],[0,1]]]}', False),
    ("trailing comma in sigma", '{"p":2,"n":2,"sigma":[[1,1],[0,1],]}', False),
    ("trailing data", COMPACT + " x", False),
    ("two objects", COMPACT + COMPACT, False),
    ("non-ASCII text", '{"p":2,"n":2,"note":"\u00e9","sigma":[[1,1],[0,1]]}', False),
    ("top-level list", f"[{COMPACT}]", False),
    ("no sigma", '{"p":2,"n":2}', False),
    ("empty file", "", False),
    ("p past the int digit limit", '{"p":' + "1" * 5000 + ',"n":1,"sigma":[[1]]}', False),
    ("nested too deeply", '{"x":' + "[" * 100000 + "]" * 100000 + ',"p":2,"n":1,"sigma":[[1]]}', False),
    ("NaN beside sigma", '{"p":2,"n":1,"x":NaN,"sigma":[[1]]}', True),
    ("dimension 512", identity(MAX_DIM), True),
    ("dimension 513", identity(MAX_DIM + 1), True),
    # two faults: the one module_from_json meets first is reported
    ("p = 4, n = 65", '{"p":4,"n":65,"sigma":[[1]]}', True),
    ("p = 4, dimension 513", identity(MAX_DIM + 1, p=4), True),
    ("p = true, n missing", '{"p":true,"sigma":[[1]]}', True),
]
IDS = [name for name, _, _ in CORPUS]


def decline(text):
    return None


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def both_paths(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of argv with the plain reader, then with
    a reader that always declines."""
    plain = run(capsys, argv)
    with monkeypatch.context() as patch:
        patch.setattr(galois_module, "read_plain_module", decline)
        return plain, run(capsys, argv)


@pytest.mark.parametrize("name, text, _", CORPUS, ids=IDS)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_decompose_prints_the_same_on_both_paths(capsys, monkeypatch, tmp_path, name, text, _, fmt):
    path = tmp_path / "module.json"
    path.write_bytes(text.encode())
    plain, parsed = both_paths(capsys, monkeypatch, ["decompose", str(path), "--format", fmt])
    assert plain == parsed


@pytest.mark.parametrize("name", ["compact", "CRLF syntax error", "UTF-8 BOM", "p = 4"])
def test_decompose_reads_stdin_alike_on_both_paths(capsys, monkeypatch, name):
    text = dict((n, t) for n, t, _ in CORPUS)[name]
    results = []
    for reader in (galois_module.read_plain_module, decline):
        monkeypatch.setattr(galois_module, "read_plain_module", reader)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        results.append(run(capsys, ["decompose", "-", "--format", "json"]))
    assert results[0] == results[1]


def outcome(call):
    """("module", p, n, dim, residues) of the module call returns, ("declines",)
    for None, or ("raises", type, message)."""
    try:
        mod = call()
    except Exception as err:
        return "raises", type(err), str(err)
    return ("declines",) if mod is None else ("module", mod.p, mod.n, mod.dim, mod.sigma.entries)


@pytest.mark.parametrize("name, text, plain", CORPUS, ids=IDS)
def test_the_reader_takes_the_plain_texts_and_agrees_with_module_from_json(name, text, plain):
    taken = outcome(lambda: galois_module.read_plain_module(text))
    if plain:
        assert taken == outcome(lambda: galois_module.module_from_json(json.loads(text)))
    else:
        assert taken == ("declines",)


def test_plain_files_decompose_without_module_from_json(capsys, monkeypatch, tmp_path):
    def refuse(data):
        raise AssertionError("module_from_json ran on a plain file")

    monkeypatch.setattr(galois_module, "module_from_json", refuse)
    for text in (COMPACT, SPACED, SYNTHESIZED):
        path = tmp_path / "module.json"
        path.write_text(text)
        code, out, err = run(capsys, ["decompose", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["p"] in (2, 3)
