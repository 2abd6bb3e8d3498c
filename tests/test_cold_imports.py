"""Which normtower modules a fresh interpreter loads: `import normtower.cli`
alone, `--help`, and one call of each subcommand below. A module-level
import that pulls in more than the subcommand runs fails here, and so does
argparse loaded by anything but a line the plain reader leaves to it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = """
import contextlib, io, json, sys
from normtower import cli
rc = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("normtower"))
print(json.dumps([rc, loaded, "argparse" in sys.modules]))
"""

CLI = {"normtower", "normtower.cli", "normtower.errors", "normtower.mvalue", "normtower.numtheory"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        ([], set()),
        (["--help"], set()),
        (["hilbert", "--a=-3/4", "--b", "6", "--place", "all"], {"padic"}),
        (["cocycle-check", "--a", "8", "--b", "2", "--r", "4"], {"cohomology"}),
        (["decompose", "module.json"], {"galois_module", "fp_linalg", "_kernels", "packing"}),
        (
            ["synthesize", "--p", "3", "--n", "2", "--free-ranks", "1,0,1", "--exceptional", "1"],
            {"galois_module", "fp_linalg", "_kernels", "packing"},
        ),
        (["m-compute", "--spec", "spec.json"], {"m_invariant", "roots"}),
        (["find-prime", "--p", "3", "--n", "2"], {"m_invariant", "roots"}),
        (["verify-paper", "--only", "c05"], {"verify", "roots", "cohomology"}),
        (["algebra", "--l", "2", "--d", "1", "--r", "3", "--b", "1"], {"cyclic_algebra", "_kernels", "packing"}),
        (["ufd-check", "--l", "3", "--n", "2", "--deg", "2"], {"ufd_norm", "packing"}),
    ],
    ids=[
        "import",
        "help",
        "hilbert",
        "cocycle-check",
        "decompose",
        "synthesize",
        "m-compute",
        "find-prime",
        "verify-paper-c05",
        "algebra",
        "ufd-check",
    ],
)
def test_loaded_modules(tmp_path, argv, extra):
    (tmp_path / "module.json").write_text('{"p": 2, "n": 2, "sigma": [[1, 1], [0, 1]]}')
    (tmp_path / "spec.json").write_text('{"variant": "brauer_rowen", "p": 2, "n": 3, "t": 1}')
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    rc, loaded, argparse_loaded = json.loads(proc.stdout)
    assert rc == (0 if argv else None)
    assert set(loaded) == CLI | {f"normtower.{name}" for name in extra}
    # only a line the plain reader leaves to argparse loads it
    assert argparse_loaded == (argv == ["--help"])
