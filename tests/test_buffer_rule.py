"""fp_linalg owns the residue buffer of an FpMatrix: `bytes` for p <= 256,
else a list. No other module in src/normtower reads `._residues`, and
outside fp_linalg only the kernels (_kernels, packing) compare with 256."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "normtower"
OWNER = "fp_linalg"
KERNELS = ("_kernels", "packing")


def _compares_256(node):
    return any(
        isinstance(x, ast.Constant) and x.value == 256 for x in [node.left, *node.comparators]
    )


def buffer_uses(tree, module):
    """(module, line, kind) of every `._residues` read and every comparison
    with 256 in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_residues":
            found.append((module, node.lineno, "._residues"))
        if isinstance(node, ast.Compare) and _compares_256(node):
            found.append((module, node.lineno, "256 comparison"))
    return sorted(found)


def src_buffer_uses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += buffer_uses(ast.parse(path.read_text()), path.stem)
    return found


def test_only_fp_linalg_reads_the_residue_buffer():
    uses = src_buffer_uses()
    outside = [
        (module, line, kind)
        for module, line, kind in uses
        if module != OWNER and not (module in KERNELS and kind == "256 comparison")
    ]
    assert outside == []
    # the rule itself is there: fp_linalg keeps the buffer and picks its type
    kinds = {kind for module, _, kind in uses if module == OWNER}
    assert kinds == {"._residues", "256 comparison"}


def test_the_walk_finds_both_kinds():
    tree = ast.parse("def f(m, p):\n    return m._residues if p <= 256 else 256 > p\n")
    assert buffer_uses(tree, "x") == [
        ("x", 2, "._residues"),
        ("x", 2, "256 comparison"),
        ("x", 2, "256 comparison"),
    ]
