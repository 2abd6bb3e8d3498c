"""numtheory.whole owns the library's int rule: an int argument is an int,
not a bool, within its range, and the tower height n is at most MAX_N. No
other code in src/normtower tests `type(x) is int` or compares with MAX_N;
it calls whole, and passes MAX_N as whole's ceiling."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "normtower"
OWNER = ("numtheory", "whole")


def _is_name(node, name):
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _is_int_type_test(node):
    """type(...) is int, or type(...) is not int, either way round."""
    if not any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
        return False
    operands = [node.left, *node.comparators]
    calls_type = any(
        isinstance(x, ast.Call) and _is_name(x.func, "type") for x in operands
    )
    return calls_type and any(_is_name(x, "int") for x in operands)


def _compares_max_n(node):
    return any(_is_name(x, "MAX_N") for x in [node.left, *node.comparators])


def rule_checks():
    """(module, enclosing function, line, kind) of every int-type test and
    MAX_N comparison in src/normtower."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Compare):
                if _is_int_type_test(child):
                    found.append((module, inner, child.lineno, "type is int"))
                if _compares_max_n(child):
                    found.append((module, inner, child.lineno, "MAX_N comparison"))
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_only_whole_tests_int_type_or_max_n():
    checks = rule_checks()
    outside = [c for c in checks if c[:2] != OWNER]
    assert outside == []
    # the rule itself is there: whole tests the type once
    assert [c[3] for c in checks if c[:2] == OWNER] == ["type is int"]


def test_the_walk_finds_both_kinds():
    tree = ast.parse("def f(x):\n    return type(x) is not int or int is type(x) or x > MAX_N\n")
    compares = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)]
    assert [_is_int_type_test(node) for node in compares] == [True, True, False]
    assert [_compares_max_n(node) for node in compares] == [False, False, True]
