"""Every public function, class and method in src/normtower has a caller
in src/normtower outside its own definition. A function or class counts as
called when its name is read, bare or as an attribute; a method only when
it is read as an attribute (x.name), so `from operator import mul` does not
vouch for a method named mul."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "normtower"

# called from outside src: perfbench records the backend, and the README's
# module-to-tower link has no caller in src yet
ALLOWED = {"_kernels.backend_name", "m_invariant.cross_check_profile"}


def inherited(cls):
    """Attribute names of the bases of a class that come from other packages,
    such as argparse.ArgumentParser: methods overriding them are called there."""
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            names.update(dir(getattr(importlib.import_module(base.value.id), base.attr)))
    return names


def definitions(tree, module):
    """(qualified name, name, first line, last line, is a method) of each
    public def."""
    found = []

    def visit(node, prefix, skip):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                if not child.name.startswith("_") and child.name not in skip:
                    method = isinstance(node, ast.ClassDef)
                    found.append((qualified, child.name, child.lineno, child.end_lineno, method))
                if isinstance(child, ast.ClassDef):
                    visit(child, qualified, inherited(child))

    visit(tree, module, set())
    return found


def references(tree):
    """(name, line, read as an attribute) of every name and attribute the
    module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def test_every_public_name_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    unreferenced = []
    for module, tree in trees.items():
        for qualified, name, first, last, method in definitions(tree, module):
            used = any(
                ref == name
                and (attribute or not method)
                and not (other == module and first <= line <= last)
                for other, lines in refs.items()
                for ref, line, attribute in lines
            )
            if not used:
                unreferenced.append(qualified)
    assert sorted(unreferenced) == sorted(ALLOWED)
