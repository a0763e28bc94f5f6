"""Every public top-level function and class of the package has a caller in
the package or its scripts: no public API exists only for the tests."""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "sobolev_wlab")


def _modules(directory):
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".py") and name != "__init__.py"
    )


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _public_definitions():
    for path in _modules(PACKAGE):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield os.path.basename(path), node.name


def _referenced_names():
    """Names read anywhere in the package (its __init__ excluded) or its
    scripts; a definition is not a reference to itself."""
    names = set()
    for path in _modules(PACKAGE) + _modules(os.path.join(ROOT, "scripts")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


REFERENCED = _referenced_names()


@pytest.mark.parametrize("module,name", sorted(_public_definitions()))
def test_public_name_has_a_caller_outside_tests(module, name):
    assert name in REFERENCED, f"{module}:{name} is public but nothing in src/ or scripts/ uses it"
