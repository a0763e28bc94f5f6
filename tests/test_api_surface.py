"""Every public top-level function and class of the package has a caller in
the package or its scripts, and every optional parameter of a public
function is passed by one: no public API exists only for the tests."""

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


# fields.py is left out: the catalog passes its keywords through a variable
DEFAULTED_MODULES = ("quadrature.py", "norms.py", "smoothing.py", "verification.py")


def _defaulted_parameters():
    """(module, function, parameter) -> position, for every parameter with a
    default of a public top-level function; the position is None for a
    keyword-only one."""
    found = {}
    for module in DEFAULTED_MODULES:
        for node in _parse(os.path.join(PACKAGE, module)).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args.posonlyargs + node.args.args
            for i in range(len(args) - len(node.args.defaults), len(args)):
                found[module, node.name, args[i].arg] = i
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    found[module, node.name, arg.arg] = None
    return found


def _calls():
    """(called name, positional count, keyword names) of every call in the
    package or its scripts; a call with *args counts as passing every
    position, and one with **kwargs as passing every keyword (None)."""
    calls = []
    for path in _modules(PACKAGE) + _modules(os.path.join(ROOT, "scripts")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls.append((name, float("inf") if starred else len(node.args),
                          {kw.arg for kw in node.keywords}))
    return calls


DEFAULTED = _defaulted_parameters()
CALLS = _calls()


@pytest.mark.parametrize("module,function,parameter", sorted(DEFAULTED))
def test_optional_parameter_is_passed_outside_tests(module, function, parameter):
    position = DEFAULTED[module, function, parameter]
    passed = any(
        name == function and (parameter in keywords or None in keywords
                              or (position is not None and count > position))
        for name, count, keywords in CALLS
    )
    assert passed, f"{module}:{function}({parameter}=...) is never passed in src/ or scripts/"
