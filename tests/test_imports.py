"""No module of the package imports a name it does not use, and no nested
function of the package calls itself.

Every module-level import in `src/kuifje/*.py` binds a name that the module
reads or lists in its `__all__`.  The one exception is a name that
`perfbench/spans.py` wraps in that module (its `TARGETS`, read from the
file): the module keeps that import so that a span can replace it there.

A nested function that reads its own name holds itself through its closure
cell, so each call of the enclosing function would leave a reference cycle,
and everything the nested function reaches, to the cyclic collector.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "kuifje", "*.py")))


def _tree(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def _wrapped():
    """The (module, name) pairs that `spans.TARGETS` wraps."""
    for node in _tree(os.path.join(ROOT, "perfbench", "spans.py")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {(e.elts[0].value, e.elts[1].value) for e in node.value.elts}
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _imported(tree):
    # the names that the module's top-level imports bind
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_the_wrapped_names_are_found():
    assert {("kuifje.wp", "all_states"), ("kuifje.gain", "all_states")} <= _wrapped()


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_read(path):
    tree = _tree(path)
    module = "kuifje." + os.path.basename(path)[: -len(".py")]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    kept = read | _exported(tree) | {name for m, name in _wrapped() if m == module}
    assert [name for name in _imported(tree) if name not in kept] == []


def _nested_functions(node, inside=False):
    # the functions defined inside a function or lambda, at any depth
    for child in ast.iter_child_nodes(node):
        is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_function and inside:
            yield child
        yield from _nested_functions(
            child, inside or is_function or isinstance(child, ast.Lambda)
        )


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_nested_function_reads_its_own_name(path):
    recursive = [
        fn.name
        for fn in _nested_functions(_tree(path))
        if any(
            isinstance(node, ast.Name) and node.id == fn.name
            and isinstance(node.ctx, ast.Load)
            for node in ast.walk(fn)
        )
    ]
    assert recursive == []
