"""No two functions of the package are copies of each other.

Two functions of `src/kuifje/*.py` (methods and nested functions included)
whose code, docstring aside, spans six or more lines are copies when that
code is the same once every name, attribute and constant is replaced by a
placeholder: the same code with other operators or node classes filled in.
Such a pair states one decision twice, so the check asks for the one function
both can be built from, as the parser builds its operator levels from one
precedence table.
"""

import ast
import glob
import os
from collections import defaultdict

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "kuifje", "*.py")))
MIN_LINES = 6


def _code(fn):
    """fn's body without its docstring."""
    return fn.body[1:] if ast.get_docstring(fn) is not None else fn.body


def _shape(code):
    """The statements `code` with names, attributes and constants replaced."""
    body = ast.Module(body=code, type_ignores=[])
    for node in ast.walk(body):
        if isinstance(node, ast.Name):
            node.id = "_"
        elif isinstance(node, ast.arg):
            node.arg = "_"
        elif isinstance(node, ast.Attribute):
            node.attr = "_"
        elif isinstance(node, ast.Constant):
            node.value = None
    return ast.dump(body)


def _functions(path):
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    name = os.path.basename(path)
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            code = _code(fn)
            if code and code[-1].end_lineno - code[0].lineno + 1 >= MIN_LINES:
                found.append((f"{name}:{fn.lineno} {fn.name}", code))
    # shapes are taken once every function is found, since taking one changes
    # the nodes in place, those of the functions nested in it too
    return [(where, _shape(code)) for where, code in found]


def copies(paths):
    """The groups of two or more functions of `paths` with one shape."""
    by_shape = defaultdict(list)
    for path in paths:
        for where, shape in _functions(path):
            by_shape[shape].append(where)
    return sorted(sorted(group) for group in by_shape.values() if len(group) > 1)


def test_the_check_finds_a_copy(tmp_path):
    level = (
        "def {name}(self):\n"
        "    self.depth += 1\n"
        "    e = self.{operand}()\n"
        "    while self.accept({token!r}):\n"
        "        e = {node}(e, self.{operand}(){extra})\n"
        "    self.depth -= 1\n"
        "    return e\n\n\n"
    )
    source = tmp_path / "m.py"
    source.write_text(
        level.format(name="add", operand="mul", token="+", node="Add", extra="")
        + level.format(name="mul", operand="unary", token="*", node="Mul", extra="")
        + level.format(name="cmp", operand="add", token="=", node="Cmp", extra=", 1")
    )
    assert copies([str(source)]) == [["m.py:1 add", "m.py:10 mul"]]


def test_no_function_copies_another():
    assert copies(MODULES) == []
