"""The record classes built by `lang.record`: construction, equality, hash,
repr and immutability, checked for every record class in the package.

`pos` and `desugared` say where a record came from: they are stored but take
no part in equality, hashing or repr.  A record's hash is the hash of the
tuple of its compared fields, so dicts and sets keyed by records iterate in
an order fixed by their values.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from kuifje.core import BoolDomain, Dist, IntRange, State
from kuifje.gain import CompareResult, NormalForm, _Term
from kuifje.lang import (
    Bin,
    BoolLit,
    BoolOp,
    Cmp,
    Decl,
    Expr,
    GainExpr,
    GAnd,
    GAtom,
    GMax,
    GPlus,
    GQuantMax,
    Idx,
    IntLit,
    Iverson,
    MaxF,
    Mem,
    MinF,
    Neg,
    Not,
    Program,
    RatLit,
    SAssign,
    SIf,
    SPrint,
    SSeq,
    SSkip,
    Stmt,
    SWhile,
    Token,
    Var,
    replace,
)
from kuifje.wp import WpConfig, WpResult

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

X = Var("x")
ONE = IntLit(1)
TEST = Cmp("<", X, ONE)
ATOM = GAtom(X)
ASSIGN = SAssign("x", None, ONE)

# one instance of every record class, its compared fields given positionally
SAMPLES = [
    (Token, ("name", "x", 1, 2)),
    (Expr, ()),
    (IntLit, (3,)),
    (RatLit, (Fraction(1, 3),)),
    (BoolLit, (True,)),
    (Var, ("x",)),
    (Idx, ("A", ONE)),
    (Bin, ("+", X, ONE)),
    (Neg, (X,)),
    (MaxF, ((X, ONE),)),
    (MinF, ((X, ONE),)),
    (Cmp, ("=", X, ONE)),
    (BoolOp, ("and", TEST, TEST)),
    (Not, (TEST,)),
    (Iverson, (TEST,)),
    (Mem, (X, "A", None, ONE, False)),
    (GainExpr, ()),
    (GAtom, (X,)),
    (GMax, (ATOM, ATOM)),
    (GPlus, (ATOM, ATOM)),
    (GAnd, (X, ATOM)),
    (GQuantMax, ("w", (0, 1), ATOM)),
    (Stmt, ()),
    (SSkip, ()),
    (SAssign, ("x", ONE, X)),
    (SSeq, ((ASSIGN, ASSIGN),)),
    (SIf, (TEST, ASSIGN, SSkip())),
    (SWhile, (TEST, ASSIGN, ATOM)),
    (SPrint, (X,)),
    (Decl, ("x", IntRange(0, 3), False)),
    (Program, ((Decl("b", BoolDomain(), True),), ASSIGN, ATOM)),
    (_Term, (Fraction(1, 2), None, (X,))),
    (NormalForm, ((X, ONE),)),
    (CompareResult, (False, "<=", Dist([(State(("x",), (1,)), 1)]), Fraction(1), Fraction(0))),
    (WpConfig, (5, False, True, True, 2, True)),
    (WpResult, (ATOM, NormalForm((X,)), (("x := 1", "[x = 1]"),))),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]
METADATA = ("pos", "desugared")


def _compared(cls):
    return [n for n in cls._fields if n not in METADATA]


def test_every_record_class_has_a_sample():
    found = {
        obj
        for module in ("lang", "gain", "wp")
        for obj in vars(importlib.import_module(f"kuifje.{module}")).values()
        if isinstance(obj, type) and "_fields" in vars(obj)
    }
    assert found == {cls for cls, _ in SAMPLES}


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_construction_by_position_and_keyword(cls, values):
    names = _compared(cls)
    assert len(names) == len(values)
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    assert [getattr(a, n) for n in names] == list(values)
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_hash_is_the_hash_of_the_compared_fields(cls, values):
    assert hash(cls(*values)) == hash(tuple(values))


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_metadata_takes_no_part_in_eq_hash_or_repr(cls, values):
    hidden = [n for n in METADATA if n in cls._fields]
    plain = cls(*values)
    for n in hidden:
        marked = cls(*values, **{n: (4, 7) if n == "pos" else True})
        assert getattr(marked, n) in ((4, 7), True)
        assert marked == plain
        assert hash(marked) == hash(plain)
        assert repr(marked) == repr(plain)
        assert f"{n}=" not in repr(marked)


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_repr_names_the_compared_fields(cls, values):
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(_compared(cls), values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, values", SAMPLES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, values):
    x = cls(*values)
    for n in cls._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(x, n, 0)
        with pytest.raises(AttributeError):
            delattr(x, n)
    assert x == cls(*values)


@pytest.mark.parametrize(
    "x, text",
    [
        (Bin("+", X, ONE, pos=(1, 5)), "Bin(op='+', left=Var(name='x'), right=IntLit(value=1))"),
        (RatLit(Fraction(1, 3)), "RatLit(value=Fraction(1, 3))"),
        (SSkip((2, 1)), "SSkip()"),
        (
            Mem(X, "A", None, ONE, True),
            "Mem(item=Var(name='x'), array='A', lo=None, hi=IntLit(value=1), negated=True)",
        ),
        (
            Decl("n", IntRange(0, 3), True, pos=(1, 1)),
            "Decl(name='n', domain=int[0..3], visible=True)",
        ),
        (
            Program((), SSkip(), None, (1, 1), True),
            "Program(decls=(), body=SSkip(), post=None)",
        ),
        (Token("eof", "", 3, 1), "Token(kind='eof', text='', line=3, col=1)"),
        (
            WpConfig(force_unfold=True),
            "WpConfig(loop_bound=10000, simplify=True, unsound_no_branch_leak=False,"
            " force_unfold=True, unfold_depth=None, trace=False)",
        ),
        (
            CompareResult(True),
            "CompareResult(holds=True, relation='', counterexample=None, left=None, right=None)",
        ),
    ],
)
def test_repr_literal(x, text):
    assert repr(x) == text


def test_defaults():
    assert WpConfig(force_unfold=True) == WpConfig(10000, True, False, True, None, False)
    assert WpResult(ATOM, NormalForm(())).trace == ()
    assert CompareResult(True).counterexample is None
    assert IntLit(1).pos is None
    p = Program((), SSkip(), None, desugared=True)
    assert p.desugared and not Program((), SSkip(), None).desugared


def test_equality_needs_the_same_class():
    assert GMax(ATOM, ATOM) != GPlus(ATOM, ATOM)
    assert IntLit(1) != RatLit(1) and IntLit(1).__eq__(1) is NotImplemented
    assert Expr() == Expr() and SSkip() == SSkip((1, 1))
    assert len({GMax(ATOM, ATOM), GPlus(ATOM, ATOM)}) == 2


def test_nodes_keep_their_hash():
    node = Bin("+", X, ONE)
    assert "_hash" not in vars(node)
    assert hash(node) == vars(node)["_hash"] == hash(("+", X, ONE))
    config = WpConfig()
    hash(config)
    assert "_hash" not in vars(config)


def test_replace():
    config = WpConfig(loop_bound=5, trace=True)
    changed = replace(config, unsound_no_branch_leak=True)
    assert changed == WpConfig(5, True, True, False, None, True)
    assert config.unsound_no_branch_leak is False
    marked = replace(Program((), SSkip(), None, (2, 3), True), post=ATOM)
    assert (marked.post, marked.pos, marked.desugared) == (ATOM, (2, 3), True)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S: only what kuifje itself imports, not what the site's .pth files do
    code = "import sys, kuifje.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.stdout, proc.stderr) == ("[]\n", "")


def test_record_classes_share_their_eq_hash_and_repr_code():
    # only `__init__` is compiled per class: every class's `__eq__`,
    # `__repr__` and `__hash__` run one code object each, with one more for
    # the `hash_once` form
    classes = [cls for cls, _ in SAMPLES]
    assert len({cls.__eq__.__code__ for cls in classes}) == 1
    assert len({cls.__repr__.__code__ for cls in classes}) == 1
    forms = {}
    for cls, values in SAMPLES:
        x = cls(*values)
        hash(x)
        forms.setdefault("_hash" in vars(x), set()).add(cls.__hash__.__code__)
    assert sorted(forms) == [False, True]
    assert [len(codes) for codes in forms.values()] == [1, 1]
    assert forms[False] != forms[True]


_EXEC_SPY = """
import builtins, json
sources, real = [], builtins.exec
def spy(source, *rest):
    if isinstance(source, str):  # not a module's code, which imports run
        sources.append(source)
    return real(source, *rest)
builtins.exec = spy
import kuifje.cli
builtins.exec = real
print(json.dumps(sources))
"""


def test_cli_import_compiles_one_init_per_record_class_and_nothing_else():
    # source text handed to `exec` is compiled on every start; -S: only what
    # kuifje itself imports, not what the site's .pth files do
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _EXEC_SPY],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.stderr == ""
    sources = json.loads(proc.stdout)
    assert len(sources) == len(SAMPLES)
    for source in sources:
        tree = ast.parse(source)
        assert [(type(d).__name__, d.name) for d in tree.body] == [("FunctionDef", "__init__")]
