"""Structure sharing through `wp`.

- Substitution returns a subtree it leaves alone as the same object, and a
  node shared in its input as one shared object in its output.
- On the DAG that `print` builds (one continuation under every
  observation branch), `Canon.normalize_gain` computes each node once.
- A quantifier's instances are built once and kept on it, and `Canon` and
  `GainEvaluator` read those very nodes.
- `GainEvaluator` decides the literals of a pre-gain from level sets,
  with no pass over the states, however many atoms share them.
- `expr_to_source`, which keeps each node's rendering on the node, prints
  exactly what the recursive reference printer (`reference_print.py`)
  prints, at every precedence, whatever context rendered a node first.
"""

import glob
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval as ref
from kuifje.core import Dist, uniform
from kuifje.gain import Canon, GainEvaluator
from kuifje.lang import (
    Bin,
    GAnd,
    GAtom,
    GMax,
    GPlus,
    GQuantMax,
    IntLit,
    Iverson,
    SAssign,
    SIf,
    SPrint,
    SSeq,
    SWhile,
    Var,
    check_program,
    expr_to_source,
    gain_to_source,
    instances,
    parse_expr,
    parse_gain,
    parse_program,
    subst_array_elem_gain,
    subst_expr,
    subst_gain,
)
from kuifje.wp import WpEngine
from reference_print import reference_source
from test_compiler import bools, ints

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
PRECS = range(10)


def _program(src):
    p = parse_program(src)
    check_program(p)
    return p


def _corpus(name):
    with open(os.path.join(CORPUS, name)) as f:
        return _program(f.read())


NAMES = sorted(os.path.basename(p) for p in glob.glob(os.path.join(CORPUS, "*.kuif")))


def _subtrees(e):
    yield e
    for name in ("index", "item", "lo", "hi", "left", "right", "arg"):
        child = getattr(e, name, None)
        if child is not None:
            yield from _subtrees(child)
    for a in getattr(e, "args", ()):
        yield from _subtrees(a)


def _gain_exprs(g):
    if isinstance(g, GAtom):
        yield g.expr
    elif isinstance(g, (GMax, GPlus)):
        yield from _gain_exprs(g.left)
        yield from _gain_exprs(g.right)
    elif isinstance(g, GAnd):
        yield g.scalar
        yield from _gain_exprs(g.body)
    elif isinstance(g, GQuantMax):
        yield from _gain_exprs(g.body)


def _stmt_exprs(s):
    if isinstance(s, SSeq):
        for t in s.stmts:
            yield from _stmt_exprs(t)
    elif isinstance(s, SAssign):
        if s.index is not None:
            yield s.index
        yield s.value
    elif isinstance(s, SPrint):
        yield s.expr
    elif isinstance(s, SIf):
        yield s.guard
        yield from _stmt_exprs(s.then)
        yield from _stmt_exprs(s.els)
    elif isinstance(s, SWhile):
        yield s.guard
        yield from _stmt_exprs(s.body)
        if s.invariant is not None:
            yield from _gain_exprs(s.invariant)


def _gain_children(g):
    if isinstance(g, (GMax, GPlus)):
        return (g.left, g.right)
    if isinstance(g, GAnd):
        return (g.body,)
    return ()


def _post_nodes(g):
    yield g
    for child in _gain_children(g):
        yield from _post_nodes(child)


# ---- substitution keeps sharing


def test_substitution_returns_an_untouched_subtree_itself():
    e = parse_expr("x + A[n] * (y - 1)")
    assert subst_expr(e, "z", IntLit(3)) is e
    out = subst_expr(e, "x", parse_expr("y + 2"))
    assert expr_to_source(out) == "y + 2 + A[n] * (y - 1)"
    assert out.right is e.right
    g = parse_gain("[x = 1] AND (y MAX [n = 2]) PLUS 1/2")
    assert subst_gain(g, "z", IntLit(0)) is g
    out = subst_gain(g, "y", IntLit(0))
    assert out.right is g.right
    assert out.left.scalar is g.left.scalar
    assert out.left.body.right is g.left.body.right


def _shared_gain():
    # one atom and one sub-gain reached twice each, as wp's print rule builds
    atom = parse_expr("A[n] + x")
    cont = GMax(GAtom(atom), GAtom(Bin("*", atom, atom)))
    branches = [GAnd(Iverson(parse_expr(f"x = {v}")), cont) for v in (0, 1)]
    return cont, GPlus(*branches)


def test_subst_gain_keeps_a_shared_node_shared():
    cont, g = _shared_gain()
    out = subst_gain(g, "x", parse_expr("n + 1"))
    left, right = out.left.body, out.right.body
    assert left is right and left is not cont
    assert left.right.expr.left is left.right.expr.right is left.left.expr
    assert expr_to_source(left.left.expr) == "A[n] + (n + 1)"


def test_subst_array_elem_gain_keeps_a_shared_node_shared():
    cont, g = _shared_gain()
    out = subst_array_elem_gain(g, "A", parse_expr("x"), IntLit(1), 3, False)
    left, right = out.left.body, out.right.body
    assert left is right and left is not cont
    assert left.right.expr.left is left.right.expr.right is left.left.expr
    # the scalars do not read A and come back as they were
    assert out.left.scalar is g.left.scalar


# ---- each shared sub-gain normalized once


def test_normalize_gain_computes_each_shared_node_once():
    p = _program(
        "hidden x : int[0..15]\nprint x mod 8\n"
        "@post { [x = 0] MAX [x = 1] MAX 1/2 * [x < 8] MAX [x = 9] PLUS [x = 15] }"
    )
    engine = WpEngine(p)
    pre = engine.wp(p.body, p.post)
    # the DAG: every node once, and how many parents ask for each; a MAX
    # inside a MAX tree is walked from the tree's top, which squeezes the
    # whole tree once, so it is not asked for, and its operands are asked
    # for by that walk, once per edge
    nodes, parents, stack = {}, Counter(), [pre]
    while stack:
        g = stack.pop()
        if id(g) not in nodes:
            nodes[id(g)] = g
            for child in _gain_children(g):
                if not (isinstance(g, GMax) and isinstance(child, GMax)):
                    parents[id(child)] += 1
                stack.append(child)
    canon = engine.canon
    calls = Counter()
    real = canon.normalize_gain

    def counting(g, prune=False):
        calls[id(g)] += 1
        return real(g, prune)

    canon.normalize_gain = counting
    atoms = canon.normalize_gain(pre, True)
    del canon.normalize_gain
    # each node is asked for once per parent, and so is computed once: the
    # post's nodes under all eight branches are asked for once each
    assert calls == parents + Counter({id(pre): 1})
    assert parents[id(p.post)] == 8
    inner = [g for g in _post_nodes(p.post) if g is not p.post]
    assert all(calls[id(g)] == (0 if isinstance(g, GMax) else 1) for g in inner)
    assert sum(isinstance(g, GMax) for g in inner) == 2
    # the memo returns a new list on each call
    again = canon.normalize_gain(pre, True)
    assert again == atoms and again is not atoms


# ---- a quantifier instantiated once


def test_a_quantifier_is_instantiated_once_for_every_reader(monkeypatch):
    p = _program(
        "hidden A : array[2] of int[0..2]\nskip\n"
        "@post { MAX i in 0..1: MAX j in 0..2: [A[i] = j] }"
    )
    bodies = instances(p.post)
    assert instances(p.post) is bodies
    assert [gain_to_source(h) for h in bodies] == [
        "MAX j in 0..2: [A[0] = j]",
        "MAX j in 0..2: [A[1] = j]",
    ]
    nodes = [*bodies, *(h for body in bodies for h in instances(body))]
    assert gain_to_source(nodes[-1]) == "[A[1] = 2]"
    canon = Canon(p.decls)
    canon.normalize_gain(p.post)
    normalized = [g for g, _ in canon._normal_forms.values()]
    read = []
    real = GainEvaluator._eval

    def reading(self, g, support):
        read.append(g)
        return real(self, g, support)

    monkeypatch.setattr(GainEvaluator, "_eval", reading)
    GainEvaluator(canon.space).value(p.post, uniform(canon.space.states()))
    for node in nodes:
        assert any(g is node for g in normalized), gain_to_source(node)
        assert any(g is node for g in read), gain_to_source(node)


# ---- literals decided from level sets, with no pass over the states


def test_gain_evaluator_runs_no_literal_closure_per_state(monkeypatch):
    # 256 atoms over 256 states, each a disjunction of four of the sixteen
    # literals H = c: each literal is decided from H's table, so no node is
    # computed state by state
    engine = WpEngine(_corpus("reveal_low_bits_small.kuif"))
    nf = engine.wp_program().nf
    states = engine.executable.space.states()
    assert len(nf.atoms) == len(states) == 256
    calls = []
    real = GainEvaluator._by_state

    def counting(self, fn, operands, keep):
        calls.append(keep)
        return real(self, fn, operands, keep)

    monkeypatch.setattr(GainEvaluator, "_by_state", counting)
    prior = Dist.from_weights({s: k + 1 for k, s in enumerate(states)})
    got = GainEvaluator(states).value(nf.as_gain(), prior)
    monkeypatch.undo()
    assert not calls
    # the value is the best expected atom, atom by atom and state by state
    assert got == max(
        sum(w * ref.atom(a, s) for s, w in prior.weights) for a in nf.atoms
    ) / prior.den


# ---- the per-node printer against the reference


def _assert_prints_as_reference(e):
    for sub in _subtrees(e):
        for prec in PRECS:
            assert expr_to_source(sub, prec) == reference_source(sub, prec), sub


@pytest.mark.parametrize("name", NAMES)
def test_printer_matches_reference_on_corpus(name):
    program = _corpus(name)
    exprs = list(_stmt_exprs(program.body))
    if program.post is not None:
        exprs += _gain_exprs(program.post)
        exprs += WpEngine(program).wp_program().nf.atoms
    assert exprs
    for e in exprs:
        _assert_prints_as_reference(e)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(ints(3), bools(3)))
def test_printer_matches_reference_on_generated_trees(tree):
    # the whole tree first, in the tightest context, so its subtrees are
    # rendered first inside their parents
    assert expr_to_source(tree, 9) == reference_source(tree, 9)
    _assert_prints_as_reference(tree)


def test_rendering_in_a_tight_context_first_does_not_leak_parentheses():
    inner = parse_expr("x + 1")
    outer = Bin("*", inner, Var("y"))
    assert expr_to_source(outer) == "(x + 1) * y"
    assert expr_to_source(inner) == "x + 1"
    assert expr_to_source(inner, 6) == "(x + 1)"
    neg = parse_expr("-(a or b = c)")
    assert expr_to_source(neg.arg, 8) == "(a or b = c)"
    assert expr_to_source(neg.arg) == "a or b = c"
    assert expr_to_source(neg) == reference_source(neg)
