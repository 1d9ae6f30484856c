"""The expression compiler against a reference tree-walker, on generated trees.

The declaration makes reads fail: `A[n]` is out of range at n = 2, `div`
and `mod` by z fail at z = 0, and slice bounds can leave the array.  The
quantifier index `i` reads 1: the reference reads it from its bindings, and
the package is given the tree with 1 substituted for it, as
`lang.instances` substitutes a quantifier's values.  Strict evaluation must
give the same value, or raise the same error with the same message; total
evaluation must give the same value.  `GainEvaluator`, which values atoms a
sub-expression column at a time, must agree with the reference atom by atom
and state by state.
"""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval as ref
from kuifje.core import ArrayDomain, BoolDomain, IntRange, all_states
from kuifje.errors import NegativeAtom
from kuifje.gain import GainEvaluator, eval_atom_total, eval_bool_total
from kuifje.lang import (
    Bin,
    BoolLit,
    BoolOp,
    Cmp,
    GAnd,
    GAtom,
    Idx,
    IntLit,
    Iverson,
    MaxF,
    Mem,
    MinF,
    Neg,
    Not,
    Var,
    compile_expr,
    eval_expr,
)

STATES = all_states(
    ("A", "n", "z", "b"),
    [ArrayDomain(2, IntRange(0, 1)), IntRange(0, 2), IntRange(0, 1), BoolDomain()],
)
ENV = {"i": 1}


@cache
def ints(depth):
    leaves = [
        st.integers(-1, 3).map(IntLit),
        st.sampled_from(["n", "z", "i"]).map(Var),
        st.just(Idx("A", Var("n"))),  # fails at n = 2
    ]
    if depth == 0:
        return st.one_of(leaves)
    sub, cond = ints(depth - 1), bools(depth - 1)
    ops = st.sampled_from(["+", "-", "*", "div", "mod", "&"])
    args = st.lists(sub, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        *leaves,
        sub.map(lambda e: Idx("A", e)),
        st.builds(Bin, ops, sub, sub),
        # `*` with a left factor that is often 0 and a right one that often fails
        st.builds(lambda c, e: Bin("*", Iverson(c), Idx("A", e)), cond, sub),
        sub.map(Neg),
        args.map(MaxF),
        args.map(MinF),
        cond.map(Iverson),
    )


@cache
def bools(depth):
    leaves = [
        st.booleans().map(BoolLit),
        st.just(Var("b")),
        st.just(Cmp("=", Idx("A", Var("n")), IntLit(0))),  # fails at n = 2
        # the slice A[:n + 1] fails at n = 2
        st.just(Mem(Var("z"), "A", None, Bin("+", Var("n"), IntLit(1)), False)),
    ]
    if depth == 0:
        return st.one_of(leaves)
    sub, num = bools(depth - 1), ints(depth - 1)
    bound = st.none() | num
    return st.one_of(
        *leaves,
        st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), num, num),
        st.builds(Cmp, st.sampled_from(["=", "!="]), sub, sub),
        st.builds(BoolOp, st.sampled_from(["and", "or"]), sub, sub),
        sub.map(Not),
        st.builds(lambda x, lo, hi, neg: Mem(x, "A", lo, hi, neg), num, bound, bound,
                  st.booleans()),
    )


def _strict(fn, *args):
    try:
        v = fn(*args)
    except Exception as exc:  # the error is the outcome being compared
        return type(exc), str(exc)
    return type(v), v


def _subtrees(e):
    yield e
    for child in (
        getattr(e, "index", None), getattr(e, "item", None), getattr(e, "lo", None),
        getattr(e, "hi", None), getattr(e, "left", None), getattr(e, "right", None),
        getattr(e, "arg", None), *getattr(e, "args", ()),
    ):
        if child is not None:
            yield from _subtrees(child)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(ints(3), bools(3)))
def test_compiled_evaluation_matches_the_reference(tree):
    for e in _subtrees(tree):
        boolean = isinstance(e, (BoolLit, Cmp, BoolOp, Not, Mem)) or e == Var("b")
        c = ref.closed(e, ENV)
        for s in STATES:
            want = _strict(ref.value, e, s, ENV)
            assert _strict(eval_expr, c, s) == want, (e, s)
            if boolean:
                assert eval_bool_total(c, s) is ref.truth(e, s, ENV), (e, s)
                negated = eval_bool_total(Not(c), s)
                assert negated is ref.truth(e, s, ENV, True), (e, s)
            else:
                # an atom that fails is worth 0, like one that is 0; `e + 1`
                # tells the two apart
                for atom in (e, Bin("+", e, IntLit(1))):
                    want = ref.atom(atom, s, ENV)
                    assert eval_atom_total(ref.closed(atom, ENV), s) == want, (e, s)


def test_a_closure_refuses_an_open_quantifier_index():
    # a quantifier index is substituted before anything is compiled: a
    # variable outside the state's names is refused when the closure is built
    for e in (Var("i"), Bin("+", Var("n"), Var("i")), Idx("A", Var("i"))):
        with pytest.raises(ValueError):
            compile_expr(e, STATES[0].names)


# holds on the states with n = i (1 in ENV) and b: a sixth of them
GUARD = Iverson(BoolOp("and", Cmp("=", Var("n"), Var("i")), Var("b")))


def _atoms(tree):
    # each numeric subtree e as e and e + 1, each boolean one b as [b] and
    # [not b]
    for e in _subtrees(tree):
        if isinstance(e, (BoolLit, Cmp, BoolOp, Not, Mem)) or e == Var("b"):
            yield from (Iverson(e), Iverson(Not(e)))
        else:
            yield from (e, Bin("+", e, IntLit(1)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(ints(3), bools(3)))
def test_column_evaluator_matches_the_reference(tree):
    # one evaluator for the whole tree, so subtrees meet columns that their
    # own subtrees left in the memo
    ev = GainEvaluator(STATES)
    everywhere = [(i, 1) for i in range(len(STATES))]
    guard = ref.closed(GUARD, ENV)
    for atom in _atoms(tree):
        want = [ref.atom(atom, s, ENV) for s in STATES]
        c = GAtom(ref.closed(atom, ENV))
        for i, s in enumerate(STATES):
            if want[i] < 0:
                with pytest.raises(NegativeAtom):
                    ev.weighted_value(c, [(i, 1)], 1)
            else:
                got = ev.weighted_value(c, [(i, 1)], 1)
                assert got == want[i], (atom, s)
        # the guard reads the atom only where it holds
        guarded = [w for s, w in zip(STATES, want) if ref.atom(GUARD, s, ENV)]
        g = GAnd(guard, c)
        if min(guarded) < 0:
            with pytest.raises(NegativeAtom):
                ev.weighted_value(g, everywhere, 1)
        else:
            assert ev.weighted_value(g, everywhere, 1) == sum(guarded), atom
