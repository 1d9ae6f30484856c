"""Reference tree-walking evaluators, kept only to test the compiler against.

`value` is the language's strict evaluation, `truth` the total evaluation of
a boolean (a failing atomic test is false under either polarity), `numeric`
the total value of a numeric expression, which raises where a read fails,
and `atom` the total value of a gain atom.  They walk the tree state by
state, as the package did before it compiled expressions, and read a
quantifier index from the bindings `env`, where the package substitutes
its value (`closed`).
"""

import operator
from fractions import Fraction

from kuifje.errors import DivisionByZero, IndexOutOfBounds
from kuifje.lang import (
    Bin,
    BoolLit,
    BoolOp,
    Cmp,
    Idx,
    IntLit,
    Iverson,
    MaxF,
    Mem,
    MinF,
    Neg,
    Not,
    RatLit,
    Var,
    subst_expr,
)

FAILS = (IndexOutOfBounds, DivisionByZero)

OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "&": operator.and_,
    "div": operator.floordiv, "mod": operator.mod,
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _apply(op, a, b):
    if b == 0 and op in ("div", "mod"):
        raise DivisionByZero(f"{op} by zero")
    return OPS[op](a, b)


def value(e, state, env=None):
    if isinstance(e, (IntLit, RatLit, BoolLit)):
        return e.value
    if isinstance(e, Var):
        if env is not None and e.name in env:
            return env[e.name]
        return state.get(e.name)
    if isinstance(e, Idx):
        arr = state.get(e.name)
        i = value(e.index, state, env)
        if not 0 <= i < len(arr):
            raise IndexOutOfBounds(f"{e.name}[{i}] with length {len(arr)}")
        return arr[i]
    if isinstance(e, Neg):
        return -value(e.arg, state, env)
    if isinstance(e, (Bin, Cmp)):
        a = value(e.left, state, env)
        return _apply(e.op, a, value(e.right, state, env))
    if isinstance(e, MaxF):
        return max(value(a, state, env) for a in e.args)
    if isinstance(e, MinF):
        return min(value(a, state, env) for a in e.args)
    if isinstance(e, BoolOp):
        a = value(e.left, state, env)
        if e.op == "and":
            return value(e.right, state, env) if a else False
        return True if a else value(e.right, state, env)
    if isinstance(e, Not):
        return not value(e.arg, state, env)
    if isinstance(e, Iverson):
        return 1 if value(e.arg, state, env) else 0
    if isinstance(e, Mem):
        arr = state.get(e.array)
        v = value(e.item, state, env)
        lo = 0 if e.lo is None else value(e.lo, state, env)
        hi = len(arr) if e.hi is None else value(e.hi, state, env)
        if not (0 <= lo <= len(arr) and 0 <= hi <= len(arr)):
            raise IndexOutOfBounds(f"slice {e.array}[{lo}:{hi}] with length {len(arr)}")
        found = v in arr[lo:hi]
        return not found if e.negated else found
    raise TypeError(f"cannot evaluate {e!r}")


def truth(e, state, env=None, neg=False):
    """The total truth of e, or of `not e` when neg is set."""
    if isinstance(e, BoolOp):
        left = truth(e.left, state, env, neg)
        if (e.op == "and") != neg:
            return left and truth(e.right, state, env, neg)
        return left or truth(e.right, state, env, neg)
    if isinstance(e, Not):
        return truth(e.arg, state, env, not neg)
    try:
        return bool(value(e, state, env)) != neg
    except FAILS:
        return False


def numeric(e, state, env=None):
    """The total value of a numeric expression: `[test]` is total and a zero
    left factor of `*` shields the right one; a read that fails raises."""
    if isinstance(e, Iverson):
        return 1 if truth(e.arg, state, env) else 0
    if isinstance(e, Bin):
        a = numeric(e.left, state, env)
        if a == 0 and e.op == "*":
            return 0
        return _apply(e.op, a, numeric(e.right, state, env))
    if isinstance(e, Neg):
        return -numeric(e.arg, state, env)
    if isinstance(e, MaxF):
        return max(numeric(a, state, env) for a in e.args)
    if isinstance(e, MinF):
        return min(numeric(a, state, env) for a in e.args)
    return value(e, state, env)


def atom(e, state, env=None):
    """A gain atom's total value: 0 where it cannot be evaluated."""
    try:
        return Fraction(numeric(e, state, env))
    except FAILS:
        return Fraction(0)


def closed(e, env=None):
    """e with each binding of env substituted for its index, as
    `lang.instances` substitutes a quantifier's values."""
    for name, v in (env or {}).items():
        e = subst_expr(e, name, IntLit(v))
    return e
