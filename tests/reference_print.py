"""Reference expression printer, kept only to test `lang.expr_to_source`
against.

`reference_source` is the printer `expr_to_source` was before it kept each
node's rendering on the node: it renders the whole subtree on every call.
It is the definition of the printed form: `expr_to_source(e, prec)` must
return exactly `reference_source(e, prec)`.
"""

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
)

_PREC = {"or": 1, "and": 2, "not": 3, "cmp": 4, "+": 5, "-": 5,
         "*": 6, "div": 6, "mod": 6, "&": 6, "neg": 7}


def reference_source(e, prec=0):
    def wrap(level, s):
        return f"({s})" if level < prec else s

    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, RatLit):
        return f"{e.value.numerator}/{e.value.denominator}"
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Idx):
        return f"{e.name}[{reference_source(e.index)}]"
    if isinstance(e, Neg):
        return wrap(7, f"-{reference_source(e.arg, 8)}")
    if isinstance(e, Bin):
        p = _PREC[e.op]
        return wrap(
            p, f"{reference_source(e.left, p)} {e.op} {reference_source(e.right, p + 1)}"
        )
    if isinstance(e, MaxF):
        return "max(" + ", ".join(reference_source(a) for a in e.args) + ")"
    if isinstance(e, MinF):
        return "min(" + ", ".join(reference_source(a) for a in e.args) + ")"
    if isinstance(e, Cmp):
        return wrap(
            4, f"{reference_source(e.left, 5)} {e.op} {reference_source(e.right, 5)}"
        )
    if isinstance(e, BoolOp):
        p = _PREC[e.op]
        return wrap(
            p, f"{reference_source(e.left, p)} {e.op} {reference_source(e.right, p + 1)}"
        )
    if isinstance(e, Not):
        return wrap(3, f"not {reference_source(e.arg, 4)}")
    if isinstance(e, Iverson):
        return f"[{reference_source(e.arg)}]"
    if isinstance(e, Mem):
        op = "notin" if e.negated else "in"
        lo = "" if e.lo is None else reference_source(e.lo)
        hi = "" if e.hi is None else reference_source(e.hi)
        arr = e.array if not lo and not hi else f"{e.array}[{lo}:{hi}]"
        return wrap(4, f"{reference_source(e.item, 5)} {op} {arr}")
    raise TypeError(f"cannot print {e!r}")
