"""A hypothesis strategy for small, well-typed programs (ROADMAP item 8).

`programs()` draws the source text of a program over at most 64 declared
states: two integer scalars `x` and `n`, an array `A` of two small
integers, and sometimes a boolean `b`, with `x` sometimes `visible`.  Its
statements are scalar and array-element assignments, `print`, `skip`, `if`
and `while`, nested up to `depth` levels.  Expressions use `+`, `-`, `*`,
`div` and `mod` and read `A` at computed indices, so a division by zero, a
read or write past the end of `A` and an assignment out of its declared
domain can all stop a path.  A loop either counts `n` up to a bound or has
a drawn guard and body, so some loops run past a small loop bound; most
assignments are taken modulo their domain's size, so many paths run to the
end.
"""

from hypothesis import strategies as st

MAX_STATES = 64


@st.composite
def programs(draw, depth=2):
    x_hi = draw(st.integers(1, 3))
    n_hi = draw(st.integers(1, 2))
    a_hi = draw(st.integers(0, 2))
    has_b = draw(st.booleans())
    while (x_hi + 1) * (n_hi + 1) * (a_hi + 1) ** 2 * (2 if has_b else 1) > MAX_STATES:
        x_hi -= 1
    his = {"x": x_hi, "n": n_hi, "A": a_hi}
    x_kind = draw(st.sampled_from(["hidden", "hidden", "visible"]))
    decls = [
        f"{x_kind} x : int[0..{x_hi}]",
        f"hidden n : int[0..{n_hi}]",
        f"hidden A : array[2] of int[0..{a_hi}]",
    ] + (["hidden b : bool"] if has_b else [])

    def int_expr(d, lits=3):
        kinds = ["lit", "var", "var", "read"] + (["op", "op"] if d > 0 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "lit":
            return str(draw(st.integers(0, lits)))
        if kind == "var":
            return draw(st.sampled_from(["x", "n"]))
        if kind == "read":
            return f"A[{int_expr(d - 1, lits=1)}]"
        op = draw(st.sampled_from(["+", "-", "*", "div", "mod"]))
        return f"({int_expr(d - 1)} {op} {int_expr(d - 1)})"

    def bool_expr(d):
        kinds = ["cmp", "cmp"] + (["var"] if has_b else []) + (
            ["not", "and", "or"] if d > 0 else []
        )
        kind = draw(st.sampled_from(kinds))
        if kind == "var":
            return "b"
        if kind == "not":
            return f"not ({bool_expr(d - 1)})"
        if kind in ("and", "or"):
            return f"({bool_expr(d - 1)} {kind} {bool_expr(d - 1)})"
        op = draw(st.sampled_from(["=", "!=", "<", "<="]))
        return f"{int_expr(1)} {op} {int_expr(1)}"

    def value(hi):
        e = int_expr(2)
        return e if draw(st.integers(0, 3)) == 0 else f"{e} mod {hi + 1}"

    def stmt(d):
        kinds = ["assign", "assign", "write", "print", "skip"]
        if d > 0:
            kinds += ["if", "while", "count"]
        kind = draw(st.sampled_from(kinds))
        if kind == "assign":
            if has_b and draw(st.integers(0, 3)) == 0:
                return f"b := {bool_expr(1)}"
            name = draw(st.sampled_from(["x", "n"]))
            return f"{name} := {value(his[name])}"
        if kind == "write":
            return f"A[{int_expr(1, lits=1)}] := {value(his['A'])}"
        if kind == "print":
            return f"print {int_expr(2)}"
        if kind == "skip":
            return "skip"
        if kind == "if":
            return f"if {bool_expr(1)} then {seq(d - 1)} else {seq(d - 1)} fi"
        if kind == "while":
            return f"while {bool_expr(1)} do {seq(d - 1)} od"
        k = draw(st.integers(1, n_hi))
        return f"while n < {k} do {seq(d - 1)}; n := n + 1 od"

    def seq(d):
        return ";\n".join(stmt(d) for _ in range(draw(st.integers(1, 3))))

    return "\n".join(decls) + "\n" + "n := 0;\n" * draw(st.booleans()) + seq(depth)
