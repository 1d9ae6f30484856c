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
end.  `programs(loop_last=True)` appends one more top-level loop, most often
a counting one, so that the program ends in a loop; when it counts, neither
its body nor any loop counted inside it writes its counter, so it ends
within as many rounds as it counts to unless a loop inside it does not.
`programs(in_range=True)` keeps every run clear of runtime errors: each
divisor is a literal 1 to 3, each index into `A` is taken modulo 2, and
every assignment modulo its domain's size.  With `loop_last=True` too, the
last loop, when it counts, counts `x` or `n`, so that it can run 3 rounds.

`posts(decls)` draws a post-gain over a program's scalars: one-try guesses
`MAX w in lo..hi: [v = w]`, `[test]` atoms, their `MAX` and `PLUS`, and
`[test] AND G`, each of which typechecks against `decls`.

`generated_settings()` gives the generated-program tests their settings:
300 derandomized examples, or, under `--hypothesis-profile=long`, that
profile's (both registered in `tests/conftest.py`).
"""

from hypothesis import settings
from hypothesis import strategies as st

from kuifje.core import BoolDomain, IntRange

MAX_STATES = 64


@st.composite
def programs(draw, depth=2, loop_last=False, in_range=False):
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
            return f"A[{index(d - 1)}]"
        op = draw(st.sampled_from(["+", "-", "*", "div", "mod"]))
        if in_range and op in ("div", "mod"):
            return f"({int_expr(d - 1)} {op} {draw(st.integers(1, 3))})"
        return f"({int_expr(d - 1)} {op} {int_expr(d - 1)})"

    def index(d):
        e = int_expr(d, lits=1)
        return f"{e} mod 2" if in_range else e

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
        if not in_range and draw(st.integers(0, 3)) == 0:
            return e
        return f"{e} mod {hi + 1}"

    def stmt(d, loop=False, keep=()):
        # keep: the counters of the counting loops around it that it may not
        # write (the last loop's, when it counts, and any counted inside it)
        if loop:
            kinds = ["count", "count", "while"]
        else:
            kinds = ["assign", "assign", "write", "print", "skip"]
            if d > 0:
                kinds += ["if", "while", "count"]
        kind = draw(st.sampled_from(kinds))
        if kind == "assign":
            if has_b and draw(st.integers(0, 3)) == 0:
                return f"b := {bool_expr(1)}"
            names = [v for v in ("x", "n") if v not in keep]
            if not names:
                return "skip"
            name = draw(st.sampled_from(names))
            return f"{name} := {value(his[name])}"
        if kind == "write":
            return f"A[{index(1)}] := {value(his['A'])}"
        if kind == "print":
            return f"print {int_expr(2)}"
        if kind == "skip":
            return "skip"
        if kind == "if":
            return f"if {bool_expr(1)} then {seq(d - 1, keep)} else {seq(d - 1, keep)} fi"
        if kind == "while":
            return f"while {bool_expr(1)} do {seq(d - 1, keep)} od"
        if loop and in_range and x_hi:
            name = draw(st.sampled_from(["n", "x"]))
        elif keep:
            free = [v for v in ("n", "x") if v not in keep and his[v]]
            if not free:
                return "skip"
            name = free[0]
        else:
            name = "n"
        k = draw(st.integers(1, his[name]))
        inner = (*keep, name) if loop or keep else ()
        return f"while {name} < {k} do {seq(d - 1, inner)}; {name} := {name} + 1 od"

    def seq(d, keep=()):
        return ";\n".join(stmt(d, keep=keep) for _ in range(draw(st.integers(1, 3))))

    source = "\n".join(decls) + "\n" + "n := 0;\n" * draw(st.booleans()) + seq(depth)
    return source + ";\n" + stmt(depth, loop=True) if loop_last else source


@st.composite
def posts(draw, decls, depth=2):
    ints = [(d.name, d.domain) for d in decls if isinstance(d.domain, IntRange)]
    bools = [d.name for d in decls if isinstance(d.domain, BoolDomain)]

    def test():
        if bools and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(bools + [f"not {b}" for b in bools]))
        name, dom = draw(st.sampled_from(ints))
        op = draw(st.sampled_from(["=", "!=", "<", "<="]))
        if draw(st.booleans()):
            return f"{name} {op} {draw(st.integers(dom.lo, dom.hi))}"
        return f"{name} {op} {draw(st.sampled_from(ints))[0]}"

    def gain(d):
        kinds = ["guess", "guess", "test"] + (["MAX", "PLUS", "AND"] if d > 0 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "guess":
            name, dom = draw(st.sampled_from(ints))
            lo = draw(st.integers(dom.lo, dom.hi))
            hi = draw(st.integers(lo, dom.hi))
            return f"(MAX w in {lo}..{hi}: [{name} = w])"
        if kind == "test":
            return f"[{test()}]"
        if kind == "AND":
            return f"([{test()}] AND {gain(d - 1)})"
        return f"({gain(d - 1)} {kind} {gain(d - 1)})"

    return gain(depth)


def generated_settings():
    name = settings.get_current_profile_name()
    return settings.get_profile("long" if name == "long" else "generated")
