"""Parsing, printing, typechecking, and expression evaluation."""

from fractions import Fraction

import pytest

from kuifje.core import State
from kuifje.errors import (
    DivisionByZero,
    IndexOutOfBounds,
    NonStandardAndContext,
    ParseError,
    RangeEmpty,
    TypeCheckError,
)
from kuifje.lang import (
    MAX_DEPTH,
    BoolLit,
    Cmp,
    GAnd,
    GAtom,
    GMax,
    GPlus,
    GQuantMax,
    IntLit,
    Iverson,
    Mem,
    RatLit,
    Var,
    check_gain,
    check_program,
    desugar_visible,
    eval_expr,
    expr_to_source,
    gain_to_source,
    parse_expr,
    parse_gain,
    parse_program,
    program_to_source,
    stmt_to_source,
)

DECLS = """\
hidden a : bool
hidden b : bool
hidden x : int[0..9]
hidden n : int[0..3]
hidden A : array[3] of int[0..3]
"""


def prog(body, post=None):
    src = DECLS + "\n" + body
    if post:
        src += "\n@post { " + post + " }"
    p = parse_program(src)
    check_program(p)
    return p


# ---- expressions


def test_precedence_arithmetic():
    e = parse_expr("1 + 2 * 3 - 4")
    assert eval_expr(e, State((), ())) == 3


def test_precedence_bool():
    e = parse_expr("true or false and false")
    assert eval_expr(e, State((), ())) is True  # and binds tighter


def test_unary_not_and_comparison():
    s = State(("x",), (3,))
    assert eval_expr(parse_expr("not (x < 3)"), s) is True
    assert eval_expr(parse_expr("x <= 3"), s) is True
    assert eval_expr(parse_expr("x != 3"), s) is False


def test_div_mod_bitand():
    s = State(("x",), (7,))
    assert eval_expr(parse_expr("x div 2"), s) == 3
    assert eval_expr(parse_expr("x mod 4"), s) == 3
    assert eval_expr(parse_expr("x & 5"), s) == 5


def test_division_by_zero_raises():
    s = State(("x", "n"), (1, 0))
    with pytest.raises(DivisionByZero):
        eval_expr(parse_expr("x div n"), s)
    with pytest.raises(DivisionByZero):
        eval_expr(parse_expr("x mod n"), s)


def test_max_min_calls():
    s = State(("x", "n"), (7, 2))
    assert eval_expr(parse_expr("max(x, n, 3)"), s) == 7
    assert eval_expr(parse_expr("min(x, n)"), s) == 2


def test_iverson_value():
    s = State(("x",), (3,))
    assert eval_expr(parse_expr("[x = 3]"), s) == 1
    assert eval_expr(parse_expr("[x = 4]"), s) == 0


def test_indexing_and_bounds():
    s = State(("A", "n"), ((4, 5, 6), 1))
    assert eval_expr(parse_expr("A[n]"), s) == 5
    assert eval_expr(parse_expr("A[n + 1]"), s) == 6
    with pytest.raises(IndexOutOfBounds):
        eval_expr(parse_expr("A[n + 2]"), s)


def test_membership_and_slices():
    s = State(("A", "x", "n"), ((4, 5, 6), 5, 2))
    assert eval_expr(parse_expr("x in A"), s) is True
    assert eval_expr(parse_expr("x in A[n:]"), s) is False
    assert eval_expr(parse_expr("x notin A[n:]"), s) is True
    assert eval_expr(parse_expr("x in A[:n]"), s) is True
    assert eval_expr(parse_expr("x in A[1:2]"), s) is True


def test_empty_slice_is_empty():
    s = State(("A", "x", "n"), ((4, 5, 6), 4, 3))
    assert eval_expr(parse_expr("x in A[n:]"), s) is False


def test_short_circuit_guards_partial_operations():
    s = State(("A", "x", "n"), ((4, 5, 6), 4, 3))
    assert eval_expr(parse_expr("n != 3 and A[n] != x"), s) is False
    assert eval_expr(parse_expr("n = 3 or A[n] = x"), s) is True


# ---- expression printing round-trips


@pytest.mark.parametrize(
    "text",
    [
        "x div 2",
        "n + 1",
        "x = 3",
        "a or b",
        "a or not b",
        "not a and not b",
        "x in A[1:]",
        "x notin A",
        "max(A[0], A[1], A[2])",
        "x mod 2 = 1",
        "(x + 1) * 2",
        "x - (1 - n)",
        "[x = 3] * 2 + [x = 4]",
    ],
)
def test_expr_print_parse_roundtrip(text):
    e = parse_expr(text)
    assert parse_expr(expr_to_source(e)) == e


@pytest.mark.parametrize(
    "text",
    [
        "[a or b] MAX [a or not b]",
        "[x in A[n:]] PLUS (MAX i in 0..2: [i < n and A[i] = x and x notin A[n:]])",
        "(MAX i in 0..2: [A[i] = x]) MAX 1/10 * [x notin A]",
        "[a] AND [b] MAX [not a]",
        "MAX w in {0, 2, 5}: [x = w]",
        "max(A[0], A[1], A[2])",
        "[a] AND ([b] PLUS [not b])",
    ],
)
def test_gain_print_parse_roundtrip(text):
    g = parse_gain(text)
    assert parse_gain(gain_to_source(g)) == g


def test_program_print_parse_roundtrip(corpus_dir):
    import glob
    import os

    for path in sorted(glob.glob(os.path.join(corpus_dir, "*.kuif"))):
        with open(path) as f:
            p = parse_program(f.read())
        q = parse_program(program_to_source(p))
        assert q.decls == p.decls, path
        assert q.body == p.body, path
        assert q.post == p.post, path
        # printing is a fixpoint
        assert program_to_source(q) == program_to_source(p), path


# ---- gain grammar specifics


def test_gain_precedence_max_plus_and():
    g = parse_gain("[a] MAX [b] PLUS [a] AND [b]")
    # AND binds tightest, then PLUS, then MAX
    assert isinstance(g, GMax)
    assert isinstance(g.right, GPlus)
    assert isinstance(g.right.right, GAnd)


def test_gain_and_requires_atom_left():
    with pytest.raises(NonStandardAndContext):
        parse_gain("([a] PLUS [b]) AND [a]")


def test_gain_and_is_right_associative():
    g = parse_gain("[a] AND [b] AND [x = 1]")
    assert isinstance(g, GAnd)
    assert isinstance(g.body, GAnd)


def test_quantifier_range_and_set():
    g = parse_gain("MAX w in 0..2: [x = w]")
    assert isinstance(g, GQuantMax) and g.values == (0, 1, 2)
    g2 = parse_gain("MAX w in {4, 1}: [x = w]")
    assert g2.values == (1, 4)


def test_quantifier_empty_range_rejected():
    with pytest.raises(RangeEmpty):
        parse_gain("MAX w in 3..1: [x = w]")


def test_rational_literal_only_in_gain():
    g = parse_gain("1/10 * [a]")
    assert isinstance(g, GAtom)
    assert g.expr.left == RatLit(Fraction(1, 10))
    # in program positions, / is not an operator
    with pytest.raises(ParseError):
        parse_expr("1/10")


def test_parenthesized_scalar_then_arithmetic():
    g = parse_gain("(1/10) * [x notin A]")
    assert isinstance(g, GAtom)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_program("hidden a : bool\nif a then skip")
    assert "line" not in str(e.value).split(":")[0]  # message starts line:col
    assert str(e.value).startswith("2:") or ":" in str(e.value)


# ---- programs and statements


def test_if_without_else_prints_back():
    p = prog("if a then\n  b := true\nfi")
    text = program_to_source(p)
    assert "else" not in text
    assert parse_program(text).body == p.body


def test_statement_separators_tolerate_trailing():
    p1 = prog("b := true;\na := false")
    p2 = prog("b := true;\na := false;")
    assert p1.body == p2.body


def test_visible_desugars_to_print():
    src = "hidden x : int[0..3]\nvisible y : int[0..3]\ny := x"
    p = parse_program(src)
    check_program(p)
    d = desugar_visible(p)
    text = stmt_to_source(d.body)
    assert "print y" in text


def test_desugar_visible_is_idempotent(load_program):
    p = load_program("search_with_flag")
    once = desugar_visible(p)
    twice = desugar_visible(once)
    assert twice == once
    assert stmt_to_source(twice.body).count("print ") == 2


def test_nesting_limit_is_a_parse_error():
    # an expression opens three levels, each parenthesis three more, each
    # operator one
    parens = (MAX_DEPTH - 3) // 3
    parse_expr("(" * parens + "x" + ")" * parens)
    with pytest.raises(ParseError, match=f"^1:{parens + 2}: nesting deeper"):
        parse_expr("(" * (parens + 1) + "x" + ")" * (parens + 1))
    parse_expr(" + ".join(["x"] * (MAX_DEPTH - 2)))
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_expr(" + ".join(["x"] * (MAX_DEPTH - 1)))
    # each atom's expression and its Iverson bracket open six
    parse_gain(" MAX ".join(["[x = 1]"] * (MAX_DEPTH - 5)))
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_gain(" MAX ".join(["[x = 1]"] * (MAX_DEPTH - 4)))


# ---- typechecking rejections


@pytest.mark.parametrize(
    "body,post",
    [
        ("x := true", None),  # bool into int
        ("a := 3", None),  # int into bool
        ("x := y", None),  # undeclared
        ("A := A", None),  # whole-array assignment
        ("A[0] := a", None),  # bool into int element
        ("if x then skip fi", None),  # non-bool guard
        ("while x do skip od", None),  # non-bool guard
        ("print A", None),  # array print
        ("skip", "[x] MAX [a]"),  # int in bool position
        ("skip", "[a = 1]"),  # bool/int comparison
        ("skip", "[a < b]"),  # ordered comparison on bools
        ("skip", "MAX n in 0..2: [x = n]"),  # quantifier shadows a variable
        ("skip", "A[4]"),  # static index out of bounds
        ("skip", "x - 1 - x"),  # possibly negative atom
        ("skip", "b AND [a]"),  # non-atom used as AND scalar
    ],
)
def test_rejected(body, post):
    with pytest.raises(TypeCheckError):
        prog(body, post)


def test_visible_array_rejected():
    with pytest.raises(TypeCheckError):
        check_program(parse_program("visible A : array[2] of int[0..1]\nskip"))


def test_duplicate_declaration_rejected():
    with pytest.raises(TypeCheckError):
        check_program(parse_program("hidden x : int[0..1]\nhidden x : bool\nskip"))


def test_nonneg_discipline_accepts_guarded_forms():
    # all of these must typecheck: subtraction is absent, Iversons and
    # literals and declared-nonneg variables multiply freely
    prog("skip", "[a] MAX 1/2 * [b] MAX x * [a] MAX max(x, n) AND [b]")


def test_check_gain_standalone():
    p = prog("skip")
    g = parse_gain("MAX w in 0..3: [n = w]")
    check_gain(g, p.decls)
    with pytest.raises(TypeCheckError):
        check_gain(parse_gain("[q]"), p.decls)
