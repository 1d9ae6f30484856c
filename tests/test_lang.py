"""Parsing, printing, typechecking, and expression evaluation."""

import os
import re
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
    _EXPR_LEVELS,
    _GAIN_LEVELS,
    KEYWORDS,
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
    Neg,
    Not,
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


# ---- the precedence table

# the operators of each kind in `_EXPR_LEVELS` and `_GAIN_LEVELS`, with the
# level each binds at, 1 for the loosest
BINARY = {
    t: (level, node, assoc)
    for level, (_, assoc, node, tokens) in enumerate(_EXPR_LEVELS, 1)
    if assoc != "prefix"
    for t in sorted(tokens)
}
PREFIX = {
    t: (level, node)
    for level, (_, assoc, node, tokens) in enumerate(_EXPR_LEVELS, 1)
    if assoc == "prefix"
    for t in tokens
}
GAIN = {t: level for level, (*_, tokens) in enumerate(_GAIN_LEVELS, 1) for t in tokens}
OPERATOR_TOKEN = {
    GMax: "MAX", GPlus: "PLUS", GAnd: "AND", GQuantMax: "MAX", Not: "not", Neg: "-"
}


def _binary(op, left, right):
    # the node of `left op right`; membership's right operand is the array A
    if op in ("in", "notin"):
        return Mem(left, "A", None, None, op == "notin")
    return (BINARY[op][1] or Cmp)(op, left, right)


def _operator_nodes(tree):
    # every node of tree, with the operator token its pos should point at
    if hasattr(tree, "_fields"):
        token = getattr(tree, "op", None) or OPERATOR_TOKEN.get(type(tree))
        if isinstance(tree, Mem):
            token = "notin" if tree.negated else "in"
        if token is not None:
            yield tree, token
        for field in tree._fields:
            yield from _operator_nodes(getattr(tree, field))
    elif isinstance(tree, tuple):
        for item in tree:
            yield from _operator_nodes(item)


def _assert_operators_point_at_their_tokens(tree, text):
    lines = text.split("\n")
    for node, token in _operator_nodes(tree):
        line, col = node.pos
        assert lines[line - 1][col - 1 :].startswith(token), (node, text)


def _assert_prints_as_the_table_needs(tree, nested, needs, gain=False):
    """The printed tree parses back to tree, each operator node's pos at its
    token, and parenthesizes `nested`, a node inside it, just when `needs`,
    where the text without the parentheses parses otherwise."""
    show, parse = (gain_to_source, parse_gain) if gain else (expr_to_source, parse_expr)
    text = show(tree)
    back = parse(text)
    assert back == tree, text
    _assert_operators_point_at_their_tokens(back, text)
    if not needs:
        assert "(" not in text, text
        return
    assert text.count("(") == 1 and f"({show(nested)})" in text, text
    try:
        assert parse(text.replace("(", "").replace(")", "")) != tree, text
    except (ParseError, NonStandardAndContext):
        pass


@pytest.mark.parametrize("outer", sorted(BINARY))
def test_binary_operators_print_as_the_table_needs(outer):
    a, b, c = Var("a"), Var("b"), Var("c")
    level, _, assoc = BINARY[outer]
    for inner, (inner_level, _, _) in BINARY.items():
        nested = _binary(inner, a, b)
        # a left operand may share the level of an operator that associates
        needs = inner_level < level or (inner_level == level and assoc != "left")
        tree = _binary(outer, nested, c)
        _assert_prints_as_the_table_needs(tree, nested, needs)
        if outer not in ("in", "notin"):
            nested = _binary(inner, b, c)
            tree = _binary(outer, a, nested)
            needs = inner_level <= level
            _assert_prints_as_the_table_needs(tree, nested, needs)


@pytest.mark.parametrize("prefix", sorted(PREFIX))
def test_prefix_operators_print_as_the_table_needs(prefix):
    a, b = Var("a"), Var("b")
    level, node = PREFIX[prefix]
    for op, (op_level, _, _) in BINARY.items():
        nested = _binary(op, a, b)
        needs = op_level < level
        tree = node(nested)
        _assert_prints_as_the_table_needs(tree, nested, needs)
        nested = node(a)
        tree = _binary(op, nested, b)
        needs = level < op_level
        _assert_prints_as_the_table_needs(tree, nested, needs)
        if op not in ("in", "notin"):
            tree = _binary(op, b, nested)
            _assert_prints_as_the_table_needs(tree, nested, needs)
    for other, (other_level, other_node) in PREFIX.items():
        nested = other_node(a)
        tree = node(nested)
        if other == prefix:
            # the printer parenthesizes a prefix operand at the prefix's own
            # level too, though `not not a` would parse back the same
            text = expr_to_source(tree)
            assert text.endswith(f"({expr_to_source(nested)})") and text.count("(") == 1
            assert parse_expr(text) == tree
        else:
            needs = other_level < level
            _assert_prints_as_the_table_needs(tree, nested, needs)


def _gain(op, left, right):
    # AND's left operand is an atom's expression
    if op == "AND":
        return GAnd(left.expr, right)
    return (GMax if op == "MAX" else GPlus)(left, right)


@pytest.mark.parametrize("outer", sorted(GAIN))
def test_gain_operators_print_as_the_table_needs(outer):
    a, b, c = (GAtom(Iverson(Var(n))) for n in "abc")
    level = GAIN[outer]
    for inner, inner_level in GAIN.items():
        if outer != "AND":  # AND takes a single atom on its left
            nested = _gain(inner, a, b)
            tree = _gain(outer, nested, c)
            needs = inner_level < level
            _assert_prints_as_the_table_needs(tree, nested, needs, gain=True)
        nested = _gain(inner, b, c)
        tree = _gain(outer, a, nested)
        # AND associates to the right
        needs = inner_level < level or (inner_level == level and outer != "AND")
        _assert_prints_as_the_table_needs(tree, nested, needs, gain=True)
    # a quantifier's body extends as far as it can, so it needs parentheses
    # on the left of an operator; the printer gives them to it on the right too
    quant = GQuantMax("i", (0, 1), _gain(outer, a, b))
    _assert_prints_as_the_table_needs(quant, None, False, gain=True)
    if outer != "AND":
        tree = _gain(outer, quant, c)
        _assert_prints_as_the_table_needs(tree, quant, True, gain=True)
    tree = _gain(outer, a, quant)
    assert gain_to_source(tree).endswith(f"({gain_to_source(quant)})")
    assert parse_gain(gain_to_source(tree)) == tree


def test_operator_positions_span_lines():
    text = "[a or\n not b] MAX\n (MAX i in 0..1:\n [x <\n -n + A[i] * 2] AND [x in A])"
    g = parse_gain(text)
    assert len(list(_operator_nodes(g))) == 10
    _assert_operators_point_at_their_tokens(g, text)


# the rules of docs/grammar.ebnf that are the levels of each table, in order,
# each followed by the rule of its operands
GRAMMAR_LEVELS = [
    (
        _EXPR_LEVELS,
        ("expr", "conjunct", "negation", "relation", "sum", "product", "unary"),
        "primary",
    ),
    (_GAIN_LEVELS, ("gain", "gain_plus", "gain_and"), "gain_prim"),
]


def _grammar():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "grammar.ebnf")
    with open(path) as f:
        return f.read()


def _rules(text):
    # {name: right-hand side} of each rule, comments left out
    text = re.sub(r"\(\*.*?\*\)", "", text, flags=re.S)
    return dict(re.findall(r'(\w+)\s*=((?:"[^"]*"|[^";])*);', text))


def _operators(rules, name):
    # the quoted tokens of a rule, and of each rule it names that is only a
    # choice of quoted tokens (`compare`)
    rhs = rules[name]
    found = set(re.findall(r'"([^"]*)"', rhs))
    for ref in re.findall(r"\b\w+\b", re.sub(r'"[^"]*"', "", rhs)):
        if re.fullmatch(r'\s*"[^"]*"(\s*\|\s*"[^"]*")*\s*', rules.get(ref, "")):
            found |= set(re.findall(r'"([^"]*)"', rules[ref]))
    return found


@pytest.mark.parametrize("levels, names, operand", GRAMMAR_LEVELS, ids=["expr", "gain"])
def test_grammar_lists_the_operators_level_by_level(levels, names, operand):
    rules = _rules(_grammar())
    assert [_operators(rules, name) for name in names] == [
        set(tokens) for *_, tokens in levels
    ]
    # each level's operands are the next level's
    for name, after in zip(names, names[1:] + (operand,)):
        assert re.search(rf"\b{after}\b", rules[name]), (name, after)


def test_grammar_lists_the_keywords():
    listed = re.search(r"Keywords:(.*?)\.\s", _grammar(), re.S).group(1)
    assert set(listed.replace("*", " ").split()) == KEYWORDS


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
    # operator one, at the operator's token
    parens = (MAX_DEPTH - 3) // 3
    parse_expr("(" * parens + "x" + ")" * parens)
    with pytest.raises(ParseError, match=f"^1:{parens + 2}: nesting deeper"):
        parse_expr("(" * (parens + 1) + "x" + ")" * (parens + 1))
    for piece, leaf in [("x + ", "x"), ("a or ", "a"), ("not ", "a"), ("-", "x")]:
        k = MAX_DEPTH - 3
        parse_expr(piece * k + leaf)
        col = len(piece) * k + piece.index(piece.split()[-1]) + 1
        with pytest.raises(ParseError, match=f"^1:{col}: nesting deeper"):
            parse_expr(piece * (k + 1) + leaf)
    # each atom's expression and its Iverson bracket open six
    for op in ("MAX", "PLUS", "AND"):
        k = MAX_DEPTH - 6
        parse_gain(f"[x = 1] {op} " * k + "[x = 1]")
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_gain(f"[x = 1] {op} " * (k + 1) + "[x = 1]")
    # each `if` and `while` opens one, and its guard three more
    for open_, close in [("if x = 1 then ", " fi"), ("while x = 1 do ", " od")]:
        k = MAX_DEPTH - 3
        parse_program("hidden x : int[0..3]\n" + open_ * k + "skip" + close * k)
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_program(
                "hidden x : int[0..3]\n" + open_ * (k + 1) + "skip" + close * (k + 1)
            )


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
