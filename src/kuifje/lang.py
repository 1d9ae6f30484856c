"""The surface language: lexer, AST, parser, typechecker, compiler, printer.

Programs declare `hidden`/`visible` variables over finite domains, run a small
imperative body (skip, assignments, if/fi, while/od, print), and may carry a
trailing `@post { ... }` adversarial gain expression.  Gain expressions are
built from non-negative arithmetic atoms with `MAX` (adversary's choice),
`PLUS` (independent sub-adversaries), `AND` (scaling by a single atom), and a
bounded quantifier `MAX i in lo..hi: ...`.

The parser is hand-rolled recursive descent over a regex lexer; positions are
1-based line:column and ride along on AST nodes without affecting equality.
Input may nest at most MAX_DEPTH levels.  Expressions are evaluated strictly
by closures that `compile_expr` builds once per node; a gain atom's total
semantics is `gain.GainEvaluator`'s.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import partial

from .core import ArrayDomain, BoolDomain, IntRange
from .errors import (
    DivisionByZero,
    IndexOutOfBounds,
    NonStandardAndContext,
    ParseError,
    RangeEmpty,
    TypeCheckError,
)

# --- records ---------------------------------------------------------------------
# Fields that say where a record came from, not what it is: stored, but left out
# of equality, hashing and repr.
_METADATA = ("pos", "desugared")


def _read_only(self, name, value=None):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def record(cls, hash_once=False):
    """Make `cls` an immutable record of its annotated fields.

    One `exec` builds `__init__`, `__eq__`, `__hash__` and `__repr__`, the
    methods of a frozen record class from the standard library, at a
    fraction of what building and importing those cost when the CLI starts.
    The fields are the class's own annotations, in order; a class attribute
    of the same name is a field's default.  `__eq__` compares the tuples of
    compared fields (all but `_METADATA`) of two instances of one class,
    `__hash__` is the hash of that tuple, and `__repr__` reads
    `Name(field=value, ...)` over them.  With `hash_once` the hash is kept
    in the instance's `__dict__` under `_hash` when first asked for.
    Setting or deleting an attribute raises AttributeError.
    """
    names = tuple(cls.__annotations__)
    defaults = {f"_d_{n}": getattr(cls, n) for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in defaults else f", {n}" for n in names)
    keys = [n for n in names if n not in _METADATA]
    mine = "(" + "".join(f"self.{n}," for n in keys) + ")"
    theirs = "(" + "".join(f"other.{n}," for n in keys) + ")"
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in keys)
    hashed = f" return hash({mine})\n"
    if hash_once:
        kept = "self.__dict__['_hash']"
        hashed = (
            f" try:\n  return {kept}\n except KeyError:\n"
            f"  h = {kept} = hash({mine})\n  return h\n"
        )
    made = {}
    exec(
        f"def __init__(self{params}):\n d = self.__dict__\n"
        + "".join(f" d['{n}'] = {n}\n" for n in names)
        + f"def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
        f"  return {mine} == {theirs}\n return NotImplemented\n"
        f"def __hash__(self):\n{hashed}"
        f"def __repr__(self):\n return f'{{self.__class__.__qualname__}}({shown})'\n",
        defaults,
        made,
    )
    for name, fn in made.items():
        setattr(cls, name, fn)
    cls.__setattr__ = cls.__delattr__ = _read_only
    cls._fields = names
    return cls


def replace(rec, **changes):
    """A copy of the record `rec` with the given fields changed."""
    return type(rec)(**{n: changes.get(n, getattr(rec, n)) for n in rec._fields})


# --- lexer ---------------------------------------------------------------------

KEYWORDS = {
    "hidden", "visible", "bool", "int", "array", "of",
    "skip", "if", "then", "else", "fi", "while", "invariant", "do", "od",
    "print", "true", "false", "div", "mod", "and", "or", "not",
    "max", "min", "in", "notin", "MAX", "PLUS", "AND",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<int>\d+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<post>@post)
    | (?P<sym>:=|\.\.|!=|<=|>=|[;:,()\[\]{}+\-*=<>&/])
    """,
    re.VERBOSE,
)


@record
class Token:
    kind: str  # "int", "name", a keyword, "@post", a symbol, or "eof"
    text: str
    line: int
    col: int


def tokenize(src):
    tokens = []
    pos, line, bol = 0, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, pos - bol + 1)
        col = pos - bol + 1
        kind = m.lastgroup
        text = m.group()
        if kind == "ws" or kind == "comment":
            pass
        elif kind == "int":
            tokens.append(Token("int", text, line, col))
        elif kind == "name":
            k = text if text in KEYWORDS else "name"
            tokens.append(Token(k, text, line, col))
        elif kind == "post":
            tokens.append(Token("@post", text, line, col))
        else:
            tokens.append(Token(text, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            bol = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, len(src) - bol + 1))
    return tokens


# --- AST -------------------------------------------------------------------------
# pos is metadata (see `record`), so parse -> print -> parse round-trips compare
# equal.

def _node(cls):
    """An AST node: a `record` that computes its hash once, on first use.

    Memos keyed by nodes then pay one dict lookup per hash instead of a walk
    of the subtree.  Nodes are not interned: two equal nodes may carry
    different positions.  The hash is kept in the node's `__dict__` under
    `_hash`, beside the compiled closures (see `compile_expr`) and the
    rendering (see `expr_to_source`).
    """
    return record(cls, hash_once=True)


@record
class Expr:
    pass


@_node
class IntLit(Expr):
    value: int
    pos: tuple = None


@_node
class RatLit(Expr):
    value: Fraction
    pos: tuple = None


@_node
class BoolLit(Expr):
    value: bool
    pos: tuple = None


@_node
class Var(Expr):
    name: str
    pos: tuple = None


@_node
class Idx(Expr):
    name: str
    index: Expr
    pos: tuple = None


@_node
class Bin(Expr):
    op: str  # + - * div mod &
    left: Expr
    right: Expr
    pos: tuple = None


@_node
class Neg(Expr):
    arg: Expr
    pos: tuple = None


@_node
class MaxF(Expr):
    args: tuple
    pos: tuple = None


@_node
class MinF(Expr):
    args: tuple
    pos: tuple = None


@_node
class Cmp(Expr):
    op: str  # = != < <= > >=
    left: Expr
    right: Expr
    pos: tuple = None


@_node
class BoolOp(Expr):
    op: str  # and | or   (short-circuit)
    left: Expr
    right: Expr
    pos: tuple = None


@_node
class Not(Expr):
    arg: Expr
    pos: tuple = None


@_node
class Iverson(Expr):
    arg: Expr  # boolean; value is the indicator 1/0
    pos: tuple = None


@_node
class Mem(Expr):
    """Membership `item in A[lo:hi]` over a half-open slice of a declared array.

    lo/hi of None mean 0 and the array length; `notin` sets negated.
    """

    item: Expr
    array: str
    lo: Expr | None
    hi: Expr | None
    negated: bool
    pos: tuple = None


# gain expressions


@record
class GainExpr:
    pass


@_node
class GAtom(GainExpr):
    expr: Expr
    pos: tuple = None


@_node
class GMax(GainExpr):
    left: GainExpr
    right: GainExpr
    pos: tuple = None


@_node
class GPlus(GainExpr):
    left: GainExpr
    right: GainExpr
    pos: tuple = None


@_node
class GAnd(GainExpr):
    scalar: Expr  # the single-atom (standard) left operand
    body: GainExpr
    pos: tuple = None


@_node
class GQuantMax(GainExpr):
    var: str
    values: tuple  # concrete ints, resolved at parse time
    body: GainExpr
    pos: tuple = None


# statements


@record
class Stmt:
    pass


@_node
class SSkip(Stmt):
    pos: tuple = None


@_node
class SAssign(Stmt):
    name: str
    index: Expr | None  # None for scalar targets
    value: Expr
    pos: tuple = None


@_node
class SSeq(Stmt):
    stmts: tuple
    pos: tuple = None


@_node
class SIf(Stmt):
    guard: Expr
    then: Stmt
    els: Stmt
    pos: tuple = None


@_node
class SWhile(Stmt):
    guard: Expr
    body: Stmt
    invariant: GainExpr | None
    pos: tuple = None


@_node
class SPrint(Stmt):
    expr: Expr
    pos: tuple = None


@record
class Decl:
    name: str
    domain: object
    visible: bool
    pos: tuple = None


@record
class Program:
    decls: tuple
    body: Stmt
    post: GainExpr | None
    pos: tuple = None
    # set by desugar_visible, which returns a marked program unchanged
    desugared: bool = False


# --- parser ----------------------------------------------------------------------

_STMT_END = {"eof", ";", "else", "fi", "od", "@post"}
_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}

# Operator precedence, stated once: `_build_levels` builds the parser's operator
# levels from these tables and the printer parenthesizes by them.  A row is a
# level, loosest first: name, associativity, node built, operator tokens.  The
# "none" level (comparisons do not chain) and the "right" one (AND takes a
# single atom on its left) are written out in `Parser`, so they name no node.
_GAIN_LEVELS = (
    ("max", "left", GMax, ("MAX",)),
    ("plus", "left", GPlus, ("PLUS",)),
    ("and", "right", None, ("AND",)),
)
_EXPR_LEVELS = (
    ("or", "left", BoolOp, ("or",)),
    ("and", "left", BoolOp, ("and",)),
    ("not", "prefix", Not, ("not",)),
    ("cmp", "none", None, _CMP_OPS | {"in", "notin"}),
    ("add", "left", Bin, ("+", "-")),
    ("mul", "left", Bin, ("*", "div", "mod", "&")),
    ("unary", "prefix", Neg, ("-",)),
)
# a level's number, 1 for the loosest, by its tokens, or by its name for a
# prefix level (so `_PREC["-"]` is binary minus's)
_GAIN_PREC = {t: n for n, (*_, tokens) in enumerate(_GAIN_LEVELS, 1) for t in tokens}
_PREC = {
    key: n
    for n, (name, assoc, _, tokens) in enumerate(_EXPR_LEVELS, 1)
    for key in ((name,) if assoc == "prefix" else tokens)
}
# tokens that continue an arithmetic expression after a parenthesized gain turned
# out to be a lone atom, e.g. `(1/10)*[x notin A]`: the binary operators
_ARITH_CONT = {t for _, assoc, _, ts in _EXPR_LEVELS if assoc != "prefix" for t in ts}

# The deepest a program, an expression or a gain may nest, in levels.  Each
# unary or binary operator opens one level: `x + x + x` takes two more than
# `x`.  Each expression, whole or within parentheses, brackets, an index or a
# call, opens three, since the parser passes nine functions deep to reach
# it; each parenthesized gain and each quantifier body opens two; each `if`
# and `while` opens one.  So counted, the parser, the typechecker, the
# canonicalizer, the compiler and the closures it builds each spend at most
# about three Python frames per level (without a limit, `wp` handles at most
# 108 nested parentheses, 325 nested operators, 972 chained gain operators
# and 487 nested `if`s).  At the limit, `wp` and `check` leave at least 380
# frames of Python's default recursion limit of 1000 unused.  Deeper input
# is a ParseError naming the token where the limit was passed.
MAX_DEPTH = 200


class Parser:
    def __init__(self, src):
        self.toks = tokenize(src)
        self.i = 0
        self.in_gain = False
        self.depth = 0  # nesting levels open; see MAX_DEPTH

    # token plumbing

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind):
        return self.peek().kind == kind

    def accept(self, kind):
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind, what=None):
        t = self.peek()
        if t.kind != kind:
            found = t.text or "end of input"
            raise ParseError(f"expected {what or kind!r}, found {found!r}", t.line, t.col)
        return self.next()

    def fail(self, message):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    def nest(self, t, levels=1):
        """Open nesting levels at token t.  Callers put `depth` back when the
        levels they opened are closed."""
        self.depth += levels
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", t.line, t.col)

    # program structure

    def parse_program(self):
        start = self.peek()
        decls = []
        while self.peek().kind in ("hidden", "visible"):
            decls.append(self.parse_decl())
            self.accept(";")
        body = self.parse_seq() if self.peek().kind not in ("@post", "eof") else SSkip()
        post = None
        if self.accept("@post"):
            self.expect("{")
            post = self.parse_gain()
            self.expect("}")
        self.expect("eof", "end of program")
        return Program(tuple(decls), body, post, pos=(start.line, start.col))

    def parse_decl(self):
        t = self.next()  # hidden | visible
        name = self.expect("name", "variable name")
        self.expect(":")
        domain = self.parse_domain()
        return Decl(name.text, domain, t.kind == "visible", pos=(t.line, t.col))

    def parse_domain(self):
        t = self.peek()
        if self.accept("bool"):
            return BoolDomain()
        if self.accept("int"):
            self.expect("[")
            lo = self.parse_signed_int()
            self.expect("..")
            hi = self.parse_signed_int()
            self.expect("]")
            if hi < lo:
                raise ParseError(f"empty range {lo}..{hi}", t.line, t.col)
            return IntRange(lo, hi)
        if self.accept("array"):
            self.expect("[")
            n = int(self.expect("int", "array length").text)
            self.expect("]")
            self.expect("of")
            elem = self.parse_domain()
            if isinstance(elem, ArrayDomain):
                self.fail("nested arrays are not supported")
            if n == 0:
                raise ParseError("array length must be positive", t.line, t.col)
            return ArrayDomain(n, elem)
        self.fail("expected a type (bool, int[lo..hi], or array[N] of ...)")

    def parse_signed_int(self):
        neg = self.accept("-")
        v = int(self.expect("int").text)
        return -v if neg else v

    # statements

    def parse_seq(self):
        start = self.peek()
        stmts = [self.parse_stmt()]
        while self.accept(";"):
            if self.peek().kind in _STMT_END:
                break  # tolerate a trailing semicolon
            stmts.append(self.parse_stmt())
        if len(stmts) == 1:
            return stmts[0]
        return SSeq(tuple(stmts), pos=(start.line, start.col))

    def parse_stmt(self):
        t = self.peek()
        if self.accept("skip"):
            return SSkip(pos=(t.line, t.col))
        if self.accept("print"):
            return SPrint(self.parse_expr(), pos=(t.line, t.col))
        if self.accept("if"):
            self.nest(t)
            guard = self.parse_expr()
            self.expect("then")
            then = self.parse_seq()
            els = self.parse_seq() if self.accept("else") else SSkip(pos=(t.line, t.col))
            self.expect("fi")
            self.depth -= 1
            return SIf(guard, then, els, pos=(t.line, t.col))
        if self.accept("while"):
            self.nest(t)
            guard = self.parse_expr()
            invariant = None
            if self.accept("invariant"):
                self.expect("{")
                invariant = self.parse_gain()
                self.expect("}")
            self.expect("do")
            body = self.parse_seq()
            self.expect("od")
            self.depth -= 1
            return SWhile(guard, body, invariant, pos=(t.line, t.col))
        if self.at("name"):
            name = self.next()
            index = None
            if self.accept("["):
                index = self.parse_expr()
                self.expect("]")
            self.expect(":=", "':='")
            value = self.parse_expr()
            return SAssign(name.text, index, value, pos=(name.line, name.col))
        self.fail(f"expected a statement, found {t.text or 'end of input'!r}")

    # gain expressions and expressions: `_build_levels` adds the "left" and
    # "prefix" levels (`_gain_max`, `_gain_plus`, `_expr_or`, `_expr_and`,
    # `_expr_not`, `_expr_add`, `_expr_mul`, `_expr_unary`)

    def parse_gain(self):
        saved, self.in_gain = self.in_gain, True
        try:
            return self._gain_max()
        finally:
            self.in_gain = saved

    def _gain_and(self):
        g = self._gain_primary()
        t = self.accept("AND")
        if t is None:
            return g
        if not isinstance(g, GAtom):
            raise NonStandardAndContext(
                f"{t.line}:{t.col}: left operand of AND must be a single atom"
            )
        self.nest(t)
        g = GAnd(g.expr, self._gain_and(), pos=(t.line, t.col))
        self.depth -= 1
        return g

    def _quant_ahead(self, ahead):
        """After a MAX token, `i in` introduces a bounded quantifier."""
        return self.peek(ahead).kind == "name" and self.peek(ahead + 1).kind == "in"

    def _gain_primary(self):
        t = self.peek()
        if t.kind == "MAX" and self._quant_ahead(1):
            self.next()
            return self._gain_quant(t)
        if t.kind == "(":
            # may be a parenthesized gain or a parenthesized arithmetic
            # sub-expression; decide by what follows the closing paren
            mark, depth = self.i, self.depth
            self.next()
            self.nest(t, 2)
            g = self._gain_max()
            self.expect(")")
            self.depth = depth
            if isinstance(g, GAtom) and self.peek().kind in _ARITH_CONT:
                self.i = mark  # re-parse as an arithmetic atom
                return GAtom(self.parse_expr(), pos=(t.line, t.col))
            return g
        return GAtom(self.parse_expr(), pos=(t.line, t.col))

    def _gain_quant(self, t):
        var = self.expect("name", "quantifier variable").text
        self.expect("in")
        values = self.parse_range(t)
        self.expect(":")
        self.nest(t, 2)
        body = self._gain_max()
        self.depth -= 2
        return GQuantMax(var, values, body, pos=(t.line, t.col))

    def parse_range(self, t):
        if self.accept("{"):
            vals = [self.parse_signed_int()]
            while self.accept(","):
                vals.append(self.parse_signed_int())
            self.expect("}")
            values = tuple(sorted(set(vals)))
        else:
            lo = self.parse_signed_int()
            self.expect("..")
            hi = self.parse_signed_int()
            values = tuple(range(lo, hi + 1))
        if not values:
            raise RangeEmpty(f"{t.line}:{t.col}: quantifier range is empty")
        return values

    def parse_expr(self):
        self.nest(self.peek(), 3)
        e = self._expr_or()
        self.depth -= 3
        return e

    def _expr_cmp(self):
        e = self._expr_add()
        t = self.peek()
        if t.kind in _CMP_OPS:
            self.next()
            return Cmp(t.kind, e, self._expr_add(), pos=(t.line, t.col))
        if t.kind in ("in", "notin"):
            self.next()
            return self._membership(e, t)
        return e

    def _membership(self, item, t):
        arr = self.expect("name", "array name")
        lo = hi = None
        if self.accept("["):
            if not self.at(":"):
                lo = self.parse_expr()
            self.expect(":")
            if not self.at("]"):
                hi = self.parse_expr()
            self.expect("]")
        return Mem(item, arr.text, lo, hi, t.kind == "notin", pos=(t.line, t.col))

    def _expr_primary(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            if self.in_gain and self.at("/"):
                self.next()
                d = self.expect("int", "denominator")
                if int(d.text) == 0:
                    raise ParseError("zero denominator", d.line, d.col)
                return RatLit(Fraction(int(t.text), int(d.text)), pos=(t.line, t.col))
            return IntLit(int(t.text), pos=(t.line, t.col))
        if t.kind in ("true", "false"):
            self.next()
            return BoolLit(t.kind == "true", pos=(t.line, t.col))
        if t.kind in ("max", "min"):
            self.next()
            self.expect("(")
            args = [self.parse_expr()]
            while self.accept(","):
                args.append(self.parse_expr())
            self.expect(")")
            cls = MaxF if t.kind == "max" else MinF
            return cls(tuple(args), pos=(t.line, t.col))
        if t.kind == "name":
            self.next()
            if self.accept("["):
                index = self.parse_expr()
                self.expect("]")
                return Idx(t.text, index, pos=(t.line, t.col))
            return Var(t.text, pos=(t.line, t.col))
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "[":
            self.next()
            e = self.parse_expr()
            self.expect("]")
            return Iverson(e, pos=(t.line, t.col))
        self.fail(f"expected an expression, found {t.text or 'end of input'!r}")


def _left_level(node, tokens, operand):
    """`operand`s joined by tokens, left-associatively; a node with an `op`
    field records its token there.  Each token opens one nesting level."""
    makers = {t: partial(node, t) if "op" in node._fields else node for t in tokens}

    def level(self):
        depth = self.depth
        e = operand(self)
        while True:
            t = self.peek()
            make = makers.get(t.kind)
            if make is None:
                self.depth = depth
                return e
            self.next()
            self.nest(t)
            e = make(e, operand(self), pos=(t.line, t.col))

    return level


def _prefix_level(node, tokens, operand):
    """An `operand` under a run of tokens, each opening one nesting level."""

    def level(self):
        opened = []
        while self.peek().kind in tokens:
            opened.append(self.next())
            self.nest(opened[-1])
        e = operand(self)
        for t in reversed(opened):
            e = node(e, pos=(t.line, t.col))
        self.depth -= len(opened)
        return e

    return level


def _build_levels(stem, levels, primary):
    """Give `Parser` the method `{stem}_{name}` of each "left" and "prefix"
    level of a precedence table; each level reads its operands with the next
    level's method, the last with `primary`."""
    operand = getattr(Parser, primary)
    for name, assoc, node, tokens in reversed(levels):
        method = f"{stem}_{name}"
        if node is not None:
            build = _left_level if assoc == "left" else _prefix_level
            setattr(Parser, method, build(node, tokens, operand))
        operand = getattr(Parser, method)


_build_levels("_gain", _GAIN_LEVELS, "_gain_primary")
_build_levels("_expr", _EXPR_LEVELS, "_expr_primary")


def parse_program(src):
    """Parse complete program source (declarations, body, optional @post)."""
    return Parser(src).parse_program()


def parse_gain(src):
    """Parse a standalone gain expression (as given to --gain)."""
    p = Parser(src)
    g = p.parse_gain()
    p.expect("eof", "end of gain expression")
    return g


def parse_expr(src):
    """Parse a standalone expression (handy in tests)."""
    p = Parser(src)
    e = p.parse_expr()
    p.expect("eof", "end of expression")
    return e


# --- typechecker -------------------------------------------------------------------

BOOL, INT, RAT = "bool", "int", "rat"


def decl_map(decls):
    env = {}
    for d in decls:
        if d.name in env:
            raise TypeCheckError(f"variable {d.name!r} declared twice")
        env[d.name] = d
    return env


class Checker:
    """Type checks a program (or a gain expression against declarations)."""

    def __init__(self, decls):
        self.decls = decl_map(decls)
        for d in decls:
            if d.visible and isinstance(d.domain, ArrayDomain):
                raise TypeCheckError(f"visible variable {d.name!r} must be scalar")

    def check_program(self, program):
        self.check_stmt(program.body)
        if program.post is not None:
            self.check_gain(program.post, {})
        return program

    # statements

    def check_stmt(self, s):
        if isinstance(s, SSkip):
            return
        if isinstance(s, SSeq):
            for st in s.stmts:
                self.check_stmt(st)
            return
        if isinstance(s, SPrint):
            t = self.expr_type(s.expr, {})
            if t == RAT:
                raise TypeCheckError("print argument must be a program value")
            return
        if isinstance(s, SIf):
            self.require(s.guard, BOOL, {})
            self.check_stmt(s.then)
            self.check_stmt(s.els)
            return
        if isinstance(s, SWhile):
            self.require(s.guard, BOOL, {})
            self.check_stmt(s.body)
            if s.invariant is not None:
                self.check_gain(s.invariant, {})
            return
        if isinstance(s, SAssign):
            d = self.decls.get(s.name)
            if d is None:
                raise TypeCheckError(f"assignment to undeclared variable {s.name!r}")
            dom = d.domain
            if s.index is not None:
                if not isinstance(dom, ArrayDomain):
                    raise TypeCheckError(f"{s.name!r} is not an array")
                self.require(s.index, INT, {})
                dom = dom.element
            elif isinstance(dom, ArrayDomain):
                raise TypeCheckError(f"array {s.name!r} must be assigned element-wise")
            want = BOOL if isinstance(dom, BoolDomain) else INT
            self.require(s.value, want, {})
            return
        raise TypeCheckError(f"unknown statement {s!r}")

    # gain expressions

    def check_gain(self, g, qvars):
        if isinstance(g, GAtom):
            self.check_atom(g.expr, qvars)
            return
        if isinstance(g, (GMax, GPlus)):
            self.check_gain(g.left, qvars)
            self.check_gain(g.right, qvars)
            return
        if isinstance(g, GAnd):
            self.check_atom(g.scalar, qvars)
            self.check_gain(g.body, qvars)
            return
        if isinstance(g, GQuantMax):
            if g.var in self.decls:
                raise TypeCheckError(
                    f"quantifier index {g.var!r} shadows a declared variable"
                )
            if g.var in qvars:
                raise TypeCheckError(f"quantifier index {g.var!r} shadows an outer index")
            self.check_gain(g.body, dict(qvars, **{g.var: INT}))
            return
        raise TypeCheckError(f"unknown gain expression {g!r}")

    def check_atom(self, e, qvars):
        t = self.expr_type(e, qvars)
        if t == BOOL:
            raise TypeCheckError(
                "gain atom must be numeric; wrap the condition in [ ]: "
                + _source(e)
            )
        if not self.is_nonneg(e, qvars):
            raise TypeCheckError(
                f"gain atom is not evidently non-negative: {_source(e)}"
            )

    def is_nonneg(self, e, qvars):
        """Syntactic non-negativity discipline for user-written atoms."""
        if isinstance(e, IntLit):
            return e.value >= 0
        if isinstance(e, RatLit):
            return e.value >= 0
        if isinstance(e, Iverson):
            return True
        if isinstance(e, Var):
            if e.name in qvars:
                return False  # raw index values carry no sign guarantee
            dom = self.decls[e.name].domain
            return isinstance(dom, IntRange) and dom.lo >= 0
        if isinstance(e, Idx):
            dom = self.decls[e.name].domain.element
            return isinstance(dom, IntRange) and dom.lo >= 0
        if isinstance(e, Bin):
            if e.op in ("+", "*", "div", "mod", "&"):
                return self.is_nonneg(e.left, qvars) and self.is_nonneg(e.right, qvars)
            return False  # subtraction
        if isinstance(e, MaxF):
            return any(self.is_nonneg(a, qvars) for a in e.args)
        if isinstance(e, MinF):
            return all(self.is_nonneg(a, qvars) for a in e.args)
        return False

    # expressions

    def require(self, e, want, qvars):
        t = self.expr_type(e, qvars)
        if t != want and not (want == RAT and t == INT):
            raise TypeCheckError(f"expected {want}, got {t}: {_source(e)}")

    def expr_type(self, e, qvars):
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, RatLit):
            return RAT
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, Var):
            if e.name in qvars:
                return qvars[e.name]
            d = self.decls.get(e.name)
            if d is None:
                raise TypeCheckError(f"undeclared variable {e.name!r}")
            if isinstance(d.domain, ArrayDomain):
                raise TypeCheckError(f"array {e.name!r} used as a scalar")
            return BOOL if isinstance(d.domain, BoolDomain) else INT
        if isinstance(e, Idx):
            d = self.decls.get(e.name)
            if d is None:
                raise TypeCheckError(f"undeclared variable {e.name!r}")
            if not isinstance(d.domain, ArrayDomain):
                raise TypeCheckError(f"{e.name!r} is not an array")
            self.require(e.index, INT, qvars)
            if isinstance(e.index, IntLit) and not (0 <= e.index.value < d.domain.length):
                raise TypeCheckError(
                    f"index {e.index.value} out of bounds for {e.name!r}"
                )
            return BOOL if isinstance(d.domain.element, BoolDomain) else INT
        if isinstance(e, Neg):
            t = self.expr_type(e.arg, qvars)
            if t == BOOL:
                raise TypeCheckError(f"negation of a boolean: {_source(e)}")
            return t
        if isinstance(e, Bin):
            lt = self.expr_type(e.left, qvars)
            rt = self.expr_type(e.right, qvars)
            if BOOL in (lt, rt):
                raise TypeCheckError(f"arithmetic on booleans: {_source(e)}")
            if e.op in ("div", "mod", "&") and RAT in (lt, rt):
                raise TypeCheckError(f"{e.op} needs integer operands: {_source(e)}")
            return RAT if RAT in (lt, rt) else INT
        if isinstance(e, (MaxF, MinF)):
            ts = [self.expr_type(a, qvars) for a in e.args]
            if BOOL in ts:
                raise TypeCheckError(f"max/min over booleans: {_source(e)}")
            return RAT if RAT in ts else INT
        if isinstance(e, Cmp):
            lt = self.expr_type(e.left, qvars)
            rt = self.expr_type(e.right, qvars)
            if (lt == BOOL) != (rt == BOOL):
                raise TypeCheckError(
                    f"comparison mixes bool and number: {_source(e)}"
                )
            if lt == BOOL and e.op not in ("=", "!="):
                raise TypeCheckError(f"ordering on booleans: {_source(e)}")
            return BOOL
        if isinstance(e, BoolOp):
            self.require(e.left, BOOL, qvars)
            self.require(e.right, BOOL, qvars)
            return BOOL
        if isinstance(e, Not):
            self.require(e.arg, BOOL, qvars)
            return BOOL
        if isinstance(e, Iverson):
            self.require(e.arg, BOOL, qvars)
            return INT
        if isinstance(e, Mem):
            d = self.decls.get(e.array)
            if d is None or not isinstance(d.domain, ArrayDomain):
                raise TypeCheckError(f"{e.array!r} is not a declared array")
            it = self.expr_type(e.item, qvars)
            et = BOOL if isinstance(d.domain.element, BoolDomain) else INT
            if (it == BOOL) != (et == BOOL):
                raise TypeCheckError(f"membership type mismatch: {_source(e)}")
            for bound in (e.lo, e.hi):
                if bound is not None:
                    self.require(bound, INT, qvars)
            return BOOL
        raise TypeCheckError(f"unknown expression {e!r}")


def _source(e):
    # an expression as an error message shows it
    line = f" at line {e.pos[0]}" if e.pos else ""
    return expr_to_source(e) + line


def check_program(program):
    return Checker(program.decls).check_program(program)


def check_gain(gain, decls):
    Checker(decls).check_gain(gain, {})
    return gain


# --- evaluation ---------------------------------------------------------------------

# The meaning of every binary operator, shared by the evaluators and by the
# canonicalizer's constant folding.  Integer div/mod follow floor division.
OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "&": operator.and_,
    "div": operator.floordiv, "mod": operator.mod,
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def apply_op(op, a, b):
    """`a op b` for a Bin or Cmp operator; div/mod by 0 raise DivisionByZero."""
    if b == 0 and op in ("div", "mod"):
        raise DivisionByZero(f"{op} by zero")
    return OPS[op](a, b)


# Reads that fail.  Strict evaluation raises them; the gain evaluator's total
# semantics (`gain.GainEvaluator`) turns a failing test into false and a
# failing numeric read into an unevaluable atom.
EVAL_ERRORS = (IndexOutOfBounds, DivisionByZero)


def compile_expr(e, names):
    """e as a closure `f(values)` over a state's values tuple, laid out as
    `names`.  The closure evaluates strictly: a failing read raises one of
    EVAL_ERRORS.  e is closed: every variable it reads is one of names, so
    a quantifier index must be substituted first (see `instances`).

    The closure is built once per names and kept on the node, so it lives
    exactly as long as the expression does.
    """
    code = e.__dict__.get("_code")
    if code is None:
        code = e.__dict__["_code"] = {}
    fn = code.get(names)
    if fn is None:
        fn = code[names] = _compile(e, names)
    return fn


def _compile(e, names):
    if isinstance(e, (IntLit, RatLit, BoolLit)):
        value = e.value
        return lambda v: value
    if isinstance(e, Var):
        k = names.index(e.name)
        return lambda v: v[k]
    if isinstance(e, Idx):
        name, k = e.name, names.index(e.name)
        index = compile_expr(e.index, names)

        def idx(v):
            arr = v[k]
            i = index(v)
            if 0 <= i < len(arr):
                return arr[i]
            raise IndexOutOfBounds(f"{name}[{i}] with length {len(arr)}")

        return idx
    if isinstance(e, Neg):
        arg = compile_expr(e.arg, names)
        return lambda v: -arg(v)
    if isinstance(e, (Bin, Cmp)):
        op, fn = e.op, OPS[e.op]
        left = compile_expr(e.left, names)
        right = compile_expr(e.right, names)
        if op in ("div", "mod"):
            return lambda v: apply_op(op, left(v), right(v))
        return lambda v: fn(left(v), right(v))
    if isinstance(e, (MaxF, MinF)):
        pick = max if isinstance(e, MaxF) else min
        args = tuple(compile_expr(a, names) for a in e.args)
        return lambda v: pick([a(v) for a in args])
    if isinstance(e, BoolOp):
        left = compile_expr(e.left, names)
        right = compile_expr(e.right, names)
        if e.op == "and":
            return lambda v: right(v) if left(v) else False
        return lambda v: True if left(v) else right(v)
    if isinstance(e, Not):
        arg = compile_expr(e.arg, names)
        return lambda v: not arg(v)
    if isinstance(e, Iverson):
        arg = compile_expr(e.arg, names)
        return lambda v: 1 if arg(v) else 0
    if isinstance(e, Mem):
        name, k, negated = e.array, names.index(e.array), e.negated
        item = compile_expr(e.item, names)
        lo = None if e.lo is None else compile_expr(e.lo, names)
        hi = None if e.hi is None else compile_expr(e.hi, names)

        def mem(v):
            arr = v[k]
            x = item(v)
            a = 0 if lo is None else lo(v)
            b = len(arr) if hi is None else hi(v)
            if not (0 <= a <= len(arr) and 0 <= b <= len(arr)):
                raise IndexOutOfBounds(f"slice {name}[{a}:{b}] with length {len(arr)}")
            return (x not in arr[a:b]) if negated else (x in arr[a:b])

        return mem
    raise TypeCheckError(f"cannot evaluate {e!r}")


def eval_expr(e, state):
    """Evaluate an expression in a State.

    `and`/`or` are short-circuit, so guards like `n != N and A[n] != x` stay
    total at the array boundary.
    """
    return compile_expr(e, state.names)(state.values)


# --- substitution -----------------------------------------------------------------------


def map_expr(e, f):
    """e's node with f applied to each direct sub-expression, or e itself
    when f returns every one unchanged: a subtree a rewrite leaves alone
    stays the same object, with its cached hash, closures and rendering.
    Variables and literals have none and come back unchanged.
    """
    if isinstance(e, Idx):
        index = f(e.index)
        return e if index is e.index else Idx(e.name, index, pos=e.pos)
    if isinstance(e, (Bin, Cmp, BoolOp)):
        left, right = f(e.left), f(e.right)
        same = left is e.left and right is e.right
        return e if same else type(e)(e.op, left, right, pos=e.pos)
    if isinstance(e, (Neg, Not, Iverson)):
        arg = f(e.arg)
        return e if arg is e.arg else type(e)(arg, pos=e.pos)
    if isinstance(e, (MaxF, MinF)):
        args = tuple(map(f, e.args))
        return e if all(map(operator.is_, args, e.args)) else type(e)(args, pos=e.pos)
    if isinstance(e, Mem):
        item = f(e.item)
        lo = None if e.lo is None else f(e.lo)
        hi = None if e.hi is None else f(e.hi)
        same = item is e.item and lo is e.lo and hi is e.hi
        return e if same else Mem(item, e.array, lo, hi, e.negated, pos=e.pos)
    return e


def map_gain(g, f, memo):
    """g with f applied to every atom and every AND scalar.

    As in `map_expr`, a node whose parts all come back unchanged is returned
    itself.  `memo` maps the id of each node of g visited to its image, so a
    node g shares is mapped once and its image is shared in the result (g
    keeps its nodes, and so their ids, alive).
    """
    out = memo.get(id(g))
    if out is not None:
        return out
    if isinstance(g, GAtom):
        expr = f(g.expr)
        out = g if expr is g.expr else GAtom(expr, pos=g.pos)
    elif isinstance(g, (GMax, GPlus)):
        left, right = map_gain(g.left, f, memo), map_gain(g.right, f, memo)
        same = left is g.left and right is g.right
        out = g if same else type(g)(left, right, pos=g.pos)
    elif isinstance(g, GAnd):
        scalar, body = f(g.scalar), map_gain(g.body, f, memo)
        same = scalar is g.scalar and body is g.body
        out = g if same else GAnd(scalar, body, pos=g.pos)
    elif isinstance(g, GQuantMax):
        body = map_gain(g.body, f, memo)
        out = g if body is g.body else GQuantMax(g.var, g.values, body, pos=g.pos)
    else:
        raise TypeCheckError(f"unknown gain expression {g!r}")
    memo[id(g)] = out
    return out


class _Substitution:
    # x with repl for the variable name, each node of a call mapped once.  A
    # callable object, where a closure that called itself would hold its memo
    # in a reference cycle, which only the cyclic collector frees.
    __slots__ = ("name", "repl", "memo")

    def __init__(self, name, repl, memo):
        self.name, self.repl, self.memo = name, repl, memo

    def __call__(self, x):
        out = self.memo.get(id(x))
        if out is None:
            out = self.repl if isinstance(x, Var) and x.name == self.name else map_expr(x, self)
            self.memo[id(x)] = out
        return out


def subst_expr(e, name, repl):
    """Substitution of an expression for a scalar variable.

    Sharing is kept: a subtree not mentioning the variable comes back as the
    same object, and a node e shares is mapped once, its image shared.
    Capture cannot happen: program expressions never mention a quantifier
    index, and the typechecker rejects an index that shadows a variable or
    an outer index.
    """
    return _Substitution(name, repl, {})(e)


def subst_gain(g, name, repl):
    """`subst_expr` on every atom and AND scalar of g, with one identity memo
    for the whole call, so sharing within and across atoms is kept."""
    memo = {}
    return map_gain(g, _Substitution(name, repl, memo), memo)


def instances(g):
    """The closed gains the quantifier g picks from: its body with each of
    its values substituted for its index, in order.  They are built once and
    kept on g, as `compile_expr` keeps closures, so every reader of g reads
    the same instance nodes."""
    got = g.__dict__.get("_instances")
    if got is None:
        got = g.__dict__["_instances"] = tuple(
            subst_gain(g.body, g.var, IntLit(v)) for v in g.values
        )
    return got


def _updated_element(k, idx, val, base, elem_is_bool):
    """The value of A[k] after `A[idx] := val`, as an expression.

    For integer elements this is the arithmetic blend
    `[k = idx]*val + [k != idx]*A[k]`; boolean elements use the logical form.
    """
    same = Cmp("=", k, idx)
    if elem_is_bool:
        return BoolOp(
            "or",
            BoolOp("and", same, val),
            BoolOp("and", Not(same), base),
        )
    return Bin(
        "+",
        Bin("*", Iverson(same), val),
        Bin("*", Iverson(Not(same)), base),
    )


def subst_array_elem_gain(g, arr, idx, val, length, elem_is_bool):
    """Substitute for the assignment `arr[idx] := val` inside a gain.

    Reads of arr[k] become a blend over whether k hits the written slot, and
    membership tests over arr expand positionally (k ranges over the array,
    guarded by the slice bounds, and by a definedness test so that it fails
    where the original test fails).  idx and val are pre-state expressions
    and are not rewritten; index expressions inside g are rewritten first,
    since they are post-state reads.  Sharing is kept as by `subst_gain`.
    """
    memo = {}
    return map_gain(g, _ElemSubstitution(arr, idx, val, length, elem_is_bool, memo), memo)


class _ElemSubstitution:
    # one call of `subst_array_elem_gain`, a callable object as `_Substitution` is
    __slots__ = ("arr", "idx", "val", "length", "elem_is_bool", "memo")

    def __init__(self, arr, idx, val, length, elem_is_bool, memo):
        self.arr, self.idx, self.val = arr, idx, val
        self.length, self.elem_is_bool, self.memo = length, elem_is_bool, memo

    def __call__(self, x):
        out = self.memo.get(id(x))
        if out is not None:
            return out
        arr, idx, val = self.arr, self.idx, self.val
        if isinstance(x, Idx) and x.name == arr:
            k = self(x.index)
            out = _updated_element(k, idx, val, Idx(arr, k), self.elem_is_bool)
        elif isinstance(x, Mem) and x.array == arr:
            item = self(x.item)
            lo = None if x.lo is None else self(x.lo)
            hi = None if x.hi is None else self(x.hi)
            disjuncts = []
            for k in range(self.length):
                kl = IntLit(k)
                same = Cmp("=", kl, idx)
                hit = BoolOp(
                    "or",
                    BoolOp("and", same, Cmp("=", item, val)),
                    BoolOp("and", Not(same), Cmp("=", item, Idx(arr, kl))),
                )
                guards = []
                if lo is not None:
                    guards.append(Cmp("<=", lo, kl))
                if hi is not None:
                    guards.append(Cmp("<", kl, hi))
                d = hit
                for gd in reversed(guards):
                    d = BoolOp("and", gd, d)
                disjuncts.append(d)
            out = disjuncts[0]
            for d in disjuncts[1:]:
                out = BoolOp("or", out, d)
            if x.negated:
                out = Not(out)
            # The same test read before the write fails exactly where x does
            # (same item and bounds, same length).  `pre or not pre` holds
            # exactly where it is defined and its negation never holds, so the
            # guarded expansion, like the atomic x, is false under either
            # polarity wherever x fails.
            pre = Mem(item, arr, lo, hi, x.negated)
            defined = BoolOp("or", pre, Not(pre))
            out = BoolOp("and", defined, BoolOp("or", Not(defined), out))
        else:
            out = map_expr(x, self)
        self.memo[id(x)] = out
        return out


# --- desugaring -----------------------------------------------------------------------


def desugar_visible(program):
    """Insert `print v` after every assignment to a visible variable.

    Returns a new Program, marked as desugared; a marked program comes back
    unchanged, so applying it twice is applying it once.
    """
    if program.desugared:
        return program
    visible = {d.name for d in program.decls if d.visible}
    body = _desugar(program.body, visible)
    return Program(program.decls, body, program.post, pos=program.pos, desugared=True)


def _desugar(s, visible):
    if isinstance(s, SAssign) and s.name in visible:
        return SSeq((s, SPrint(Var(s.name, pos=s.pos), pos=s.pos)), pos=s.pos)
    if isinstance(s, SSeq):
        return SSeq(tuple(_desugar(st, visible) for st in s.stmts), pos=s.pos)
    if isinstance(s, SIf):
        return SIf(s.guard, _desugar(s.then, visible), _desugar(s.els, visible), pos=s.pos)
    if isinstance(s, SWhile):
        return SWhile(s.guard, _desugar(s.body, visible), s.invariant, pos=s.pos)
    return s


# --- printer --------------------------------------------------------------------------
# Levels are the parser's: `_PREC` and `_GAIN_PREC`.

_SELF_DELIMITED = float("inf")  # the level of a node no context parenthesizes
_ATOM = _PREC["+"]  # atoms are numeric: one whose level is boolean is parenthesized


def expr_to_source(e, prec=0):
    """e as source text in a context of precedence prec: parenthesized when
    e's own level binds looser.  The text and e's own level are built once
    per node and kept on it, as `compile_expr` keeps closures, so a shared
    subtree is rendered once however many trees contain it."""
    src = e.__dict__.get("_src")
    if src is None:
        if isinstance(e, IntLit):
            src = (_SELF_DELIMITED, str(e.value))
        elif isinstance(e, RatLit):
            src = (_SELF_DELIMITED, f"{e.value.numerator}/{e.value.denominator}")
        elif isinstance(e, BoolLit):
            src = (_SELF_DELIMITED, "true" if e.value else "false")
        elif isinstance(e, Var):
            src = (_SELF_DELIMITED, e.name)
        elif isinstance(e, Idx):
            src = (_SELF_DELIMITED, f"{e.name}[{expr_to_source(e.index)}]")
        elif isinstance(e, (Neg, Not)):
            p, op = (_PREC["unary"], "-") if isinstance(e, Neg) else (_PREC["not"], "not ")
            src = (p, f"{op}{expr_to_source(e.arg, p + 1)}")
        elif isinstance(e, (Bin, BoolOp, Cmp)):
            p = _PREC[e.op]
            # a left operand may share a level that associates, not a comparison's
            left = expr_to_source(e.left, p + 1 if isinstance(e, Cmp) else p)
            src = (p, f"{left} {e.op} {expr_to_source(e.right, p + 1)}")
        elif isinstance(e, (MaxF, MinF)):
            args = ", ".join(map(expr_to_source, e.args))
            src = (_SELF_DELIMITED, f"{'max' if isinstance(e, MaxF) else 'min'}({args})")
        elif isinstance(e, Iverson):
            src = (_SELF_DELIMITED, f"[{expr_to_source(e.arg)}]")
        elif isinstance(e, Mem):
            op = "notin" if e.negated else "in"
            lo = "" if e.lo is None else expr_to_source(e.lo)
            hi = "" if e.hi is None else expr_to_source(e.hi)
            arr = e.array if not lo and not hi else f"{e.array}[{lo}:{hi}]"
            p = _PREC[op]
            src = (p, f"{expr_to_source(e.item, p + 1)} {op} {arr}")
        else:
            raise TypeCheckError(f"cannot print {e!r}")
        e.__dict__["_src"] = src
    level, text = src
    return f"({text})" if level < prec else text


def gain_to_source(g, prec=0):
    """g as source text in a context of gain precedence prec."""

    def wrap(level, s):
        return f"({s})" if level < prec else s

    if isinstance(g, GAtom):
        return expr_to_source(g.expr, _ATOM)
    if isinstance(g, (GMax, GPlus)):
        op = "MAX" if isinstance(g, GMax) else "PLUS"
        p = _GAIN_PREC[op]
        return wrap(p, f"{gain_to_source(g.left, p)} {op} {gain_to_source(g.right, p + 1)}")
    if isinstance(g, GAnd):
        p = _GAIN_PREC["AND"]
        return wrap(p, f"{expr_to_source(g.scalar, _ATOM)} AND {gain_to_source(g.body, p)}")
    if isinstance(g, GQuantMax):
        vals = g.values
        if vals == tuple(range(vals[0], vals[-1] + 1)):
            rng = f"{vals[0]}..{vals[-1]}"
        else:
            rng = "{" + ", ".join(str(v) for v in vals) + "}"
        body = gain_to_source(g.body, _GAIN_PREC["MAX"])
        # the body extends maximally, so any operator's context parenthesizes it
        return wrap(0, f"MAX {g.var} in {rng}: {body}")
    raise TypeCheckError(f"cannot print {g!r}")


def stmt_to_source(s, indent=0):
    pad = "  " * indent
    if isinstance(s, SSkip):
        return pad + "skip"
    if isinstance(s, SPrint):
        return pad + "print " + expr_to_source(s.expr)
    if isinstance(s, SAssign):
        tgt = s.name if s.index is None else f"{s.name}[{expr_to_source(s.index)}]"
        return pad + f"{tgt} := {expr_to_source(s.value)}"
    if isinstance(s, SSeq):
        return ";\n".join(stmt_to_source(st, indent) for st in s.stmts)
    if isinstance(s, SIf):
        out = pad + "if " + expr_to_source(s.guard) + " then\n"
        out += stmt_to_source(s.then, indent + 1) + "\n"
        if not isinstance(s.els, SSkip):
            out += pad + "else\n" + stmt_to_source(s.els, indent + 1) + "\n"
        return out + pad + "fi"
    if isinstance(s, SWhile):
        out = pad + "while " + expr_to_source(s.guard)
        if s.invariant is not None:
            out += " invariant { " + gain_to_source(s.invariant) + " }"
        return out + " do\n" + stmt_to_source(s.body, indent + 1) + "\n" + pad + "od"
    raise TypeCheckError(f"cannot print {s!r}")


def program_to_source(program):
    lines = [
        f"{'visible' if d.visible else 'hidden'} {d.name} : {d.domain!r}"
        for d in program.decls
    ]
    body = stmt_to_source(program.body)
    if body != "skip" or program.post is None:
        lines.append(body)
    if program.post is not None:
        lines.append("@post { " + gain_to_source(program.post) + " }")
    return "\n".join(lines) + "\n"
