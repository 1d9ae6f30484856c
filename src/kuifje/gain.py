"""Gain expressions: evaluation, canonical normal form, and comparison.

A gain expression describes an adversary's scoring function.  Its value
against a distribution d is defined recursively:

  atom e          expected value of e under d (atoms are non-negative)
  G1 MAX G2       max of the two values (the adversary picks the better side)
  G1 PLUS G2      sum of the two values (independent choices on each side)
  f AND G         G's value with every atom scaled pointwise by the atom f
  MAX i in R: G   max over the finitely many instantiations of i

Because atoms are non-negative, scaling distributes over MAX pointwise, and
because PLUS choices are independent, this recursive valuation agrees exactly
with first flattening to the normal form "MAX over atoms" and then taking the
best expected atom.  We therefore never need to expand the (exponentially
large) normal form just to evaluate.  One class, `GainEvaluator`, computes
that value: it reads a distribution as integer weights over indexed states
with one common divisor, and divides once at the top.  Each atom is
compiled once (`lang.compile_expr`) and its values are kept in a column,
one slot per state, filled in as distributions need them; the columns die
with the evaluator.  `eval_gain`/`eval_gain_hyper` are one-shot wrappers,
and `semantic_le`/`semantic_eq` run their trial distributions through one.

Atoms use a *total* semantics: inside an atom, an atomic boolean test that
fails (out-of-bounds index, division by zero) is false under either polarity,
and an atom whose numeric part cannot be evaluated on some state contributes
0 there.  Multiplication short-circuits on a zero left factor, so a guard
Iverson really does shield the expression it multiplies.

The canonicalizer rewrites every atom into a sum of terms coeff*[pred]*factors
with predicates in minimized disjunctive normal form, merges complementary
and disjoint guarded terms, and renders deterministically; `simplify` prunes
atoms that are pointwise dominated on the declared state space.  It reads
that space's states once, when it first needs them, decides predicates on
bitmasks over it, one per literal, and values atoms from integer factor
columns under those masks; like the evaluator's, its columns die with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .core import Dist, all_states
from .errors import DivisionByZero, NegativeAtom, TypeCheckError
from .lang import (
    EVAL_ERRORS,
    NEGATED_TEST,
    NUMERIC,
    TEST,
    Bin,
    BoolLit,
    BoolOp,
    Cmp,
    GAnd,
    GAtom,
    GMax,
    GPlus,
    GQuantMax,
    IntLit,
    Idx,
    Iverson,
    MaxF,
    Mem,
    MinF,
    Neg,
    Not,
    RatLit,
    Var,
    apply_op,
    compile_expr,
    expr_to_source,
    subst_gain,
)

ZERO = Fraction(0)
ONE = Fraction(1)

# DNF encoding: a predicate is a frozenset of conjunctions; a conjunction is a
# frozenset of literals; a literal is (negated, atom-Expr).  TRUE is the DNF
# with one empty conjunction, FALSE the empty DNF.
TRUE_DNF = frozenset({frozenset()})
FALSE_DNF = frozenset()


# --- total evaluation inside atoms ---------------------------------------------------


def eval_bool_total(e, state, env=None):
    """Boolean evaluation where an atomic test that fails is false.

    `not` is pushed down to the atomic tests (De Morgan through `and`/`or`),
    so a failing test is false under either polarity: on a state where n is
    past the end of A, `A[n] = x`, `A[n] != x` and `not (A[n] = x)` are all
    false.
    """
    return compile_expr(e, state.names, TEST)(state.values, env)


def _exact(x):
    # an atom's value as an int where integral, else as a Fraction
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def eval_atom_total(e, state, env=None):
    """Value of a gain atom on a state; unevaluable states contribute 0."""
    try:
        return Fraction(compile_expr(e, state.names, NUMERIC)(state.values, env))
    except EVAL_ERRORS:
        return ZERO


# --- gain evaluation -------------------------------------------------------------------


class _Column:
    """One atom's values under one set of quantifier bindings, one slot per
    state, filled in on first use."""

    __slots__ = ("fn", "values", "missing", "negative")

    def __init__(self, fn, n):
        self.fn = fn
        self.values = [None] * n
        self.missing = n
        self.negative = False


class GainEvaluator:
    """Values gain expressions on distributions over one fixed list of states.

    A distribution is read as (state index, integer weight) pairs plus one
    common divisor.  Every combinator commutes with dividing all weights by a
    positive constant, so the recursion runs on the weights and divides
    exactly once at the top.  `f AND G` multiplies each entry's weight by f
    and drops the entries where that is 0, so an atom is never evaluated
    where a zero guard shields it and a negative value there is never
    reported.  Each atom is compiled once, and its values are kept in a
    column per quantifier bindings, stored as ints where integral and filled
    in on first use: a caller valuing many distributions over the same states
    evaluates each atom on each state once.  The columns die with the
    evaluator.
    """

    def __init__(self, states):
        self.states = list(states)
        self._index = {s: i for i, s in enumerate(self.states)}
        self._names = self.states[0].names if self.states else ()
        self._rows = [s.values for s in self.states]
        self._columns = {}

    def value(self, g, dist, env=None):
        """g's exact value on dist, whose support lies in the states."""
        index = self._index
        support = [(index[s], w) for s, w in dist.weights]
        return self.weighted_value(g, support, dist.den, env)

    def hyper_value(self, g, hyper, env=None):
        """g's value on a hyper, whose inners' supports lie in the states:
        the average of its values on the inners."""
        total = sum((w * self.value(g, d, env) for d, w in hyper.weights), ZERO)
        return total / hyper.den

    def weighted_value(self, g, support, den=1, env=None):
        """g's value on the distribution giving states[i] probability w/den,
        for each (i, w) in support; every w is a positive integer."""
        return Fraction(self._eval(g, support, env or {}), den)

    def _eval(self, g, support, env):
        if isinstance(g, GAtom):
            values = self._column(g.expr, support, env)
            return sum([w * values[i] for i, w in support])
        if isinstance(g, GMax):
            return max(
                self._eval(g.left, support, env), self._eval(g.right, support, env)
            )
        if isinstance(g, GPlus):
            return self._eval(g.left, support, env) + self._eval(g.right, support, env)
        if isinstance(g, GAnd):
            values = self._column(g.scalar, support, env)
            scaled = [(i, w * values[i]) for i, w in support if values[i]]
            return self._eval(g.body, scaled, env)
        if isinstance(g, GQuantMax):
            return max(
                self._eval(g.body, support, dict(env, **{g.var: v})) for v in g.values
            )
        raise TypeCheckError(f"unknown gain expression {g!r}")

    def _column(self, expr, support, env):
        """expr's values on the states, filled in at least on the support;
        NegativeAtom if one of them is negative on a support entry."""
        key = (expr, tuple(sorted(env.items())) if env else ())
        col = self._columns.get(key)
        if col is None:
            fn = compile_expr(expr, self._names, NUMERIC)
            col = self._columns[key] = _Column(fn, len(self.states))
        values = col.values
        if col.missing:
            fn, rows = col.fn, self._rows
            for i, _ in support:
                if values[i] is None:
                    try:
                        v = _exact(fn(rows[i], env))
                    except EVAL_ERRORS:
                        v = 0
                    if v < 0:
                        col.negative = True
                    values[i] = v
                    col.missing -= 1
        if col.negative:
            for i, _ in support:
                v = values[i]
                if v < 0:
                    raise NegativeAtom(
                        f"atom {expr_to_source(expr)} is {v} on {self.states[i]!r}"
                    )
        return values


def eval_gain(g, dist, env=None):
    """The gain's exact value against a single distribution (one-shot)."""
    return GainEvaluator(dist.support()).value(g, dist, env)


def eval_gain_hyper(g, hyper, env=None):
    """The gain's value against a hyper: average of per-posterior values
    (one-shot)."""
    states = dict.fromkeys(s for d in hyper.inners() for s in d.support())
    return GainEvaluator(states).hyper_value(g, hyper, env)


# --- canonicalization ---------------------------------------------------------------

# A 0/1 column as bytes, and a bitmask over the same states: bit i is entry i.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _mask(column):
    return int(column.translate(_TO_DIGITS)[::-1], 2)


def _bits(mask, n):
    return format(mask, f"0{n}b")[::-1].encode().translate(_TO_BITS)


@dataclass(frozen=True)
class _Term:
    coeff: Fraction
    pred: frozenset | None  # DNF; None means true
    factors: tuple  # canonical numeric factor expressions, sorted by render


# boolean expressions that are tests, not values
_TESTS = (Cmp, BoolOp, Not, Mem)


def _const_lit(v):
    v = Fraction(v)
    return IntLit(int(v)) if v.denominator == 1 else RatLit(v)


def _is_const(e):
    return isinstance(e, (IntLit, RatLit))


def _const_val(e):
    return Fraction(e.value)


class Canon:
    """Canonicalizer and exact comparison engine bound to declarations.

    Predicates and atoms are decided on the declared state space, in
    `all_states` order: bit i of a mask, and slot i of a column, is the i-th
    state.  `states`, if given, returns that list (a WpEngine passes its
    executable's, so the space is listed once); it is called when the first
    predicate or atom is decided, so a Canon that decides none lists nothing.
    """

    def __init__(self, decls, states=None):
        self.domains = {d.name: d.domain for d in decls}
        self.names = tuple(self.domains)
        names, domains = self.names, list(self.domains.values())
        self._states = states or (lambda: all_states(names, domains))
        self._models = {}
        self._lit_model_cache = {}
        self._factor_columns = {}
        self._intern = {}
        self._render_memo = {}
        self._lit_renders = {}
        self._conj_renders = {}
        self._pred_renders = {}
        self._minimized = {}
        self._atom_cache = {}
        self._vectors = {}
        self._rebuilt = {}

    @cached_property
    def _values(self):
        return [s.values for s in self._states()]

    @cached_property
    def full(self):
        return (1 << len(self._values)) - 1

    # ---- literals and DNF

    def lit_models(self, lit):
        """Bitmask of the states where one literal holds; a failing test is
        false under either polarity."""
        mask = self._lit_model_cache.get(lit)
        if mask is None:
            neg, atom = lit
            fn = compile_expr(atom, self.names, NEGATED_TEST if neg else TEST)
            column = bytes([fn(row, None) for row in self._values])
            mask = self._lit_model_cache[lit] = _mask(column)
        return mask

    def models(self, dnf):
        """Bitmask of the states where the DNF holds."""
        out = self._models.get(dnf)
        if out is None:
            out = 0
            for conj in dnf:
                acc = self.full
                for lit in conj:
                    acc &= self.lit_models(lit)
                    if not acc:
                        break
                out |= acc
            self._models[dnf] = out
        return out

    def lit_expr(self, lit):
        neg, atom = lit
        if isinstance(atom, Cmp):
            if atom.op == "=":
                return Cmp("!=" if neg else "=", atom.left, atom.right)
            # inequality literals are never negated (negation flips them)
            if _is_const(atom.left) and not _is_const(atom.right):
                flipped = {"<": ">", "<=": ">="}[atom.op]
                return Cmp(flipped, atom.right, atom.left)
            return atom
        if isinstance(atom, Mem):
            return Mem(atom.item, atom.array, atom.lo, atom.hi, neg)
        return Not(atom) if neg else atom

    def lit_render(self, lit):
        out = self._lit_renders.get(lit)
        if out is None:
            out = self._lit_renders[lit] = expr_to_source(self.lit_expr(lit))
        return out

    def _conj_expr(self, conj):
        lits = sorted(conj, key=self.lit_render)
        out = self.lit_expr(lits[0])
        for lit in lits[1:]:
            out = BoolOp("and", out, self.lit_expr(lit))
        return out

    def _conj_render(self, conj):
        out = self._conj_renders.get(conj)
        if out is None:
            out = self._conj_renders[conj] = expr_to_source(self._conj_expr(conj))
        return out

    def pred_expr(self, dnf):
        if dnf == TRUE_DNF:
            return BoolLit(True)
        if dnf == FALSE_DNF:
            return BoolLit(False)
        conjs = sorted(dnf, key=self._conj_render)
        out = self._conj_expr(conjs[0])
        for c in conjs[1:]:
            out = BoolOp("or", out, self._conj_expr(c))
        return out

    def pred_render(self, dnf):
        out = self._pred_renders.get(dnf)
        if out is None:
            out = self._pred_renders[dnf] = expr_to_source(self.pred_expr(dnf))
        return out

    # ---- boolean canonicalization

    def to_dnf(self, e, neg=False):
        """Negation normal form pushed into minimized-ready DNF."""
        if isinstance(e, BoolLit):
            return FALSE_DNF if e.value == neg else TRUE_DNF
        if isinstance(e, Not):
            return self.to_dnf(e.arg, not neg)
        if isinstance(e, BoolOp):
            both = (self.to_dnf(e.left, neg), self.to_dnf(e.right, neg))
            conj = (e.op == "and") != neg  # De Morgan under negation
            if conj:
                return self._dnf_and(*both)
            return both[0] | both[1]
        if isinstance(e, Iverson):
            # [b] used as a boolean via = / != is handled in Cmp; a bare
            # Iverson is numeric and cannot reach here
            raise TypeCheckError(f"numeric expression in boolean position: {e!r}")
        if isinstance(e, Cmp):
            return self._cmp_dnf(e, neg)
        if isinstance(e, Mem):
            atom = Mem(
                self.canon_num(e.item),
                e.array,
                self._slice_bound(e.lo, 0),
                self._slice_bound(e.hi, self.domains[e.array].length),
                False,
            )
            return frozenset({frozenset({(e.negated != neg, atom)})})
        if isinstance(e, (Var, Idx)):
            atom = e if isinstance(e, Var) else Idx(e.name, self.canon_num(e.index))
            return frozenset({frozenset({(neg, atom)})})
        raise TypeCheckError(f"not a boolean expression: {e!r}")

    def _slice_bound(self, bound, default):
        if bound is None:
            return None
        b = self.canon_num(bound)
        if isinstance(b, IntLit) and b.value == default:
            return None
        return b

    @staticmethod
    def _dnf_and(d1, d2):
        out = set()
        for c1 in d1:
            for c2 in d2:
                conj = c1 | c2
                if any((not neg, atom) in conj for neg, atom in conj if neg):
                    continue  # syntactic contradiction
                out.add(conj)
        return frozenset(out)

    def _cmp_dnf(self, e, neg):
        op = e.op
        if op in ("=", "!=") and (
            isinstance(e.left, BoolLit) or isinstance(e.right, BoolLit)
        ):
            lit, other = (
                (e.left, e.right) if isinstance(e.left, BoolLit) else (e.right, e.left)
            )
            flip = (not lit.value) != (op == "!=")
            return self.to_dnf(other, neg != flip)
        if op in ("=", "!=") and (
            isinstance(e.left, _TESTS) or isinstance(e.right, _TESTS)
        ):
            # b = T with T a test is one literal, read as written: like the
            # comparison, it is false under either polarity wherever a read
            # in it fails.  `not` is not pushed into T, since for a compound
            # T that would not be so: `not (A[n] = 0 and n < 2)` holds at n = 2.
            left, right = e.left, e.right
            if expr_to_source(right) < expr_to_source(left):
                left, right = right, left
            return frozenset({frozenset({(neg != (op == "!="), Cmp("=", left, right))})})
        left = self.canon_num(e.left)
        right = self.canon_num(e.right)
        if op in (">", ">="):
            left, right = right, left
            op = {">": "<", ">=": "<="}[op]
        if op == "!=":
            op, neg = "=", not neg
        if self._numeric_sides(left, right):
            left, right = self._shift_consts(left, right, op)
        if _is_const(left) and _is_const(right):
            value = apply_op(op, _const_val(left), _const_val(right))
            return FALSE_DNF if value == neg else TRUE_DNF
        if op == "=":
            if _is_const(left) or (
                not _is_const(right)
                and expr_to_source(right) < expr_to_source(left)
            ):
                left, right = right, left
            return frozenset({frozenset({(neg, Cmp("=", left, right))})})
        if neg:  # not (a < b) is b <= a; not (a <= b) is b < a
            left, right = right, left
            op = "<=" if op == "<" else "<"
        return frozenset({frozenset({(False, Cmp(op, left, right))})})

    @staticmethod
    def _numeric_sides(left, right):
        # boolean equality (a = b on bools) must not be const-shifted
        for side in (left, right):
            if isinstance(side, (BoolLit, BoolOp, Not, Cmp, Mem)):
                return False
        return True

    def _shift_consts(self, left, right, op):
        """Move additive constants to the right: n + 1 = 3 becomes n = 2."""

        def decompose(x):
            if _is_const(x):
                return [], _const_val(x)
            if isinstance(x, Bin) and x.op in ("+", "-"):
                lt, lc = decompose(x.left)
                rt, rc = decompose(x.right)
                if x.op == "+":
                    return lt + rt, lc + rc
                return lt + [(t, -s) for t, s in rt], lc - rc
            if isinstance(x, Neg):
                t, c = decompose(x.arg)
                return [(e, -s) for e, s in t], -c
            return [(x, 1)], ZERO

        lt, lc = decompose(left)
        rt, rc = decompose(right)
        terms = lt + [(t, -s) for t, s in rt]
        # cancel equal terms of opposite sign
        reduced = []
        for t, s in terms:
            key = expr_to_source(t)
            for i, (_, s2, key2) in enumerate(reduced):
                if key == key2 and s2 == -s:
                    del reduced[i]
                    break
            else:
                reduced.append((t, s, key))
        const = rc - lc
        if not reduced:
            return _const_lit(ZERO), _const_lit(const)
        if all(s < 0 for _, s, _ in reduced):
            if op != "=":
                return left, right  # sign flip would reverse the inequality
            reduced = [(t, -s, k) for t, s, k in reduced]
            const = -const
        elif any(s < 0 for _, s, _ in reduced):
            return left, right  # mixed signs: leave the sides alone
        reduced.sort(key=lambda tsk: tsk[2])
        out = None
        for t, s, _ in reduced:
            out = t if out is None else Bin("+", out, t)
        return out, _const_lit(const)

    # ---- DNF minimization

    def minimize(self, dnf):
        if dnf in self._minimized:
            return self._minimized[dnf]
        out = self._minimize(dnf)
        self._minimized[dnf] = out
        self._minimized[out] = out
        return out

    def _conj_key(self, conj):
        return tuple(sorted(self.lit_render(lit) for lit in conj))

    def _minimize(self, dnf):
        if dnf in (TRUE_DNF, FALSE_DNF):
            return dnf
        target = self.models(dnf)
        if not target:
            return FALSE_DNF
        if target == self.full:
            return TRUE_DNF

        conjs = sorted(set(dnf), key=self._conj_key)
        conjs = [c for c in conjs if self.models(frozenset({c}))]
        # absorption: a superset conjunction is redundant next to its subset
        kept = []
        for c in conjs:
            if any(other < c for other in conjs if other != c):
                continue
            kept.append(c)
        conjs = kept

        changed = True
        while changed:
            changed = False
            # greedy literal deletion, in deterministic order
            for i, conj in enumerate(list(conjs)):
                for lit in sorted(conj, key=self.lit_render):
                    slim = conj - {lit}
                    cand = frozenset(conjs[:i] + [slim] + conjs[i + 1 :])
                    if self.models(cand) == target:
                        conjs[i] = slim
                        conj = slim
                        changed = True
            # greedy disjunct deletion
            for i in range(len(conjs) - 1, -1, -1):
                cand = frozenset(conjs[:i] + conjs[i + 1 :])
                if cand and self.models(cand) == target:
                    del conjs[i]
                    changed = True
        result = frozenset(conjs)
        if result == frozenset({frozenset()}):
            return TRUE_DNF
        return result

    def preds_disjoint(self, d1, d2):
        return not (self.models(d1) & self.models(d2))

    # ---- numeric canonicalization (via atoms)

    def canon_num(self, e):
        return self.atom_expr(self.atom_of(e))

    # ---- atoms as sums of terms

    def atom_of(self, e):
        if e in self._atom_cache:
            return self._atom_cache[e]
        atom = self._finalize(self._terms_of(e))
        self._atom_cache[e] = atom
        return atom

    def _terms_of(self, e):
        if _is_const(e):
            v = _const_val(e)
            return [] if v == 0 else [_Term(v, None, ())]
        if isinstance(e, Iverson):
            dnf = self.minimize(self.to_dnf(e.arg))
            if dnf == FALSE_DNF:
                return []
            if dnf == TRUE_DNF:
                return [_Term(ONE, None, ())]
            return [_Term(ONE, dnf, ())]
        if isinstance(e, Neg):
            return [_Term(-t.coeff, t.pred, t.factors) for t in self._terms_of(e.arg)]
        if isinstance(e, Bin) and e.op in ("+", "-"):
            left = self._terms_of(e.left)
            right = self._terms_of(e.right)
            if e.op == "-":
                right = [_Term(-t.coeff, t.pred, t.factors) for t in right]
            return left + right
        if isinstance(e, Bin) and e.op == "*":
            return self._mul_terms(self._terms_of(e.left), self._terms_of(e.right))
        if isinstance(e, Bin):  # div mod &
            left = self.canon_num(e.left)
            right = self.canon_num(e.right)
            # canonical constants are IntLit exactly when integral
            if isinstance(left, IntLit) and isinstance(right, IntLit):
                try:
                    return self._terms_of(IntLit(apply_op(e.op, left.value, right.value)))
                except DivisionByZero:
                    pass
            return [_Term(ONE, None, (Bin(e.op, left, right),))]
        if isinstance(e, (MaxF, MinF)):
            args = [self.canon_num(a) for a in e.args]
            consts = [a for a in args if _is_const(a)]
            rest = [a for a in args if not _is_const(a)]
            pick = max if isinstance(e, MaxF) else min
            folded = []
            if consts:
                folded.append(_const_lit(pick(_const_val(c) for c in consts)))
            # flatten nested max into max, min into min
            flat = []
            for a in rest:
                if isinstance(a, type(e)):
                    flat.extend(a.args)
                else:
                    flat.append(a)
            args = folded + flat
            seen, uniq = set(), []
            for a in sorted(args, key=expr_to_source):
                k = expr_to_source(a)
                if k not in seen:
                    seen.add(k)
                    uniq.append(a)
            if len(uniq) == 1:
                return self._terms_of(uniq[0])
            node = MaxF(tuple(uniq)) if isinstance(e, MaxF) else MinF(tuple(uniq))
            return [_Term(ONE, None, (node,))]
        if isinstance(e, Idx):
            return [_Term(ONE, None, (Idx(e.name, self.canon_num(e.index)),))]
        if isinstance(e, Var):
            return [_Term(ONE, None, (e,))]
        raise TypeCheckError(f"boolean expression in numeric position: {e!r}")

    def _mul_terms(self, left, right):
        out = []
        for a in left:
            for b in right:
                if a.pred is None:
                    pred = b.pred
                elif b.pred is None:
                    pred = a.pred
                else:
                    pred = self._dnf_and(a.pred, b.pred)
                    if not pred:
                        continue
                factors = tuple(
                    sorted(a.factors + b.factors, key=expr_to_source)
                )
                out.append(_Term(a.coeff * b.coeff, pred, factors))
        return out

    def _finalize(self, terms):
        # minimize predicates, dropping unsatisfiable terms
        live = []
        for t in terms:
            if t.coeff == 0:
                continue
            pred = t.pred
            if pred is not None:
                pred = self.minimize(pred)
                if pred == FALSE_DNF:
                    continue
                if pred == TRUE_DNF:
                    pred = None
            live.append(_Term(t.coeff, pred, t.factors))
        # merge identical (pred, factors)
        merged = {}
        for t in live:
            k = (t.pred, t.factors)
            merged[k] = merged.get(k, ZERO) + t.coeff
        live = [
            _Term(c, pred, factors) for (pred, factors), c in merged.items() if c != 0
        ]
        # merge guarded copies of the same quantity over disjoint predicates:
        # c*[p]*F + c*[q]*F with p, q disjoint becomes c*[p or q]*F
        buckets = {}
        for t in live:
            buckets.setdefault((t.coeff, t.factors), []).append(t)
        out = []
        for (coeff, factors), group in sorted(
            buckets.items(),
            key=lambda kv: (tuple(map(expr_to_source, kv[0][1])), kv[0][0]),
        ):
            group.sort(key=lambda t: "" if t.pred is None else self.pred_render(t.pred))
            acc = []
            for t in group:
                if t.pred is None:
                    acc.append(t)
                    continue
                for i, u in enumerate(acc):
                    if u.pred is not None and self.preds_disjoint(u.pred, t.pred):
                        pred = self.minimize(u.pred | t.pred)
                        if pred == TRUE_DNF:
                            pred = None
                        acc[i] = _Term(coeff, pred, factors)
                        break
                else:
                    acc.append(t)
            out.extend(acc)
        atom = tuple(sorted(out, key=self._term_key))
        # intern: one deep hash per distinct atom, then identity everywhere
        got = self._intern.get(atom)
        if got is None:
            self._intern[atom] = atom
            got = atom
        return got

    def _term_key(self, t):
        return (
            tuple(expr_to_source(f) for f in t.factors),
            "" if t.pred is None else self.pred_render(t.pred),
            t.coeff,
        )

    # ---- atom arithmetic

    def atom_add(self, a, b):
        return self._finalize(list(a) + list(b))

    def atom_mul(self, a, b):
        return self._finalize(self._mul_terms(list(a), list(b)))

    # ---- rebuild and render

    def term_expr(self, t, strip_sign=False):
        coeff = -t.coeff if strip_sign and t.coeff < 0 else t.coeff
        parts = []
        if coeff != 1 or (t.pred is None and not t.factors):
            parts.append(_const_lit(coeff))
        if t.pred is not None:
            parts.append(Iverson(self.pred_expr(t.pred)))
        parts.extend(t.factors)
        out = parts[0]
        for p in parts[1:]:
            out = Bin("*", out, p)
        return out

    def atom_expr(self, atom):
        if id(atom) in self._rebuilt:
            return self._rebuilt[id(atom)]
        if not atom:
            out = IntLit(0)
        else:
            pos = [t for t in atom if t.coeff > 0]
            neg = [t for t in atom if t.coeff < 0]
            if pos:
                out = self.term_expr(pos[0])
                for t in pos[1:]:
                    out = Bin("+", out, self.term_expr(t))
            else:
                out = Neg(self.term_expr(neg[0], strip_sign=True))
                neg = neg[1:]
            for t in neg:
                out = Bin("-", out, self.term_expr(t, strip_sign=True))
        self._rebuilt[id(atom)] = out
        return out

    def atom_render(self, atom):
        if id(atom) not in self._render_memo:
            self._render_memo[id(atom)] = expr_to_source(self.atom_expr(atom))
        return self._render_memo[id(atom)]

    # ---- value vectors

    def _factor_column(self, f):
        """A factor's values on the states as (den, ints, fails): the value on
        the i-th state is ints[i] / den, or, where bit i of fails is set, a
        failing read (ints[i] is then 0)."""
        out = self._factor_columns.get(f)
        if out is None:
            fn = compile_expr(f, self.names, NUMERIC)
            values, fails = [], 0
            for i, row in enumerate(self._values):
                try:
                    values.append(fn(row, None))
                except EVAL_ERRORS:
                    values.append(0)
                    fails |= 1 << i
            den = lcm(*(x.denominator for x in values))
            ints = [x.numerator * (den // x.denominator) for x in values]
            out = self._factor_columns[f] = (den, ints, fails)
        return out

    def atom_vector(self, atom):
        """The atom's values on the states, as (den, integer tuple): the value
        on the i-th state is ints[i] / den, in lowest terms.  A factor that
        fails where its term's predicate holds makes the atom 0 on that
        state."""
        out = self._vectors.get(id(atom))
        if out is not None:
            return out
        n = len(self._values)
        terms = []
        den = 1
        for t in atom:
            columns = [self._factor_column(f) for f in t.factors]
            tden = t.coeff.denominator
            for c in columns:
                tden *= c[0]
            den = lcm(den, tden)
            terms.append((t, columns, tden))
        acc = [0] * n
        fails = 0
        for t, columns, tden in terms:
            k = t.coeff.numerator * (den // tden)
            mask = self.full if t.pred is None else self.models(t.pred)
            col = [k * b for b in _bits(mask, n)]
            for _, ints, bad in columns:
                fails |= bad & mask
                col = [x * y for x, y in zip(col, ints)]
            acc = [a + x for a, x in zip(acc, col)]
        if fails:
            acc = [0 if b else a for a, b in zip(acc, _bits(fails, n))]
        g = gcd(den, *acc)
        out = self._vectors[id(atom)] = (den // g, tuple(x // g for x in acc))
        return out

    # ---- normal form construction

    def normalize_gain(self, g, prune=False):
        # With prune=True, dominated atoms are dropped at every combiner.
        # This is exact: combinators are monotone and atoms are combined
        # pointwise, so an atom dominated now yields dominated combinations
        # later, while its dominator's combinations survive.  Without it,
        # PLUS chains from long observation cascades go exponential.
        squeeze = self.prune if prune else self.dedupe
        if isinstance(g, GAtom):
            return [self.atom_of(g.expr)]
        if isinstance(g, GMax):
            return squeeze(
                self.normalize_gain(g.left, prune) + self.normalize_gain(g.right, prune)
            )
        if isinstance(g, GPlus):
            zero = [self.atom_of(IntLit(0))]
            left = squeeze(self.normalize_gain(g.left, prune)) or zero
            right = squeeze(self.normalize_gain(g.right, prune)) or zero
            return squeeze([self.atom_add(a, b) for a in left for b in right])
        if isinstance(g, GAnd):
            scalar = self.atom_of(g.scalar)
            return squeeze(
                [self.atom_mul(scalar, a) for a in self.normalize_gain(g.body, prune)]
            )
        if isinstance(g, GQuantMax):
            out = []
            for v in g.values:
                out.extend(
                    self.normalize_gain(subst_gain(g.body, g.var, IntLit(v)), prune)
                )
            return squeeze(out)
        raise TypeCheckError(f"unknown gain expression {g!r}")

    def dedupe(self, atoms):
        # zero atoms are kept: MAX with 0 only collapses under dominance
        # pruning.  Atoms are interned, so identity equals equality.
        seen, out = set(), []
        for a in atoms:
            if id(a) not in seen:
                seen.add(id(a))
                out.append(a)
        return out

    def prune(self, atoms):
        """Drop identically-zero atoms and pointwise-dominated atoms."""
        atoms = self.dedupe(atoms)
        if not atoms:
            return []
        vecs = [(a, self.atom_vector(a)) for a in atoms]
        # rescale to one common denominator, so vectors compare as integers
        den = lcm(*(d for _, (d, _) in vecs))
        live = [
            (a, v if d == den else tuple(x * (den // d) for x in v))
            for a, (d, v) in vecs
            if any(v)
        ]
        # equal vectors: keep the lexicographically smallest rendering
        byvec = {}
        for a, v in live:
            cur = byvec.get(v)
            if cur is None or self.atom_render(a) < self.atom_render(cur):
                byvec[v] = a
        # a dominating vector has a strictly larger coordinate sum
        items = sorted(
            ((v, a) for v, a in byvec.items()),
            key=lambda va: (sum(va[0]), self.atom_render(va[1])),
        )
        sums = [sum(v) for v, _ in items]
        out = []
        for i, (vi, ai) in enumerate(items):
            dominated = False
            for j in range(len(items) - 1, i, -1):
                if sums[j] <= sums[i]:
                    break
                vj = items[j][0]
                if all(x <= y for x, y in zip(vi, vj)):
                    dominated = True
                    break
            if not dominated:
                out.append(ai)
        out.sort(key=self.atom_render)
        return out


# --- normal form -----------------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """A MAX of canonical atoms, in deterministic rendering order."""

    atoms: tuple  # canonical atom Exprs, sorted by render

    def render(self):
        if not self.atoms:
            return "0"
        return " MAX ".join(expr_to_source(a) for a in self.atoms)

    def as_gain(self):
        if not self.atoms:
            return GAtom(IntLit(0))
        g = GAtom(self.atoms[0])
        for a in self.atoms[1:]:
            g = GMax(g, GAtom(a))
        return g


def _atoms_to_nf(canon, atoms):
    rendered = sorted({canon.atom_render(a) for a in atoms})
    exprs = {canon.atom_render(a): canon.atom_expr(a) for a in atoms}
    return NormalForm(tuple(exprs[r] for r in rendered))


def normalize(g, decls, canon=None):
    """Flatten a gain expression into a MAX of canonical atoms (no pruning)."""
    canon = canon or Canon(decls)
    return _atoms_to_nf(canon, canon.dedupe(canon.normalize_gain(g)))


def simplify(g, decls, canon=None):
    """Normal form with identically-zero and pointwise-dominated atoms removed."""
    canon = canon or Canon(decls)
    if isinstance(g, NormalForm):
        atoms = [canon.atom_of(a) for a in g.atoms]
    else:
        atoms = canon.normalize_gain(g, prune=True)
    return _atoms_to_nf(canon, canon.prune(atoms))


# --- semantic comparison -----------------------------------------------------------------


@dataclass
class CompareResult:
    holds: bool
    relation: str = ""
    counterexample: Dist | None = None
    left: Fraction | None = None
    right: Fraction | None = None

    def __bool__(self):
        return self.holds

    def describe(self):
        if self.holds:
            return "holds"
        return (
            f"violated on {self.counterexample!r}: "
            f"left = {self.left}, right = {self.right}"
        )


def random_weights(n, rng, max_weight=16):
    """A non-degenerate integer weight vector (at least one positive entry)."""
    while True:
        w = [rng.randint(0, max_weight) for _ in range(n)]
        if any(w):
            return w


def _iter_dists(states, trials, seed, rng):
    # (integer-weight support, common divisor) pairs: every point, then trials
    n = len(states)
    for i in range(n):
        yield [(i, 1)], 1
    rng = rng if rng is not None else random.Random(seed)
    for _ in range(trials):
        w = random_weights(n, rng)
        total = sum(w)
        yield [(i, wi) for i, wi in enumerate(w) if wi], total


def _compare(g1, g2, decls, relation, trials, seed, states, rng):
    if states is None:
        states = all_states(
            tuple(d.name for d in decls), [d.domain for d in decls]
        )
    ev = GainEvaluator(states)
    for support, total in _iter_dists(ev.states, trials, seed, rng):
        l = ev.weighted_value(g1, support, total)
        r = ev.weighted_value(g2, support, total)
        bad = (l > r) if relation == "<=" else (l != r)
        if bad:
            witness = Dist.from_weights({ev.states[i]: w for i, w in support})
            return CompareResult(False, relation, witness, l, r)
    return CompareResult(True, relation)


def semantic_le(g1, g2, decls, trials=100, seed=42, states=None, rng=None):
    """Falsification-based check that g1's value never exceeds g2's.

    Tries every point distribution on the state space (or the given states)
    plus `trials` seeded random rational distributions.  A returned holds=True
    means no counterexample was found.
    """
    return _compare(g1, g2, decls, "<=", trials, seed, states, rng)


def semantic_eq(g1, g2, decls, trials=100, seed=42, states=None, rng=None):
    """Like semantic_le but requires exact equality of values on every trial."""
    return _compare(g1, g2, decls, "==", trials, seed, states, rng)
