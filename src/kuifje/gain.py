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
with one common divisor, and divides once at the top.  It values every
expression node as a level set, value -> mask of the states taking it (the
terminal-value view of algebraic decision diagrams: Bahar et al., ICCAD
1993), built from one table per variable and array element, so an
expression costs mask operations, not a pass over the states: an atomic
test's masks are its level set's, `and`, `or` and `not` are bitmask
operations, and an operator combines its operands' levels pairwise.  A
quantifier is valued through its instances (`lang.instances`), each a
closed gain with a value substituted for the index, built once and kept on
the quantifier's node; `Canon` normalizes the same nodes.  An atom's column
over the states, one per distinct atom, spreads its level set.  The tables,
level sets and columns die with the evaluator.  `eval_gain`/`eval_gain_hyper`
are one-shot wrappers, and `eval_atom_total`/`eval_bool_total` one-state
ones.

The same evaluator lists a gain's atom vectors over the states, pruned of
dominated ones; `semantic_le`/`semantic_eq` decide a comparison on every
distribution from those two sets (see `semantic_le`), exactly, with a
counterexample prior when it fails.

Atoms use a *total* semantics: inside an atom, an atomic boolean test that
fails (out-of-bounds index, division by zero) is false under either polarity,
and an atom whose numeric part cannot be evaluated on some state contributes
0 there.  Multiplication short-circuits on a zero left factor, so a guard
Iverson really does shield the expression it multiplies.  The total form
of `GainEvaluator`'s level sets is the one implementation of that
semantics.  Reads and atomic tests inside an atom evaluate strictly, as
`lang`'s compiled closures do, and their strict level sets give exactly the
closures' values.

The canonicalizer rewrites every atom into a sum of terms coeff*[pred]*factors
with predicates in minimized disjunctive normal form, merges complementary
and disjoint guarded terms, and renders deterministically; `simplify` prunes
atoms that are pointwise dominated on the declared state space.  It
decides predicates on bitmasks over that space's declared indices, whose
variable tables are closed-form masks, so it lists no state, and reads
both polarities of a literal from the level set of the
literal's atom, and values atoms as level sets too, one (value, mask) pair
per distinct nonzero value, so an atom costs as much as its distinct
values, not as the states.  It reads literal masks and factor level sets
through `Canon.evaluator`, a term's factors in rendered order, as the
printed atom reads them, so it values an atom exactly as `check` values
the printed one, on the same evaluator: `wp` and `check` value every gain
over the declared space on it.  Its memos (one record per conjunction,
the renderings of each factor list, and the rest listed on `Canon`) die
with the Canon, and a MAX tree is squeezed once, not at each of its nodes.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import compress, starmap
from math import gcd, lcm, prod

from .core import Dist, Space
from .core import all_states  # noqa: F401  perfbench/spans.py wraps gain.all_states
from .errors import DivisionByZero, NegativeAtom, TypeCheckError
from .lang import (
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
    OPS,
    RatLit,
    Var,
    apply_op,
    expr_to_source,
    instances,
    record,
)

ZERO = Fraction(0)
ONE = Fraction(1)

# DNF encoding: a predicate is a frozenset of conjunctions; a conjunction is a
# frozenset of literals; a literal is (negated, atom-Expr).  TRUE is the DNF
# with one empty conjunction, FALSE the empty DNF.
TRUE_DNF = frozenset({frozenset()})
FALSE_DNF = frozenset()


# --- total evaluation inside atoms ---------------------------------------------------


def eval_bool_total(e, state):
    """Boolean evaluation where an atomic test that fails is false.

    `not` is pushed down to the atomic tests (De Morgan through `and`/`or`),
    so a failing test is false under either polarity: on a state where n is
    past the end of A, `A[n] = x`, `A[n] != x` and `not (A[n] = x)` are all
    false.  A one-state `GainEvaluator` decides it.
    """
    return GainEvaluator([state])._test(e, False) == 1


def eval_atom_total(e, state):
    """Value of a gain atom on a state; unevaluable states contribute 0.
    A one-state `GainEvaluator` values it."""
    return GainEvaluator([state]).column(e)[0]


# --- columns, masks and level sets ----------------------------------------------------
#
# A mask is an int whose bit i stands for the i-th state; a column is a
# sequence with one value per state.  A level set is a pair (levels, fails):
# levels maps each value an expression takes to the mask of the states where
# it takes it, and fails is the mask of the states where a read in it fails.
# The masks are disjoint and cover the states.  Level sets share their dicts,
# which are never changed once built.

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack(bits):
    """The mask of a column of 0/1 entries."""
    return int(bytes(bits).translate(_DIGITS)[::-1] or b"0", 2)


def _bits(mask, n):
    """A mask as a column of n 0/1 entries."""
    return format(mask, f"0{n}b")[::-1].encode().translate(_TO_BITS)


# a mask with fewer than n / _SPARSE of its n bits set is built and read bit
# by bit, each step a shift or an xor, rather than through its 0/1 column,
# whose cost is n on every mask: so a level set with many small levels
# costs about as much to build and spread as one with few large ones
_SPARSE = 64


def _at(positions, n):
    """The mask with the bits at the given positions, all below n, set."""
    if len(positions) * _SPARSE < n:
        mask = 0
        for i in positions:
            mask |= 1 << i
        return mask
    bits = bytearray(n)
    for i in positions:
        bits[i] = 1
    return _pack(bits)


def _ones(mask, n):
    """The positions of the set bits of a mask over n states."""
    if mask.bit_count() * _SPARSE >= n:
        return compress(range(n), _bits(mask, n))
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    return out


def _const(value, full):
    # the level set of a value taken on every state
    return ({value: full} if full else {}), 0


def _truth(true, false):
    # the levels of a test that holds on true and fails to hold on false
    return {v: m for v, m in ((True, true), (False, false)) if m}


def _pairs(left, right, fn):
    """The levels of fn over two level sets' levels: fn(a, b) on each pair
    (a, ma), (b, mb) whose masks meet, on ma & mb."""
    out = {}
    for a, ma in left.items():
        for b, mb in right.items():
            m = ma & mb
            if m:
                v = fn(a, b)
                out[v] = out.get(v, 0) | m
    return out


def _within(x, lo, hi, *row):
    # whether x is in the slice [lo:hi] of an array, given its elements' values
    return x in row[lo:hi]


def _spread(levels, n, fill=None):
    """Levels as a column of n entries: each value on the states of its
    mask, fill on the rest."""
    column = [fill] * n
    for v, m in levels.items():
        for i in _ones(m, n):
            column[i] = v
    return column


def _grouped(indexed, n):
    """The levels of (state index, value) pairs over n states."""
    positions = {}
    for i, v in indexed:
        positions.setdefault(v, []).append(i)
    return {v: _at(p, n) for v, p in positions.items()}


def _digit(values, stride, n):
    """The levels of one digit of the declared index over n states: the
    digit has radix len(values) and weight stride, so values[p] is taken on
    a run of stride states at p * stride, repeated every len(values) *
    stride states.  The repeat is one geometric-series multiplier, and the
    run at p is the run at 0 shifted; the levels come in the order of first
    arrival, as `_grouped` gives them."""
    period = len(values) * stride
    first = ((1 << stride) - 1) * (((1 << n) - 1) // ((1 << period) - 1))
    return {v: first << p * stride for p, v in enumerate(values)}


# the nodes whose total level set can differ from their strict one: the
# forms differ at `[test]` and `*`, and so at the arithmetic above them
_ARITH = (Iverson, Bin, Neg, MaxF, MinF)


# --- gain evaluation -------------------------------------------------------------------


class GainEvaluator:
    """Values gain expressions on distributions over one fixed set of states:
    the declared space, a `core.Space`, or an explicit list of States.

    On the declared space state i is the one at declared index i, and a
    State is built only where one leaves (`state`), for a counterexample
    or an error message; over a list, state i is the list's i-th.  A
    distribution is read as (state index, integer weight) pairs plus one
    common divisor.  Every combinator commutes with dividing all weights by a
    positive constant, so the recursion runs on the weights and divides
    exactly once at the top.  `f AND G` multiplies each entry's weight by f
    and drops the entries where that is 0, so a negative value that a zero
    guard shields is never reported.  `MAX i in R: G` picks among its
    instances (`lang.instances`), so every gain it values is closed, and
    one memo holds every node's level sets and columns.

    One kernel, `_levels`, values every numeric and boolean node as a level
    set, in one of two forms.  The strict form is the node's value as the
    compiled closure gives it state by state; tests, indices and `print`
    values read it.  The total form is how an atom reads the node: a
    `[test]` is total, and a zero left factor of `*` shields the right one.
    The forms differ only at those two nodes, and the memo keeps them
    apart.  Level sets are built compositionally from one table per
    declared scalar and array element, value -> mask, each made the first
    time that variable is read (`_table`): on the declared space in closed
    form, since a scalar or an array element is one digit of the declared
    index, and over a list in one pass over the states:
    - a constant is one level over every state;
    - `A[e]` unions, over e's levels (i, m), m & table[A[i]]; a level with
      i out of range fails; this costs at most the read tables' sizes, so
      it needs no other path;
    - an operator combines each pair of levels whose masks meet, a pair
      dividing by 0 failing; `=`/`!=` looks each level of one side up in
      the other, so a test against an instantiated index costs one lookup;
    - `and`/`or` fail, as the closures do, only where the left operand
      leaves the value to the right one;
    - `x in A[lo:hi]` looks x up in the tables of the slice's elements.
    An operator or membership whose level pairs would outnumber the states
    is computed instead state by state from its operands' level sets
    (`_by_state`).

    An atomic test's masks are its strict level set's (`_test`), and `and`,
    `or` and `not` are operations on masks, with `not` pushed down to the
    atomic tests.  An atom's column (`_column`), built once per distinct
    expression, is its total level set spread over the states, and a
    `[test]`'s is its mask's 0/1 expansion; so a caller valuing many
    distributions over the same states, or many atoms that share a test,
    pays for each once.  The tables, level sets and columns die with the
    evaluator.
    """

    def __init__(self, states):
        if isinstance(states, Space):
            self.space, self.states, self._rows = states, None, None
            names, n = states.names, len(states)
        else:
            self.space, self.states = None, list(states)
            self._index = {s: i for i, s in enumerate(self.states)}
            self._rows = [s.values for s in self.states]
            names = self.states[0].names if self.states else ()
            n = len(self._rows)
        self._n = n
        self._positions = {name: k for k, name in enumerate(names)}
        self._full = (1 << n) - 1
        self._tables = {}
        self._memo = {}

    def state(self, i):
        """The i-th state, as a State."""
        return self.states[i] if self.space is None else self.space.state(i)

    def value(self, g, dist):
        """g's exact value on dist, whose support lies in the states."""
        if self.space is None:
            index = self._index
            support = [(index[s], w) for s, w in dist.weights]
        else:
            index = self.space.index
            support = [(index(s.values), w) for s, w in dist.weights]
        return self.weighted_value(g, support, dist.den)

    def hyper_value(self, g, hyper):
        """g's value on a hyper, whose inners' supports lie in the states:
        the average of its values on the inners."""
        total = sum((w * self.value(g, d) for d, w in hyper.weights), ZERO)
        return total / hyper.den

    def weighted_value(self, g, support, den=1):
        """g's value on the distribution giving states[i] probability w/den,
        for each (i, w) in support; every w is a positive integer."""
        return Fraction(self._eval(g, support), den)

    def column(self, e):
        """A numeric expression's total values on the states, as Fractions:
        0 on a state where a read in it fails.  Unlike valuing a gain, a
        negative value is returned, not refused."""
        den, ints, _, _ = self._column(e)
        return [Fraction(x, den) for x in ints]

    def _eval(self, g, support):
        if isinstance(g, GAtom):
            den, ints = self._atom(g.expr, support)
            total = sum([w * ints[i] for i, w in support])
            return total if den == 1 else Fraction(total, den)
        if isinstance(g, (GMax, GQuantMax)):
            return max([self._eval(h, support) for h in _choices(g)])
        if isinstance(g, GPlus):
            return self._eval(g.left, support) + self._eval(g.right, support)
        if isinstance(g, GAnd):
            den, ints = self._atom(g.scalar, support)
            scaled = [(i, w * ints[i]) for i, w in support if ints[i]]
            if not scaled:  # a guard 0 on the support: the body is not read
                return 0
            return _exact(self._eval(g.body, scaled), den)
        raise TypeCheckError(f"unknown gain expression {g!r}")

    def vectors(self, g):
        """g's atom vectors: tuples with one entry per state, such that g's
        value on any distribution p over the states is the largest v·p, or 0
        if there is no vector.  Zero and pointwise-dominated vectors are
        dropped at every combiner, which is exact because the combinators are
        monotone and pointwise.  As in valuing, `f AND G` keeps G's entries
        only where f is not 0, so a negative atom value that the guard
        shields is never reported."""
        support = [(i, 1) for i in range(self._n)]
        return self._vectors(g, support)

    def _vectors(self, g, support):
        # support holds (state index, weight) pairs; the weights are unused
        if isinstance(g, GAtom):
            den, ints = self._atom(g.expr, support)
            v = [ints[i] for i, _ in support]
            return _dominant([tuple(v if den == 1 else [Fraction(x, den) for x in v])])
        if isinstance(g, (GMax, GQuantMax)):
            return _dominant([v for h in _choices(g) for v in self._vectors(h, support)])
        if isinstance(g, GPlus):
            left = self._vectors(g.left, support)
            right = self._vectors(g.right, support)
            if not (left and right):
                return left or right
            return _dominant(
                [tuple(map(operator.add, a, b)) for a in left for b in right]
            )
        if isinstance(g, GAnd):
            den, ints = self._atom(g.scalar, support)
            kept = [k for k, (i, _) in enumerate(support) if ints[i]]
            if not kept:  # a guard 0 on the support: the body is not read
                return []
            body = self._vectors(g.body, [support[k] for k in kept])
            # a positive scale keeps the vectors nonzero and undominated
            out = []
            for v in body:
                scaled = [0] * len(support)
                for k, x in zip(kept, v):
                    scaled[k] = _exact(ints[support[k][0]] * x, den)
                out.append(tuple(scaled))
            return out
        raise TypeCheckError(f"unknown gain expression {g!r}")

    def _atom(self, expr, support):
        """The atom's values as (den, ints), as `_column` gives them;
        NegativeAtom, naming the least such state, if one is negative on a
        support entry."""
        den, ints, _, negative = self._memo.get(expr) or self._column(expr)
        if negative:
            below = [i for i, _ in support if ints[i] < 0]
            if below:
                if self.space is None:
                    i = min(below, key=self._rows.__getitem__)
                else:  # index order is values order
                    i = min(below)
                raise NegativeAtom(
                    f"atom {expr_to_source(expr)} is {Fraction(ints[i], den)} "
                    f"on {self.state(i)!r}"
                )
        return den, ints

    def _column(self, e):
        """A numeric expression's total values on the states, as (den, ints,
        fails, negative): the value on the i-th state is ints[i] / den, or,
        where bit i of fails is set, unevaluable, since a read fails, and
        ints[i] is 0; negative tells whether any value is below 0."""
        col = self._memo.get(e)
        if col is None:
            n = self._n
            if isinstance(e, Iverson):
                den, fails = 1, 0
                ints = _bits(self._test(e.arg, False), n)
            else:
                levels, fails = self._levels(e, total=True)
                den = lcm(*(Fraction(v).denominator for v in levels))
                ints = _spread({int(v * den): m for v, m in levels.items()}, n, 0)
            col = self._memo[e] = (den, ints, fails, min(ints, default=0) < 0)
        return col

    def _test(self, e, neg):
        """The mask of the states where the test e holds, or where `not e`
        does when neg is set, under the total semantics: `not` is pushed
        down to the atomic tests, and an atomic test holds where its level
        set's value is true, and under `not` where it is false, so a test
        whose read fails holds under neither."""
        if isinstance(e, BoolOp):
            left = self._test(e.left, neg)
            right = self._test(e.right, neg)
            return left & right if (e.op == "and") != neg else left | right
        if isinstance(e, Not):
            return self._test(e.arg, not neg)
        return self._levels(e)[0].get(not neg, 0)

    def _levels(self, e, total=False):
        """e's level set, (levels, fails) as above, in its strict or its
        total form, built from its operands' level sets and kept in memo.
        A read or a test has one form: the two differ only at `[test]` and
        `*`."""
        if total and not isinstance(e, _ARITH):
            total = False
        key = (total, e)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._level_set(e, total)
        return got

    def _level_set(self, e, total):
        full, n = self._full, self._n
        if isinstance(e, (IntLit, RatLit, BoolLit)):
            return _const(e.value, full)
        if isinstance(e, Var):
            return self._table(self._positions[e.name]), 0
        if isinstance(e, Idx):
            index, fails = self._levels(e.index)
            k = self._positions[e.name]
            levels, length = {}, self._length(k)
            for i, m in index.items():
                if not 0 <= i < length:
                    fails |= m  # past either end
                    continue
                for v, t in self._table(k, i).items():
                    inside = m & t
                    if inside:
                        levels[v] = levels.get(v, 0) | inside
            return levels, fails
        if isinstance(e, Neg):
            levels, fails = self._levels(e.arg, total)
            return {-v: m for v, m in levels.items()}, fails
        if isinstance(e, Iverson):
            if total:  # a test whose read fails is false
                true = self._test(e.arg, False)
                return {v: m for v, m in ((1, true), (0, full ^ true)) if m}, 0
            levels, fails = self._levels(e.arg)
            return {int(v): m for v, m in levels.items()}, fails
        if isinstance(e, (Bin, Cmp)):
            left, fails = self._levels(e.left, total)
            right, rfails = self._levels(e.right, total)
            shielded = 0
            if total and e.op == "*" and 0 in left:
                # the product is 0 where the left factor is, and the right
                # one is not read there
                shielded = left[0]
                left = {a: m for a, m in left.items() if a}
                rfails &= full ^ shielded
            fails |= rfails
            if e.op in ("=", "!="):
                # one lookup per level of the side with fewer
                few, many = sorted((left, right), key=len)
                true = 0
                for v, m in few.items():
                    true |= m & many.get(v, 0)
                false = full ^ fails ^ true
                if e.op == "!=":
                    true, false = false, true
                return _truth(true, false), fails
            if e.op in ("div", "mod") and 0 in right:
                fails |= right[0]
                right = {b: m for b, m in right.items() if b}
            if len(left) * len(right) > n:
                keep = full ^ fails ^ shielded
                levels = self._by_state(OPS[e.op], [left, right], keep)
            else:
                levels = _pairs(left, right, OPS[e.op])
            if shielded:
                levels[0] = levels.get(0, 0) | shielded
            return levels, fails
        if isinstance(e, (MaxF, MinF)):
            sets = [self._levels(a, total) for a in e.args]
            operands = [levels for levels, _ in sets]
            fails = reduce(operator.or_, [bad for _, bad in sets])
            pick = max if isinstance(e, MaxF) else min
            if prod(map(len, operands)) > n:
                return self._by_state(lambda *a: pick(a), operands, full ^ fails), fails
            return reduce(lambda a, b: _pairs(a, b, pick), operands), fails
        if isinstance(e, Not):
            levels, fails = self._levels(e.arg)
            return _truth(levels.get(False, 0), levels.get(True, 0)), fails
        if isinstance(e, BoolOp):
            # as in the closure, the right operand is read, and can fail,
            # only where the left one leaves the value open
            left, fails = self._levels(e.left)
            right, rfails = self._levels(e.right)
            true, false = left.get(True, 0), left.get(False, 0)
            rtrue, rfalse = right.get(True, 0), right.get(False, 0)
            if e.op == "and":
                levels = _truth(true & rtrue, false | true & rfalse)
                return levels, fails | true & rfails
            levels = _truth(true | false & rtrue, false & rfalse)
            return levels, fails | false & rfails
        if isinstance(e, Mem):
            return self._member(e)
        raise TypeCheckError(f"cannot evaluate {e!r}")

    def _member(self, e):
        # `x in A[lo:hi]`: x is in the slice where it equals one of the
        # slice's elements, each read from its table; a bound outside
        # 0..length fails
        k, full, n = self._positions[e.array], self._full, self._n
        length = self._length(k) if n else 0
        item, fails = self._levels(e.item)
        bounds = []
        for bound, default in ((e.lo, 0), (e.hi, length)):
            bound = IntLit(default) if bound is None else bound
            levels, bad = self._levels(bound)
            for b, m in levels.items():
                if not 0 <= b <= length:
                    bad |= m
            fails |= bad
            bounds.append({b: m for b, m in levels.items() if 0 <= b <= length})
        lo, hi = bounds
        if len(item) * len(lo) * len(hi) * length > n:
            row = [self._table(k, j) for j in range(length)]
            true = self._by_state(_within, [item, lo, hi, *row], full ^ fails).get(True, 0)
        else:
            true = 0
            for a, ma in lo.items():
                for b, mb in hi.items():
                    m = ma & mb
                    for x, mx in item.items():
                        inside = m & mx
                        for j in range(a, b):
                            true |= inside & self._table(k, j).get(x, 0)
        false = full ^ fails ^ true
        if e.negated:
            true, false = false, true
        return _truth(true, false), fails

    def _length(self, k):
        # the length of the k-th variable, an array
        if self.space is None:
            return len(self._rows[0][k])
        return self.space.domains[k].length

    def _table(self, k, j=None):
        """The levels of the k-th variable, or of element j of that array,
        built the first time it is read: on the declared space in closed
        form, as one digit of the index (`_digit`), and over a list of
        states in one pass over them."""
        table = self._tables.get((k, j))
        if table is None:
            rows = self._rows
            if rows is None:
                dom, stride = self.space.domains[k], self.space.strides[k]
                if j is not None:
                    dom, stride = dom.element, stride * dom.element.size ** (
                        dom.length - 1 - j
                    )
                table = _digit(dom.values(), stride, self._n)
            else:
                values = [r[k] for r in rows] if j is None else [r[k][j] for r in rows]
                table = _grouped(enumerate(values), len(rows))
            self._tables[k, j] = table
        return table

    def _by_state(self, fn, operands, keep):
        """The levels of fn over the operands' values, computed state by state
        on the states of keep, where every operand's level set has a value:
        the one fallback for a node whose level pairs would outnumber the
        states."""
        n = self._n
        bits = _bits(keep, n)
        args = compress(zip(*[_spread(levels, n) for levels in operands]), bits)
        return _grouped(zip(compress(range(n), bits), starmap(fn, args)), n)


def _choices(g):
    # the gains a MAX picks from: its two sides, or a quantifier's instances
    return (g.left, g.right) if isinstance(g, GMax) else instances(g)


def _exact(x, den):
    # x / den, an int when den is 1
    return x if den == 1 else Fraction(x, den)


def _pointwise_le(v, w):
    """Whether the tuple v lies entry by entry under the tuple w."""
    return all(map(operator.le, v, w))


def _levels_le(v, w, full):
    """Whether the level set v lies pointwise under the level set w, both
    over one denominator and the states of full, by mask containment: each
    level (a, m) of v lies inside the states where w is at least a, and so
    does v's zero set, with a = 0.  Only a negative value needs the zero
    sets; without one, w is at least 0 everywhere."""
    if v and v[0][0] < 0 or w and w[0][0] < 0:
        v, w = _with_zero(v, full), _with_zero(w, full)
    k, above = len(w), 0  # above: the states where w is at least w[k]'s value
    for a, m in reversed(v):
        while k and w[k - 1][0] >= a:
            k -= 1
            above |= w[k][1]
        if m & ~above:
            return False
    return True


def _with_zero(levels, full):
    # the levels with the zero set as the level of 0, in order of value
    zero = full
    for _, m in levels:
        zero ^= m
    return sorted((*levels, (0, zero)))


def _lies_under(v, s, ranked, le, strict=False):
    """Whether v, whose entries sum to s, lies pointwise under a vector of
    ranked: (sum, vector) pairs in descending order of sum, none equal to v
    when strict is set; le(v, w) decides one pair.  A vector under another
    has a smaller sum or equals it, so the scan stops at the first smaller
    sum, or when strict is set at the first sum that is not larger."""
    for t, w in ranked:
        if t < s or strict and t == s:
            return False
        if le(v, w):
            return True
    return False


def _undominated(vectors, sums, le):
    """One flag per vector of a list of distinct ones, with their sums:
    whether no other vector lies pointwise over it, as le decides.  Both
    tuples (`_pointwise_le`) and level sets (`_levels_le`) are vectors here.
    The vectors are scanned by descending sum, and each is tested against
    the undominated ones already kept: a vector under a dominated one is
    under that one's dominator too."""
    keep = [False] * len(vectors)
    kept = []
    for k in sorted(range(len(vectors)), key=sums.__getitem__, reverse=True):
        v, s = vectors[k], sums[k]
        if not _lies_under(v, s, kept, le, strict=True):
            kept.append((s, v))
            keep[k] = True
    return keep


def _dominant(vectors):
    """The nonzero vectors that no other vector pointwise dominates, each
    once, in first-seen order."""
    vecs = [v for v in dict.fromkeys(vectors) if any(v)]
    keep = _undominated(vecs, list(map(sum, vecs)), _pointwise_le)
    return list(compress(vecs, keep))


def eval_gain(g, dist):
    """The gain's exact value against a single distribution (one-shot)."""
    return GainEvaluator(dist.support()).value(g, dist)


def eval_gain_hyper(g, hyper):
    """The gain's value against a hyper: average of per-posterior values
    (one-shot)."""
    states = dict.fromkeys(s for d in hyper.inners() for s in d.support())
    return GainEvaluator(states).hyper_value(g, hyper)


# --- canonicalization ---------------------------------------------------------------

@record
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


def _decompose(x):
    """A numeric expression as its signed additive terms and its constant:
    ([(term, +1 or -1)], Fraction)."""
    if _is_const(x):
        return [], _const_val(x)
    if isinstance(x, Bin) and x.op in ("+", "-"):
        lt, lc = _decompose(x.left)
        rt, rc = _decompose(x.right)
        if x.op == "+":
            return lt + rt, lc + rc
        return lt + [(t, -s) for t, s in rt], lc - rc
    if isinstance(x, Neg):
        t, c = _decompose(x.arg)
        return [(e, -s) for e, s in t], -c
    return [(x, 1)], ZERO


class Canon:
    """Canonicalizer of gains and tests for output, bound to declarations.

    It takes no part in deciding a comparison: `semantic_le`/`semantic_eq`
    value gains as written, through `GainEvaluator`, because cancelling a
    term that reads out of bounds changes where an atom is defined.

    Predicates and atoms are decided on the declared state space, `space`,
    a `core.Space` (a WpEngine passes its executable's): bit i of a mask is
    the state at declared index i, in `all_states` order.  It reads the
    space through one `GainEvaluator`, `evaluator`, built when first read,
    whose variable tables are closed-form masks over the index, so deciding
    lists no state.  `wp` and `check` value every gain over the space on it:
    its memos are keyed by expression and hold one kernel's results, so
    sharing them changes no value.  Its tables, level sets and columns die
    with the Canon.

    A literal's mask is the evaluator's (`_test`), from the level set of the
    literal's atom, which gives both polarities; `lit_models` keeps the
    masks it is asked for.  `_models` holds the mask of each predicate
    `models` is asked for, and only those.  Each conjunction has one record
    (`_conj`): its literals in rendered order, their renderings, which are
    its sort key, their masks and its own mask.  Minimisation reads the
    records, tries each deletion on prefix and suffix masks, and stores
    none of its candidates.

    An atom's values are a level set (`atom_levels`), never a per-state
    tuple, and they are the printed atom's total values on every state, so
    `prune` is sound for the printed pre-gain.  `prune` hashes level sets
    to find equal atoms, sums them as value times mask size, and decides
    dominance by mask containment (`_levels_le`).

    Every atom a Canon returns comes from `_finalize`, which interns it, so an
    atom's identity is its value and no atom's id is reused while the Canon
    lives.  Caches keyed by atom ids (level sets, rebuilt expressions and
    `prune`'s memo) are therefore exact for the Canon's life; sums and
    products of atoms are not memoised, since a request rarely repeats one.
    `normalize_gain` memoises sub-gains by identity, keeping each alive
    beside its atoms, and squeezes a MAX tree once over all its operands;
    `to_dnf` memoises tests by value; `atom_of` memoises expressions by
    value; and literal, conjunction and predicate expressions are built
    once, so their renderings, which `lang.expr_to_source` keeps on the
    nodes, are made once.  All of these, and the conjunction records, die
    with the Canon: nothing it builds is in a reference cycle.
    """

    def __init__(self, decls, space=None):
        self.domains = {d.name: d.domain for d in decls}
        self.names = tuple(self.domains)
        self.space = space or Space(self.names, self.domains.values())
        self._models = {}
        self._conjs = {}
        self._lit_model_cache = {}
        self._intern = {}
        self._dnfs = {}
        self._lit_exprs = {}
        self._conj_exprs = {}
        self._pred_exprs = {}
        self._minimized = {}
        self._atom_cache = {}
        self._levels = {}
        self._rebuilt = {}
        self._prunes = {}
        self._normal_forms = {}

    @cached_property
    def evaluator(self):
        return GainEvaluator(self.space)

    @cached_property
    def full(self):
        return self.evaluator._full

    # ---- literals and DNF

    def lit_models(self, lit):
        """Bitmask of the states where one literal holds, from the level
        set of the literal's atom (`GainEvaluator._test`), which gives both
        polarities' masks: a failing read is false under either, so the two
        are disjoint, and outside their union lie exactly the states where a
        read fails."""
        mask = self._lit_model_cache.get(lit)
        if mask is None:
            ev, (neg, atom) = self.evaluator, lit
            mask = ev._test(atom, neg)
            self._lit_model_cache[lit] = mask
        return mask

    def _conj(self, conj):
        """The conjunction's record (key, lits, masks, mask): its literals'
        renderings in sorted order, the literals in that order, their masks,
        and the conjunction's own mask, the full one when it is empty."""
        rec = self._conjs.get(conj)
        if rec is None:
            lits = tuple(sorted(conj, key=self.lit_render))
            masks = tuple(map(self.lit_models, lits))
            rec = self._conjs[conj] = (
                tuple(map(self.lit_render, lits)),
                lits,
                masks,
                reduce(operator.and_, masks, self.full),
            )
        return rec

    def models(self, dnf):
        """Bitmask of the states where the DNF holds."""
        out = self._models.get(dnf)
        if out is None:
            out = 0
            for conj in dnf:
                out |= self._conj(conj)[3]
            self._models[dnf] = out
        return out

    # A literal's, a conjunction's and a DNF's expression is built once and
    # kept, so canonical atoms share their literal nodes and each node's
    # rendering (kept on the node by expr_to_source) is made once.

    def lit_expr(self, lit):
        out = self._lit_exprs.get(lit)
        if out is None:
            neg, atom = lit
            if isinstance(atom, Cmp):
                if atom.op == "=":
                    out = Cmp("!=" if neg else "=", atom.left, atom.right)
                # inequality literals are never negated (negation flips them)
                elif _is_const(atom.left) and not _is_const(atom.right):
                    flipped = {"<": ">", "<=": ">="}[atom.op]
                    out = Cmp(flipped, atom.right, atom.left)
                else:
                    out = atom
            elif isinstance(atom, Mem):
                out = Mem(atom.item, atom.array, atom.lo, atom.hi, neg)
            else:
                out = Not(atom) if neg else atom
            self._lit_exprs[lit] = out
        return out

    def lit_render(self, lit):
        return expr_to_source(self.lit_expr(lit))

    def _conj_expr(self, conj):
        out = self._conj_exprs.get(conj)
        if out is None:
            lits = self._conj(conj)[1]
            out = self.lit_expr(lits[0])
            for lit in lits[1:]:
                out = BoolOp("and", out, self.lit_expr(lit))
            self._conj_exprs[conj] = out
        return out

    def pred_expr(self, dnf):
        out = self._pred_exprs.get(dnf)
        if out is None:
            if dnf == TRUE_DNF:
                out = BoolLit(True)
            elif dnf == FALSE_DNF:
                out = BoolLit(False)
            else:
                conjs = sorted(dnf, key=lambda c: expr_to_source(self._conj_expr(c)))
                out = self._conj_expr(conjs[0])
                for c in conjs[1:]:
                    out = BoolOp("or", out, self._conj_expr(c))
            self._pred_exprs[dnf] = out
        return out

    def pred_render(self, dnf):
        return expr_to_source(self.pred_expr(dnf))

    # ---- boolean canonicalization

    def to_dnf(self, e, neg=False):
        """Negation normal form pushed into minimized-ready DNF, memoised by
        (e, neg) for the Canon's life."""
        out = self._dnfs.get((e, neg))
        if out is not None:
            return out
        if isinstance(e, BoolLit):
            out = FALSE_DNF if e.value == neg else TRUE_DNF
        elif isinstance(e, Not):
            out = self.to_dnf(e.arg, not neg)
        elif isinstance(e, BoolOp):
            both = (self.to_dnf(e.left, neg), self.to_dnf(e.right, neg))
            if (e.op == "and") != neg:  # De Morgan under negation
                out = self._dnf_and(*both)
            else:
                out = both[0] | both[1]
        elif isinstance(e, Iverson):
            # [b] used as a boolean via = / != is handled in Cmp; a bare
            # Iverson is numeric and cannot reach here
            raise TypeCheckError(f"numeric expression in boolean position: {e!r}")
        elif isinstance(e, Cmp):
            out = self._cmp_dnf(e, neg)
        elif isinstance(e, Mem):
            atom = Mem(
                self.canon_num(e.item),
                e.array,
                self._slice_bound(e.lo, 0),
                self._slice_bound(e.hi, self.domains[e.array].length),
                False,
            )
            out = frozenset({frozenset({(e.negated != neg, atom)})})
        elif isinstance(e, (Var, Idx)):
            atom = e if isinstance(e, Var) else Idx(e.name, self.canon_num(e.index))
            out = frozenset({frozenset({(neg, atom)})})
        else:
            raise TypeCheckError(f"not a boolean expression: {e!r}")
        self._dnfs[e, neg] = out
        return out

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
        left = self._side(e.left)
        right = self._side(e.right)
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

    def _side(self, x):
        """A comparison's side in canonical form, or as written where that
        form is a constant but a read in x can fail: `A[n] * 0 = 0` is false
        where A[n] is out of range."""
        out = self.canon_num(x)
        if _is_const(out) and not _is_const(x) and self.evaluator._levels(x)[1]:
            return x
        return out

    @staticmethod
    def _numeric_sides(left, right):
        # boolean equality (a = b on bools) must not be const-shifted
        for side in (left, right):
            if isinstance(side, (BoolLit, BoolOp, Not, Cmp, Mem)):
                return False
        return True

    def _shift_consts(self, left, right, op):
        """Move additive constants to the right: n + 1 = 3 becomes n = 2.
        Equal terms of opposite sign cancel only where the term cannot
        fail: `A[n] = A[n]` is false where A[n] is out of range."""

        lt, lc = _decompose(left)
        rt, rc = _decompose(right)
        terms = lt + [(t, -s) for t, s in rt]
        # cancel equal terms of opposite sign, where the term has a value on
        # every state: one whose read fails makes the test fail there
        reduced = []
        for t, s in terms:
            key = expr_to_source(t)
            for i, (_, s2, key2) in enumerate(reduced):
                if key == key2 and s2 == -s and not self.evaluator._levels(t)[1]:
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

    def _minimize(self, dnf):
        # Greedy two-level minimisation on the conjunctions' records, in
        # rendered order.  The masks' union stays the target, so a slimmed
        # conjunction keeps it exactly when its own mask stays inside the
        # target.  A candidate's mask is a prefix mask of what is kept
        # before it and a suffix mask of what follows it.
        if dnf in (TRUE_DNF, FALSE_DNF):
            return dnf
        full = self.full
        recs = sorted(((self._conj(c), c) for c in dnf), key=lambda rc: rc[0][0])
        target = 0
        for rec, _ in recs:
            target |= rec[3]
        if not target:
            return FALSE_DNF
        if target == full:
            return TRUE_DNF
        outside = full ^ target
        live = [(c, rec) for rec, c in recs if rec[3]]
        # absorption: a superset conjunction is redundant next to its subset,
        # and the shortest conjunctions have no proper subset among them
        shortest = min(len(c) for c, _ in live)
        live = [
            (c, rec) for c, rec in live
            if len(c) == shortest or not any(o < c for o, _ in live)
        ]
        conjs = [c for c, _ in live]
        masks = [rec[3] for _, rec in live]

        # One greedy pass of each kind is a fixed point, so none is repeated.
        # Literal deletion reads only the conjunction's own literals and
        # `outside`: a literal it keeps has a slimmed mask (the AND of the
        # kept literals before it and of all literals after it) that meets
        # `outside`, and on the kept literals alone that mask can only grow,
        # so a second pass keeps it again.  Disjunct deletion keeps a
        # conjunction whose others' union falls short of `target`; a second
        # pass sees a subset of those others, so it keeps it again.

        # greedy literal deletion, in rendered order
        for i, (_, rec) in enumerate(live):
            pairs = list(zip(rec[1], rec[2]))
            if len(pairs) < 2:
                continue  # without its one literal, a conjunction is true
            suffix = [full] * (len(pairs) + 1)
            for p in range(len(pairs) - 1, -1, -1):
                suffix[p] = suffix[p + 1] & pairs[p][1]
            prefix, kept = full, []
            for p, (lit, m) in enumerate(pairs):
                slim = prefix & suffix[p + 1]
                if slim & outside:
                    prefix &= m
                    kept.append((lit, m))
                else:
                    masks[i] = slim
            if len(kept) < len(pairs):
                conjs[i] = frozenset(lit for lit, _ in kept)
        # greedy disjunct deletion, last first: a conjunction goes when
        # the others' union is the target
        before = [0]
        for m in masks:
            before.append(before[-1] | m)
        after = 0
        for i in range(len(conjs) - 1, -1, -1):
            if before[i] | after == target:
                del conjs[i]
            else:
                after |= masks[i]
        return frozenset(conjs)

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
        # merge terms of one (pred, factors), minimising predicates and
        # dropping unsatisfiable terms
        merged = {}
        for t in terms:
            if not t.coeff:
                continue
            pred = t.pred
            if pred is not None:
                pred = self.minimize(pred)
                if pred == FALSE_DNF:
                    continue
                if pred == TRUE_DNF:
                    pred = None
            k = (pred, t.factors)
            merged[k] = merged[k] + t.coeff if k in merged else t.coeff
        # merge guarded copies of the same quantity over disjoint predicates:
        # c*[p]*F + c*[q]*F with p, q disjoint becomes c*[p or q]*F.  A
        # bucket is keyed by c's numerator and denominator, so that c is
        # hashed once, when the atom is interned.
        buckets = {}
        for (pred, factors), c in merged.items():
            if c:
                key = c.numerator, c.denominator, factors
                buckets.setdefault(key, (c, factors, []))[2].append(pred)
        rows = [
            (tuple(map(expr_to_source, factors)), c, factors, preds)
            for c, factors, preds in buckets.values()
        ]
        rows.sort(key=lambda row: row[:2])
        out = []
        for fkey, coeff, factors, preds in rows:
            if len(preds) > 1:
                preds.sort(key=self._pred_key)
                acc = []
                for p in preds:
                    for i, q in enumerate(acc):
                        if p is None or q is None or not self.preds_disjoint(q, p):
                            continue
                        q = self.minimize(q | p)
                        acc[i] = None if q == TRUE_DNF else q
                        break
                    else:
                        acc.append(p)
                preds = acc
            out.extend((fkey, self._pred_key(p), coeff, p, factors) for p in preds)
        out.sort(key=lambda row: row[:3])
        atom = tuple(_Term(coeff, p, factors) for _, _, coeff, p, factors in out)
        # intern: one deep hash per distinct atom, then identity everywhere
        got = self._intern.get(atom)
        if got is None:
            self._intern[atom] = atom
            got = atom
        return got

    def _pred_key(self, pred):
        return "" if pred is None else self.pred_render(pred)

    # ---- atom arithmetic

    def atom_add(self, a, b):
        # () is the zero atom, and an operand is already final
        if not b:
            return a
        if not a:
            return b
        return self._finalize(list(a) + list(b))

    def atom_mul(self, a, b):
        if not a or not b:
            return ()
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
        return expr_to_source(self.atom_expr(atom))

    # ---- level sets

    def atom_levels(self, atom):
        """The atom's values on the states as a level set (den, levels):
        one (value, mask) pair per distinct nonzero integer value, in
        increasing order of value, with pairwise disjoint masks.  The atom is
        value / den on the states of a mask and 0 on the rest, in lowest
        terms.  It is the total value of `atom_expr(atom)` on every state:
        where its term's predicate holds, a factor's read that fails, unless
        a zero factor to its left shields it, makes the atom 0 on that
        state.

        A term c·[p] is the one level (c's numerator, p's mask); a sum
        refines its terms' levels, so that only a term with factors reads
        the level set of its factor product (`_product_levels`)."""
        out = self._levels.get(id(atom))
        if out is None:
            out = self._levels[id(atom)] = self._sum_levels(atom)
        return out

    def _sum_levels(self, terms):
        parts = []
        for t in terms:
            mask = self.full if t.pred is None else self.models(t.pred)
            c = t.coeff
            if t.factors:
                den, levels, fails = self._product_levels(t.factors)
                levels = [(c.numerator * v, m & mask) for v, m in levels]
                parts.append((c.denominator * den, levels, fails & mask))
            else:
                parts.append((c.denominator, [(c.numerator, mask)], 0))
        den = lcm(*(d for d, _, _ in parts))
        acc = {0: self.full}  # value -> the states where the sum so far has it
        fails = 0
        for d, levels, bad in parts:
            fails |= bad
            scale = den // d
            refined = {}
            for v, states in acc.items():
                for k, m in levels:
                    inside = states & m
                    if inside:
                        states ^= inside
                        w = v + k * scale
                        refined[w] = refined.get(w, 0) | inside
                if states:
                    refined[v] = refined.get(v, 0) | states
            acc = refined
        keep = self.full ^ fails
        levels = sorted((v, m & keep) for v, m in acc.items() if v and m & keep)
        g = gcd(den, *(v for v, _ in levels))
        if g == 1:
            return den, tuple(levels)
        return den // g, tuple((v // g, m) for v, m in levels)

    def _product_levels(self, factors):
        """A product of factors as (den, levels, fails): the product is v /
        den on the states of each (v, mask) of levels, which are disjoint,
        and 0 elsewhere; where bit i of fails is set, it cannot be evaluated
        on the i-th state.  It is the evaluator's total level set of the
        left-nested product `f1 * f2 * ...`, the factors read in rendered
        order, as the printed term reads them: a zero factor shields the
        reads of the ones to its right."""
        product = reduce(partial(Bin, "*"), factors)
        levels, fails = self.evaluator._levels(product, total=True)
        den = lcm(*(Fraction(v).denominator for v in levels))
        return den, [(int(v * den), m) for v, m in levels.items() if v], fails

    # ---- normal form construction

    def normalize_gain(self, g, prune=False):
        """g's atoms, as a new list on every call, memoised by (id(g), prune)
        beside g itself, which keeps the id g's: a sub-gain that wp shares is
        normalized once."""
        # With prune=True, dominated atoms are dropped at every combiner.
        # This is exact: combinators are monotone and atoms are combined
        # pointwise, so an atom dominated now yields dominated combinations
        # later, while its dominator's combinations survive.  Without it,
        # PLUS chains from long observation cascades go exponential.
        got = self._normal_forms.get((id(g), prune))
        if got is not None:
            return list(got[1])
        squeeze = self.prune if prune else self.dedupe
        if isinstance(g, GAtom):
            out = [self.atom_of(g.expr)]
        elif isinstance(g, GMax):
            # the whole MAX tree, squeezed once over its operands' atoms in
            # order: prune keeps the maximal level sets and the smallest
            # rendering of each, however the MAX is grouped
            out, rest = [], [g]
            while rest:
                h = rest.pop()
                if isinstance(h, GMax):
                    rest += (h.right, h.left)
                else:
                    out += self.normalize_gain(h, prune)
            out = squeeze(out)
        elif isinstance(g, GPlus):
            zero = [self.atom_of(IntLit(0))]
            left = squeeze(self.normalize_gain(g.left, prune)) or zero
            right = squeeze(self.normalize_gain(g.right, prune)) or zero
            out = squeeze([self.atom_add(a, b) for a in left for b in right])
        elif isinstance(g, GAnd):
            scalar = self.atom_of(g.scalar)
            out = squeeze(
                [self.atom_mul(scalar, a) for a in self.normalize_gain(g.body, prune)]
            )
        elif isinstance(g, GQuantMax):
            out = squeeze([a for h in instances(g) for a in self.normalize_gain(h, prune)])
        else:
            raise TypeCheckError(f"unknown gain expression {g!r}")
        self._normal_forms[id(g), prune] = (g, tuple(out))
        return out

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
        """Drop identically-zero atoms and pointwise-dominated atoms, in
        rendering order.  The result is a new list on every call; the memo
        keeps a tuple, under the input's ids and under its own, so pruning
        a pruned list is a hit: prune(prune(x)) = prune(x), in the same
        rendering order.

        The level sets are rescaled to one denominator, and equal ones are
        found by hashing, as `_dominant` does with vectors; of equal ones the
        smallest rendering stays.  The distinct level sets go through
        `_undominated`, with sums from value times mask size and dominance
        by mask containment."""
        atoms = self.dedupe(atoms)
        key = tuple(map(id, atoms))
        out = self._prunes.get(key)
        if out is not None:
            return list(out)
        atoms.sort(key=self.atom_render)
        sets = [self.atom_levels(a) for a in atoms]
        den = lcm(*(d for d, _ in sets))
        best = {}  # level set -> its first atom, the one with the smallest rendering
        for a, (d, levels) in zip(atoms, sets):
            if not levels:
                continue
            if d != den:
                levels = tuple((v * (den // d), m) for v, m in levels)
            best.setdefault(levels, a)
        sets = list(best)
        sums = [sum(v * m.bit_count() for v, m in levels) for levels in sets]
        le = partial(_levels_le, full=self.full)
        out = list(compress(best.values(), _undominated(sets, sums, le)))
        self._prunes[key] = self._prunes[tuple(map(id, out))] = tuple(out)
        return out


# --- normal form -----------------------------------------------------------------------


@record
class NormalForm:
    """A MAX of canonical atoms, in deterministic rendering order."""

    atoms: tuple  # canonical atom Exprs, sorted by render

    def render(self):
        if not self.atoms:
            return "0"
        return " MAX ".join(expr_to_source(a) for a in self.atoms)

    def as_gain(self):
        """The atoms as a balanced MAX, in their order."""
        return balanced(GMax, [GAtom(a) for a in self.atoms])


def balanced(join, gains):
    """A list of gains joined by `GMax` or `GPlus`, in their order, as a
    balanced tree, or 0 for no gains: log2(k) levels deep where a chain of k
    gains would be k deep, past the recursion limit of every walker for a
    wide form."""
    return _tree(join, gains, 0, len(gains)) if gains else GAtom(IntLit(0))


def _tree(join, gains, lo, hi):
    if hi - lo == 1:
        return gains[lo]
    mid = (lo + hi) // 2
    return join(_tree(join, gains, lo, mid), _tree(join, gains, mid, hi))


def normalize(g, decls, canon=None):
    """Flatten a gain expression into a MAX of canonical atoms (no pruning)."""
    canon = canon or Canon(decls)
    atoms = canon.dedupe(canon.normalize_gain(g))
    exprs = {canon.atom_render(a): canon.atom_expr(a) for a in atoms}
    return NormalForm(tuple(exprs[r] for r in sorted(exprs)))


def simplify(g, decls, canon=None):
    """Normal form with identically-zero and pointwise-dominated atoms removed."""
    canon = canon or Canon(decls)
    atoms = canon.prune(canon.normalize_gain(g, prune=True))
    return NormalForm(tuple(map(canon.atom_expr, atoms)))


# --- semantic comparison -----------------------------------------------------------------


@record
class CompareResult:
    """The decision of `semantic_le`/`semantic_eq`.  When the relation fails,
    `counterexample` is a prior over the compared states on which it fails,
    and `left`/`right` are the two gains' exact values there."""

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


def random_weights(n, rng):
    """n integer weights in 0..16, not all 0: the stream of randint(0, 16)."""
    while True:
        w = [rng.randrange(17) for _ in range(n)]
        if any(w):
            return w


def _lp_max(rows, c):
    """max c·x over x ≥ 0 with A x ≤ b, each row being A[r] + [b[r]] with
    b[r] ≥ 0, so the slacks are a feasible first basis; the problem must be
    bounded.  Returns (max, x), exactly.

    A dense tableau pivoting by Bland's rule (the lowest index enters, ties
    in the ratio test leave by the lowest index), which cannot cycle.  Each
    row is scaled to integers, and pivoting keeps every entry an integer
    over one common divisor d, the determinant of the basis (integer
    pivoting, as in Avis's lrs): by Sylvester's identity each division
    below is exact, and d > 0, so signs read straight off the integers."""
    m, k = len(rows), len(c)
    tab = []
    for r, row in enumerate(rows):
        scale = lcm(*(Fraction(a).denominator for a in row))
        ints = [int(a * scale) for a in row]
        tab.append(ints[:-1] + [int(q == r) for q in range(m)] + ints[-1:])
    obj = [-a for a in c] + [0] * (m + 1)
    basis = list(range(k, k + m))
    d = 1
    while True:
        col = next((j for j, a in enumerate(obj[:-1]) if a < 0), None)
        if col is None:
            break
        _, _, r = min(
            (Fraction(row[-1], row[col]), basis[r], r)
            for r, row in enumerate(tab)
            if row[col] > 0
        )
        prow = tab[r]
        a = prow[col]
        for row in tab + [obj]:
            f = row[col]
            if row is not prow:
                row[:] = [(x * a - f * y) // d for x, y in zip(row, prow)]
        basis[r], d = col, a
    x = [ZERO] * k
    for r, j in enumerate(basis):
        if j < k:
            x[j] = Fraction(tab[r][-1], d)
    return Fraction(obj[-1], d), x


def _separating_prior(v, upper):
    """A prior p, as (position, integer weight) pairs, with v·p > w·p for
    every w in upper (a nonempty list of vectors as long as v), or None
    when v lies pointwise under a convex combination of upper.

    By minimax duality the two cases are exclusive and exhaustive; this is
    the g-vulnerability view of Alvim, Chatzikokolakis, Palamidessi and
    Smith (CSF 2012).  It solves max t subject to (v - w)·p ≥ t for every w
    in upper, p a distribution over the positions where v is positive
    (mass elsewhere only lowers every v·p - w·p).  The last such position
    takes the remaining mass, and t = s - M with M the largest entry of
    upper, so every constraint reads A x ≤ b with b ≥ 0."""
    pos = [k for k, x in enumerate(v) if x]
    *free, last = pos
    big = max(x for w in upper for x in w)
    rows = []
    for w in upper:
        d_last = v[last] - w[last]
        rows.append(
            [d_last - (v[k] - w[k]) for k in free] + [1, big + d_last]
        )
    rows.append([1] * len(free) + [0, 1])
    top, x = _lp_max(rows, [0] * len(free) + [1])
    if top <= big:
        return None
    probs = x[:-1]
    probs.append(1 - sum(probs))
    den = lcm(*(p.denominator for p in probs))
    return [(k, int(p * den)) for k, p in zip(pos, probs) if p]


def _compare(g1, g2, decls, relation, states, ev):
    if ev is None:
        if states is None:
            states = Space([d.name for d in decls], [d.domain for d in decls])
        ev, states = GainEvaluator(states), None
    # the compared states' indices in ev, in order; the vectors have one
    # entry per compared state
    at = range(ev._n) if states is None else states
    support = [(i, 1) for i in at]
    left = ev._vectors(g1, support)
    right = ev._vectors(g2, support)
    bad = operator.gt if relation == "<=" else operator.ne

    def violation(prior):
        # prior: (position among the compared states, integer weight) pairs
        prior = [(at[k], w) for k, w in prior]
        total = sum(w for _, w in prior)
        l = ev.weighted_value(g1, prior, total)
        r = ev.weighted_value(g2, prior, total)
        witness = Dist.from_weights({ev.state(i): w for i, w in prior})
        return CompareResult(False, relation, witness, l, r)

    # point priors first, in state order: a gain's value there is the
    # largest entry of its vectors at that state
    zeros = [0] * len(at)
    lmax = [max(col) for col in zip(*left)] if left else zeros
    rmax = [max(col) for col in zip(*right)] if right else zeros
    for k, (l, r) in enumerate(zip(lmax, rmax)):
        if bad(l, r):
            return violation([(k, 1)])
    sides = [(left, right)] if relation == "<=" else [(left, right), (right, left)]
    for lower, upper in sides:
        ranked = sorted(
            zip(map(sum, upper), upper), key=operator.itemgetter(0), reverse=True
        )
        for v in lower:
            if _lies_under(v, sum(v), ranked, _pointwise_le):
                continue
            prior = _separating_prior(v, upper)
            if prior is not None:
                return violation(prior)
    return CompareResult(True, relation)


def semantic_le(g1, g2, decls, states=None, evaluator=None):
    """Decides whether g1's value is at most g2's on every distribution over
    the declared state space (or over the given states).

    Both gains become pruned sets of atom vectors (`GainEvaluator.vectors`),
    and g1 ≤ g2 on every distribution iff each vector of g1 lies pointwise
    under a convex combination of g2's.  Point priors are tried first, in
    state order; then a vector of g1 under a vector of g2 needs nothing
    more, and any other is settled by an exact rational LP whose optimal
    vertex, when the relation fails, is the counterexample prior.

    `evaluator`, if given, is a `GainEvaluator` whose states include the
    compared ones, and `states` then lists the compared states' indices in
    it (all its states when `states` is None), so that a caller deciding
    many state sets builds its tables and columns once.  The vectors are
    read on those indices, and are the ones an evaluator over those states
    alone builds: the result is the same.
    """
    return _compare(g1, g2, decls, "<=", states, evaluator)


def semantic_eq(g1, g2, decls, states=None, evaluator=None):
    """Decides whether g1 and g2 have equal values on every distribution:
    `semantic_le` both ways, the point priors first, on an `evaluator` as
    `semantic_le` takes it."""
    return _compare(g1, g2, decls, "==", states, evaluator)
