"""The evaluator's level sets, masks and factor values, and `Canon`'s
atoms, against a strict reference.

`GainEvaluator` values every node as a level set (`_levels`), strict for
tests and indices, total as an atom reads it, decides a test as masks over
its states (`_test`) and values a factor product as a total level set;
`Canon` reads the last two through an evaluator of its own (`lit_models`,
`_product_levels`) and values its atoms from them (`atom_levels`).  Here
each is checked state by state against `reference_eval`, which walks the
tree one state at a time:

- a level set's values, masks and fail mask, with no boolean value in a
  numeric expression's level set and no number in a test's;
- a test's true and false masks, under both polarities, and for an atomic
  test the fail mask, the states outside both;
- a numeric expression's total values and fail mask, a factor product's
  read left to right, as the printed term reads it;
- an atom's level set, against the total value of the atom as printed.

The cases are every literal, factor product and atom that `Canon` reads or
builds on `wp` and `wp --force-unfold` across the corpus, hand-written ones
over a small space (reads past the end of an array, `div` and `mod` by 0,
`and`/`or` whose left side shields a failing right side, a zero factor
that shields a failing one, tests compared as values, bad slices,
`max`/`min` and quantifier indices, which the reference reads from its
bindings and the evaluator as the constants `lang.instances` substitutes
for them), generated ones, and a literal, a
product and a membership whose level pairs outnumber the states, each
computed by one state-by-state pass where no other case takes any, beside
an array read whose element tables outnumber the states, which takes none.
A mask's set bits and the mask of a set of positions are checked against
each other on both sides of the density below which they are read and
built bit by bit.
"""

import glob
import os
import random
from fractions import Fraction
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval as ref
from kuifje import gain
from kuifje.core import all_states
from kuifje.gain import Canon, GainEvaluator
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
    Var,
    check_program,
    parse_gain,
    parse_program,
)
from kuifje.wp import WpConfig, WpEngine

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
ANNOTATED = (
    "max_no_branch.kuif",
    "reveal_max_value.kuif",
    "search_early_exit.kuif",
    "search_full_scan.kuif",
)


def _program(src):
    program = parse_program(src)
    check_program(program)
    return program


def _corpus(name):
    with open(os.path.join(CORPUS, name)) as f:
        return _program(f.read())


POSTED = sorted(
    os.path.basename(path)
    for path in glob.glob(os.path.join(CORPUS, "*.kuif"))
    if _corpus(os.path.basename(path)).post is not None
)
RUNS = [(name, False) for name in POSTED] + [(name, True) for name in ANNOTATED]


def _test(source):
    # a test as a gain reads it, so that rationals such as 1/2 parse
    return parse_gain(f"[{source}]").expr.arg


def _numeric(source):
    return parse_gain(source).expr


def _mask(flags):
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def _strict_masks(e, states, env=None):
    """e's (true, false, fail) masks under strict evaluation."""
    true = false = fails = 0
    for i, s in enumerate(states):
        try:
            v = ref.value(e, s, env)
        except ref.FAILS:
            fails |= 1 << i
        else:
            if v:
                true |= 1 << i
            else:
                false |= 1 << i
    return true, false, fails


def _numeric_reference(e, states, env=None):
    """e's total values, 0 where a read fails, and its fail mask."""
    values, fails = [], 0
    for i, s in enumerate(states):
        try:
            values.append(Fraction(ref.numeric(e, s, env)))
        except ref.FAILS:
            values.append(Fraction(0))
            fails |= 1 << i
    return values, fails


def _product(factors):
    # the left-nested product f1 * f2 * ...
    return reduce(partial(Bin, "*"), factors)


def _expand(den, levels, fails, n):
    # a level set's values as a list, checking its masks are disjoint
    values, seen = [Fraction(0)] * n, fails
    for v, m in levels:
        assert v and not m & seen
        seen |= m
        for i in range(n):
            if m >> i & 1:
                values[i] = Fraction(v, den)
    return values


# ---- every literal and factor Canon reads on the corpus


def _canon_reads(name, force_unfold):
    """The engine's Canon after `wp`, with the literal atoms and factor
    products it read."""
    engine = WpEngine(_corpus(name), WpConfig(force_unfold=force_unfold))
    canon = engine.canon
    atoms, products = set(), set()
    lit_models, product_levels = canon.lit_models, canon._product_levels

    def reading_literal(lit):
        atoms.add(lit[1])
        return lit_models(lit)

    def reading_product(factors):
        products.add(factors)
        return product_levels(factors)

    canon.lit_models, canon._product_levels = reading_literal, reading_product
    try:
        engine.wp_program()
    finally:
        del canon.lit_models, canon._product_levels
    return canon, atoms, products


@pytest.mark.parametrize(
    "run", RUNS, ids=[n + (" --force-unfold" if f else "") for n, f in RUNS]
)
def test_canon_reads_match_the_reference(run):
    canon, atoms, products = _canon_reads(*run)
    assert atoms or products
    states = canon.space.states()
    for atom in atoms:
        true, false, _ = _strict_masks(atom, states)
        assert canon.lit_models((False, atom)) == true, atom
        assert canon.lit_models((True, atom)) == false, atom
    for factors in products:
        # the factors read left to right, as the printed term reads them
        den, levels, fails = canon._product_levels(factors)
        want, want_fails = _numeric_reference(_product(factors), states)
        assert fails == want_fails, factors
        assert _expand(den, levels, fails, len(states)) == want, factors


def _assert_atom_levels_match(canon, atom):
    # an atom's level set is the printed atom's total value on every state,
    # so `prune` drops only atoms that the printed ones dominate
    states = canon.space.states()
    den, levels = canon.atom_levels(atom)
    expr = canon.atom_expr(atom)
    want = [ref.atom(expr, s) for s in states]
    assert _expand(den, levels, 0, len(states)) == want, canon.atom_render(atom)


@pytest.mark.parametrize(
    "run", RUNS, ids=[n + (" --force-unfold" if f else "") for n, f in RUNS]
)
def test_canon_atoms_match_the_reference(run):
    canon, _, _ = _canon_reads(*run)
    assert canon._intern
    for atom in canon._intern:
        _assert_atom_levels_match(canon, atom)


# ---- hand-written cases over a small space

SPACE = _program(
    """\
hidden b : bool
hidden x : int[0..3]
hidden n : int[0..3]
hidden A : array[3] of int[0..2]
hidden B : array[2] of bool
skip
"""
)
STATES = all_states(
    tuple(d.name for d in SPACE.decls), [d.domain for d in SPACE.decls]
)

# (test, quantifier bindings); n = 3 reads past the end of A
TESTS = [
    ("A[n] = x", None),
    ("A[n] = A[x]", None),
    ("A[n - 1] = x", None),
    ("A[n] != 1", None),
    ("x div n = 1", None),
    ("x mod n < 2", None),
    ("(x + 1) div (n - 1) = A[0]", None),
    ("x & n = 1", None),
    ("-x < -1", None),
    ("x + 1/2 < n", None),
    ("b", None),
    ("B[x div 2]", None),
    ("B[n]", None),
    ("true", None),
    ("b = (x < 1)", None),
    ("b != (A[n] = 2)", None),
    ("b = (n < 3 and A[n] = x)", None),
    ("b = (n = 3 or A[n] = x)", None),
    ("b = (n >= 3 or A[n] div x = 1)", None),
    ("[A[n] = 1] = 1", None),
    ("[n < 3 and A[n] = 1] = 0", None),
    ("(not (A[n] = 1)) = b", None),
    ("x in A", None),
    ("x in A[n:]", None),
    ("x in A[n:x]", None),
    ("x notin A[1:n]", None),
    ("x in A[n + 1:]", None),
    ("x in A[x - 1:n]", None),
    ("A[n] in A[0:2]", None),
    ("b in B[n - 1:]", None),
    ("max(x, A[n]) = 2", None),
    ("min(x, n) < A[0]", None),
    ("max(x div n, 1) = 1", None),
    ("x = w", {"w": 2}),
    ("A[w] = x", {"w": 1}),
    ("A[w] = x", {"w": 3}),
    ("A[n] = w", {"w": 0}),
    ("x in A[w:]", {"w": 2}),
    ("x in A[w:]", {"w": 4}),
    ("max(w, x) = n", {"w": 2}),
    # compound: total, a failing atomic test false under either polarity
    ("n < 3 and A[n] = x", None),
    ("n = 3 or A[n] = x", None),
    ("not (n = 3 or A[n] != x)", None),
    ("A[n] = x or x div n = 0", None),
    ("not (b and x in A[n:]) or A[w] = 1", {"w": 2}),
]


def _evaluator_masks(ev, e):
    # the evaluator's masks of e and of `not e`, read through [e] and [not e]
    return _mask(ev.column(Iverson(e))), _mask(ev.column(Iverson(Not(e))))


@pytest.mark.parametrize("source, env", TESTS, ids=[t for t, _ in TESTS])
def test_test_masks_match_the_reference(source, env):
    e = _test(source)
    pos, neg = _evaluator_masks(GainEvaluator(STATES), ref.closed(e, env))
    assert pos == _mask(ref.truth(e, s, env) for s in STATES)
    assert neg == _mask(ref.truth(e, s, env, neg=True) for s in STATES)
    if not isinstance(e, (BoolOp, Not)):
        true, false, fails = _strict_masks(e, STATES, env)
        assert (pos, neg) == (true, false)
        assert pos | neg | fails == (1 << len(STATES)) - 1


NUMERIC = [
    ("A[n]", None),
    ("A[x div n]", None),
    ("A[[b] * n]", None),
    ("A[w]", {"w": 1}),
    ("A[w]", {"w": 3}),
    ("x div n", None),
    ("x mod n", None),
    ("x & n", None),
    ("max(x, A[n])", None),
    ("min(A[n], n, 1/2)", None),
    ("max(w, A[n])", {"w": 1}),
    ("A[n] * x + 1/3", None),
    ("0 * A[n]", None),
    ("[A[n] = 1] * A[x]", None),
]


def _counting_passes(monkeypatch):
    # the number of states each state-by-state pass reads
    passes = []
    real = GainEvaluator._by_state

    def counting(self, fn, operands, keep):
        passes.append(keep.bit_count())
        return real(self, fn, operands, keep)

    monkeypatch.setattr(GainEvaluator, "_by_state", counting)
    return passes


def _assert_levels_match(ev, e, env):
    levels, fails = ev._levels(ref.closed(e, env))
    want, want_fails = {}, 0
    for i, s in enumerate(ev.states):
        try:
            v = ref.value(e, s, env)
        except ref.FAILS:
            want_fails |= 1 << i
        else:
            want[v] = want.get(v, 0) | 1 << i
    assert fails == want_fails
    assert levels == want
    # True == 1, so the dicts' equality alone cannot tell them apart
    assert {isinstance(v, bool) for v in levels} == {
        isinstance(v, bool) for v in want
    }


@pytest.mark.parametrize(
    "source, env, parse",
    [(t, env, _test) for t, env in TESTS] + [(t, env, _numeric) for t, env in NUMERIC],
    ids=[t for t, _ in TESTS + NUMERIC],
)
def test_level_sets_match_the_reference(source, env, parse, monkeypatch):
    passes = _counting_passes(monkeypatch)
    _assert_levels_match(GainEvaluator(STATES), parse(source), env)
    assert passes == []


@pytest.mark.parametrize("source, env", NUMERIC, ids=[t for t, _ in NUMERIC])
def test_numeric_columns_match_the_reference(source, env):
    e = _numeric(source)
    ev = GainEvaluator(STATES)
    den, ints, fails, _ = ev._column(ref.closed(e, env))
    values, want_fails = _numeric_reference(e, STATES, env)
    assert fails == want_fails
    assert [Fraction(v, den) for v in ints] == values


@pytest.mark.parametrize("source", [t for t, env in NUMERIC if env is None])
def test_factor_levels_match_the_reference(source):
    e = _numeric(source)
    canon = Canon(SPACE.decls)
    den, levels, fails = canon._product_levels((e,))
    values, want_fails = _numeric_reference(e, STATES)
    assert fails == want_fails
    assert _expand(den, levels, fails, len(STATES)) == values


# atoms whose terms read a factor that can fail, in sums so that a failing
# read shows; each zero factor to the left of the failing one shields it
SHIELDED = [
    "1 + A[0] * A[n]",
    "x + n * (x div n)",
    "2 + A[0] * (x div n) - A[1]",
    "1/2 + A[1] * A[n] * (x div n)",
    "[b] + max(x, n) * (x div n)",
    "[n < 3] * A[n] + A[0] * A[n - 1]",
    "3 * A[n] + 1",
]


@pytest.mark.parametrize("source", SHIELDED)
def test_shielded_atoms_match_the_reference(source):
    canon = Canon(SPACE.decls)
    _assert_atom_levels_match(canon, canon.atom_of(_numeric(source)))


# generated expressions over the small space, well typed: numbers over x, n,
# A's elements and small constants, tests over numbers, b and B's elements
numbers = st.recursive(
    st.one_of(
        st.builds(IntLit, st.integers(-1, 3)), st.sampled_from([Var("x"), Var("n")])
    ),
    lambda inner: st.one_of(
        st.builds(Idx, st.just("A"), inner),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "div", "mod", "&"]), inner, inner),
        st.builds(Neg, inner),
        st.builds(lambda a, b: MaxF((a, b)), inner, inner),
        st.builds(lambda a, b: MinF((a, b)), inner, inner),
    ),
    max_leaves=5,
)
tests = st.recursive(
    st.one_of(
        st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), numbers, numbers),
        st.builds(Mem, numbers, st.just("A"), numbers | st.none(), numbers | st.none(), st.booleans()),
        st.builds(Idx, st.just("B"), numbers),
        st.sampled_from([Var("b"), BoolLit(True)]),
    ),
    lambda inner: st.one_of(
        st.builds(BoolOp, st.sampled_from(["and", "or"]), inner, inner),
        st.builds(Not, inner),
        st.builds(Cmp, st.sampled_from(["=", "!="]), inner, inner),
    ),
    max_leaves=4,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(tests, numbers, st.builds(Iverson, tests)))
def test_generated_level_sets_match_the_reference(e):
    _assert_levels_match(GainEvaluator(STATES), e, None)


# ---- nodes whose level pairs outnumber the states

# the left side takes 432 values and the right one 16: 6912 pairs over 3456
# states
WIDE = "x + 4 * n + 16 * A[0] + 48 * A[1] + 144 * A[2] < 5 * n + 3 * x + 100"


def test_wide_literal_matches_the_reference():
    assert len(STATES) == 3456
    e = _test(WIDE)
    canon = Canon(SPACE.decls)
    true, false, fails = _strict_masks(e, STATES)
    assert true and false and not fails
    assert canon.lit_models((False, e)) == true
    assert canon.lit_models((True, e)) == false


def test_wide_literal_is_read_by_one_strict_pass(monkeypatch):
    passes = _counting_passes(monkeypatch)
    _assert_levels_match(GainEvaluator(STATES), _test(WIDE), None)
    assert passes == [len(STATES)]


# x = 0 shields the right factor, whose A[n] fails at n = 3; the factors
# take 217 and 24 values, 5208 pairs over 3456 states
WIDE_PRODUCT = (
    "(x * (1 + n + 4 * A[0] + 12 * A[1] + 36 * A[2]))"
    " * (x + 4 * A[n] + 12 * [b])"
)


def test_wide_shielded_atom_is_computed_by_one_pass(monkeypatch):
    e = _numeric(WIDE_PRODUCT)
    ev = GainEvaluator(STATES)
    left, right = (ev._levels(f, total=True)[0] for f in (e.left, e.right))
    assert (len(left), len(right)) == (217, 24)
    passes = _counting_passes(monkeypatch)
    assert ev.column(e) == [ref.atom(e, s) for s in STATES]
    # the pass reads neither the shielded states nor the failing ones
    assert passes == [sum(s.get("x") != 0 and s.get("n") < 3 for s in STATES)]


# A is a different rotation of (0, 1, 2) on each state where A[n] is read,
# so the element tables hold 9 levels over 4 states; A[n] still unions
# the tables its index reads, since that costs no more than their sizes
ROTATED = [
    s
    for s in STATES
    if (s.get("A"), s.get("n"))
    in {((0, 1, 2), 0), ((1, 2, 0), 1), ((2, 0, 1), 2), ((0, 0, 0), 3)}
    and s.get("x") == 0
    and not s.get("b")
    and s.get("B") == (False, False)
]


def test_wide_array_read_unions_its_element_tables(monkeypatch):
    assert len(ROTATED) == 4
    passes = _counting_passes(monkeypatch)
    _assert_levels_match(GainEvaluator(ROTATED), _numeric("A[n]"), None)
    assert passes == []


# the item takes 144 values, and the bounds 3 and 4 inside 0..3: 5184 pairs
# of level and element over 3456 states; n - 1 fails as a bound at n = 0
WIDE_MEMBER = "4 * x + n + 16 * A[0] + 48 * A[1] - 140 in A[n - 1:x]"


def test_wide_membership_is_computed_by_one_pass(monkeypatch):
    passes = _counting_passes(monkeypatch)
    e = _test(WIDE_MEMBER)
    ev = GainEvaluator(STATES)
    _assert_levels_match(ev, e, None)
    levels, fails = ev._levels(e)
    assert levels.keys() == {True, False} and fails
    assert passes == [sum(s.get("n") != 0 for s in STATES)]


# ---- masks read and built bit by bit


@pytest.mark.parametrize("count", [0, 1, 5, 63, 64, 65, 200, 4096])
def test_sparse_masks_are_read_and_built_bit_by_bit(count, monkeypatch):
    # over 4096 states a mask with fewer than 64 bits set skips its 0/1
    # column both ways, so spreading many small levels costs no pass each
    n = 4096
    positions = sorted(random.Random(count).sample(range(n), count))
    mask = sum(1 << i for i in positions)
    calls = []
    bits, pack = gain._bits, gain._pack
    monkeypatch.setattr(gain, "_bits", lambda m, k: calls.append("bits") or bits(m, k))
    monkeypatch.setattr(gain, "_pack", lambda b: calls.append("pack") or pack(b))
    assert gain._at(positions, n) == mask
    assert sorted(gain._ones(mask, n)) == positions
    assert calls == ([] if count * gain._SPARSE < n else ["pack", "bits"])
