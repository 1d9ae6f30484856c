"""`Canon`'s bulk kernels against plain definitions.

- DNF minimisation on cached conjunction masks returns the same frozenset as
  the candidate-by-candidate reference (`reference_minimize.py`), on every
  DNF that `wp` minimises on the corpus and on generated DNFs.
- A literal atom's level set gives both polarities: the two masks are
  disjoint, and outside their union lie exactly the failing reads.
- An atom's level set, expanded, equals the reference evaluator's total
  value (`reference_eval.atom`) state by state, for factorless terms, factor
  terms, sums, negative coefficients and a zero factor that shields a
  failing read.
- Merging terms into an atom (`Canon._finalize`) returns the same interned
  atom as the merge it replaced (`reference_finalize.py`), on every term
  list `wp` merges on the corpus and on generated lists drawn from few
  coefficients and factor lists, so that a bucket holds several terms.
- A MAX tree is squeezed by one prune.
- Pruning on level sets returns the same list as a reference that values
  atoms as `GainEvaluator` columns and compares every pair
  (`reference_prune.py`): on generated atom lists with many vectors per sum,
  negative coefficients and factor terms, and on every call `wp` makes on
  the corpus.
"""

import glob
import importlib
import operator
import os
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_eval as ref
from kuifje.core import all_states
from kuifje.gain import Canon, _levels_le, _pointwise_le, _Term, balanced, simplify
from kuifje.lang import (
    EVAL_ERRORS,
    GAtom,
    GMax,
    check_program,
    compile_expr,
    parse_expr,
    parse_gain,
    parse_program,
)
from kuifje.wp import WpConfig, WpEngine
from reference_finalize import reference_finalize
from reference_minimize import ReferenceMinimizer
from reference_prune import atom_values, reference_prune

# the module, which the package shadows with its `wp` function
kuifje_wp = importlib.import_module("kuifje.wp")

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


def _wp_run(name, force_unfold, method="_minimize"):
    """The engine's Canon after `wp` on a corpus program, and each argument
    its `method` (minimisation unless named) was given, with the result.

    `wp` decides a loop annotation's equation as written, so the run also
    simplifies both sides of the equation wherever `wp` decides it: an
    annotated loop's body and exit side then still reach the minimiser (the
    Canon's memos make each repeat free)."""
    engine = WpEngine(_corpus(name), WpConfig(force_unfold=force_unfold))
    canon = engine.canon
    calls = []
    real = getattr(canon, method)
    decide = kuifje_wp.semantic_eq

    def recording(arg):
        out = real(arg)
        calls.append((arg, out))
        return out

    def simplifying(lhs, rhs, *args, **kwargs):
        simplify(lhs, engine.decls, canon)
        simplify(rhs, engine.decls, canon)
        return decide(lhs, rhs, *args, **kwargs)

    setattr(canon, method, recording)
    kuifje_wp.semantic_eq = simplifying
    try:
        engine.wp_program()
    finally:
        kuifje_wp.semantic_eq = decide
        delattr(canon, method)
    return canon, calls


def _run_id(run):
    name, force_unfold = run
    return name + (" --force-unfold" if force_unfold else "")


# ---- minimisation and polarities on the corpus


def _failing_reads(canon, atom):
    fn = compile_expr(atom, canon.names)
    mask = 0
    for i, row in enumerate(canon.space.rows):
        try:
            fn(row, None)
        except EVAL_ERRORS:
            mask |= 1 << i
    return mask


def _assert_polarities(canon, atom):
    pos = canon.lit_models((False, atom))
    neg = canon.lit_models((True, atom))
    assert pos & neg == 0
    assert canon.full ^ (pos | neg) == _failing_reads(canon, atom)


def test_posted_corpus_is_the_fifteen():
    assert len(POSTED) == 15


@pytest.mark.parametrize("name, force_unfold", RUNS, ids=list(map(_run_id, RUNS)))
def test_minimize_and_polarities_on_corpus(name, force_unfold):
    canon, calls = _wp_run(name, force_unfold)
    assert calls
    reference = ReferenceMinimizer(canon)
    for dnf, out in calls:
        assert out == reference.minimize(dnf), canon.pred_render(dnf)
    # both polarities of every literal the run decided
    atoms = {atom for _, atom in canon._lit_model_cache}
    assert atoms
    for atom in atoms:
        _assert_polarities(canon, atom)


def test_corpus_minimisation_drops_literals_and_disjuncts():
    # the differential test sees real work, not only constant DNFs
    _, calls = _wp_run("search_with_flag.kuif", False)
    sizes = [(sum(map(len, dnf)), sum(map(len, out))) for dnf, out in calls]
    assert sum(1 for before, after in sizes if 0 < after < before) > 100


SPACE = _program(
    """\
hidden b : bool
hidden x : int[0..3]
hidden y : int[0..3]
hidden A : array[2] of int[0..2]
skip
"""
)
SPACE_CANON = Canon(SPACE.decls)
TESTS = [
    "b",
    "x = 1",
    "x = 3",
    "y = 0",
    "x < 2",
    "y <= x",
    "x + 1 = y",
    "A[x] = y",
    "A[y] = 1",
    "A[0] = x",
    "y in A",
    "b = (x < y)",
]
# each test and its negation as one canonical literal (A[x] and A[y] read
# out of bounds at 2 and 3)
LITERALS = [
    lit
    for src in TESTS
    for neg in (False, True)
    for (lit,) in SPACE_CANON.to_dnf(parse_expr(src), neg)
]

conjunctions = st.frozensets(st.sampled_from(LITERALS), min_size=0, max_size=4)
dnfs = st.frozensets(conjunctions, min_size=1, max_size=6)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(dnfs)
def test_minimize_matches_reference_on_generated_dnfs(dnf):
    assert len(SPACE_CANON.space.rows) == 288
    expected = ReferenceMinimizer(SPACE_CANON).minimize(dnf)
    assert SPACE_CANON._minimize(dnf) == expected


# ---- term merging


def _assert_finalize_matches(canon, terms, out):
    expected = reference_finalize(canon, terms)
    assert out == expected, canon.atom_render(out)
    assert canon._intern[expected] is out


@pytest.mark.parametrize("name, force_unfold", RUNS, ids=list(map(_run_id, RUNS)))
def test_finalize_matches_reference_on_corpus(name, force_unfold):
    canon, calls = _wp_run(name, force_unfold, "_finalize")
    assert calls
    for terms, out in calls:
        _assert_finalize_matches(canon, terms, out)


def test_corpus_finalize_merges_disjoint_terms():
    # the differential test sees buckets of several terms, and merges
    canon, calls = _wp_run("search_with_flag.kuif", False, "_finalize")
    merged = [
        (terms, out) for terms, out in calls
        if len({(t.coeff, t.factors) for t in terms if t.coeff}) < len(terms)
    ]
    assert len(merged) > 50
    assert any(len(out) < len(terms) for terms, out in merged)


def _canon_terms(src):
    return SPACE_CANON._terms_of(parse_expr(src))


# one bucket: every drawn term is c * [p] * F for c and F from short lists,
# with predicates that are disjoint (x = 0, x = 1), overlapping (x < 2,
# y <= x), equal in value but written apart (x = 3, not x < 3), true,
# contradictory, or a read that fails (A[x] = y); coefficients that cancel;
# and factors whose reads fail where x or y is past A's end
FINALIZE_PREDS = [None] + [
    SPACE_CANON.to_dnf(parse_expr(src))
    for src in (
        "x = 0", "x = 1", "x < 2", "y <= x", "x = 3", "not x < 3", "b or x = 0",
        "b and not b", "A[x] = y", "x = 0 or x = 1", "true",
    )
]
FINALIZE_FACTORS = [
    (),
    tuple(f for (t,) in [_canon_terms("A[x]")] for f in t.factors),
    tuple(f for (t,) in [_canon_terms("x * A[y]")] for f in t.factors),
]
finalize_terms = st.lists(
    st.builds(
        _Term,
        st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(0)]),
        st.sampled_from(FINALIZE_PREDS),
        st.sampled_from(FINALIZE_FACTORS),
    ),
    max_size=8,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(finalize_terms)
def test_finalize_matches_reference_on_generated_terms(terms):
    _assert_finalize_matches(SPACE_CANON, terms, SPACE_CANON._finalize(terms))


# ---- work done once


def test_a_max_tree_is_squeezed_by_one_prune():
    canon = Canon(SPACE.decls)
    atoms = [
        parse_gain(f"[x = {i} and y = {j}] * (1 + x)").expr
        for i in range(4) for j in range(4)
    ]
    pruned = []
    prune = canon.prune

    def counting(atoms):
        pruned.append(len(atoms))
        return prune(atoms)

    canon.prune = counting
    g = balanced(GMax, [GAtom(a) for a in atoms])
    out = canon.normalize_gain(g, prune=True)
    assert pruned == [16]
    # the grouping does not matter: the flat list prunes to the same atoms
    del canon.prune
    assert out == canon.prune([canon.atom_of(a) for a in atoms])
    assert len(out) == 16


# ---- an out-of-bounds read


def test_out_of_bounds_read_is_false_under_both_polarities():
    canon = Canon(_corpus("search_early_exit.kuif").decls)
    ((lit,),) = canon.to_dnf(parse_expr("A[n] = x"))
    atom = lit[1]
    _assert_polarities(canon, atom)
    # n ranges over 0..3 and A has length 3: n = 3 reads past the end
    length = canon.domains["A"].length
    past = 0
    for i, row in enumerate(canon.space.rows):
        if row[canon.names.index("n")] == length:
            past |= 1 << i
    assert past
    assert canon.lit_models((False, atom)) & past == 0
    assert canon.lit_models((True, atom)) & past == 0
    assert _failing_reads(canon, atom) == past


# ---- level sets


@pytest.mark.parametrize("coeff", ["1", "3/4", "-2"])
@pytest.mark.parametrize("pred", [None, "[b or A[x] = y and x < 2]"])
def test_level_set_matches_total_values(coeff, pred):
    # c·[p] alone, with factors (one whose read fails where A[x] is out of
    # bounds, one where a zero left factor shields that read), and in sums
    # whose terms overlap
    canon = Canon(SPACE.decls)
    guarded = coeff if pred is None else f"{coeff} * {pred}"
    sources = [
        guarded,
        f"{guarded} * x",
        f"{guarded} * max(x, 2) * A[y]",
        f"{guarded} + [x < 2] - 1/2 * [y = 3]",
        f"{guarded} * y + x * [b] - A[x] div 2",
        f"{guarded} * max([x < 2] * A[x], y)",
    ]
    states = all_states(canon.names, list(canon.domains.values()))
    for source in sources:
        atom = canon.atom_of(parse_gain(source).expr)
        den, levels = canon.atom_levels(atom)
        values = [v for v, _ in levels]
        assert values == sorted(set(values)) and 0 not in values
        masks = [m for _, m in levels]
        assert all(m for m in masks)
        assert sum(m.bit_count() for m in masks) == (
            reduce(operator.or_, masks, 0).bit_count()
        )
        expanded = [0] * len(states)
        for v, m in levels:
            for i in range(len(states)):
                if m >> i & 1:
                    expanded[i] = Fraction(v, den)
        expr = canon.atom_expr(atom)
        assert expanded == [ref.atom(expr, s) for s in states], source
    (term,) = canon.atom_of(parse_gain(guarded).expr)
    assert term.coeff == Fraction(coeff) and not term.factors


def _levels_of(vector):
    # a tuple's level set, the plain way
    levels = {}
    for i, x in enumerate(vector):
        if x:
            levels[x] = levels.get(x, 0) | 1 << i
    return tuple(sorted(levels.items()))


small_vectors = st.lists(st.sampled_from([-2, -1, 0, 0, 1, 2, 3]), min_size=7, max_size=7)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(small_vectors, small_vectors)
def test_levels_le_matches_pointwise_comparison(v, w):
    # dominance by mask containment decides as entry-by-entry comparison,
    # negative values and zero sets included
    full = (1 << 7) - 1
    assert _levels_le(_levels_of(v), _levels_of(w), full) == _pointwise_le(v, w)


# ---- pruning


PRUNE_CANON = Canon(_program("hidden x : int[0..5]\nhidden b : bool\nskip").decls)
# tests that hold on the same states but render differently, so that equal
# vectors come from distinct atoms
PRUNE_TESTS = [
    "x = 0", "x < 1", "x <= 1", "x < 2", "x = 2", "x >= 4", "x = 5", "b", "not b"
]
PRUNE_COEFFS = ["1/2", "1", "3/2", "2", "-1", "-1/2"]
PRUNE_FACTORS = ["", "x", "max(x, 2)"]


def _prune_atom(terms):
    src = " + ".join(
        f"{c} * [{t}]" + (f" * {f}" if f else "") for c, t, f in terms
    )
    return PRUNE_CANON.atom_of(parse_gain(src or "0").expr)


prune_terms = st.lists(
    st.tuples(
        st.sampled_from(PRUNE_COEFFS),
        st.sampled_from(PRUNE_TESTS),
        st.sampled_from(PRUNE_FACTORS),
    ),
    max_size=3,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(prune_terms, min_size=1, max_size=40))
def test_prune_matches_reference_on_generated_atoms(terms):
    atoms = [_prune_atom(t) for t in terms]
    assert PRUNE_CANON.prune(atoms) == reference_prune(PRUNE_CANON, atoms)


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_prune_matches_reference_on_sets_of_one_size(size):
    # every set of `size` values of x as one atom: the vectors share one sum
    # and none dominates another, so many share a group
    wide = [
        _prune_atom([("1", " or ".join(f"x = {w}" for w in ws), "")])
        for ws in combinations(range(6), size)
    ]
    assert len({sum(atom_values(PRUNE_CANON, a)) for a in wide}) == 1
    # each single value lies under a set that holds it
    atoms = [_prune_atom([("1", f"x = {w}", "")]) for w in range(6)] + wide
    kept = PRUNE_CANON.prune(atoms)
    assert kept == reference_prune(PRUNE_CANON, atoms)
    assert sorted(map(id, kept)) == sorted(map(id, wide))


# ---- pruning on the corpus

PRUNE_RUNS = [
    (name, WpConfig(force_unfold=force_unfold), _run_id((name, force_unfold)))
    for name, force_unfold in RUNS
] + [
    (name, WpConfig(unsound_no_branch_leak=True), name + " --unsound-no-branch-leak")
    for name in POSTED
]


@pytest.mark.parametrize(
    "name, config", [r[:2] for r in PRUNE_RUNS], ids=[r[2] for r in PRUNE_RUNS]
)
def test_prune_matches_reference_on_corpus(name, config):
    """Every call `wp` makes to `Canon.prune` returns `reference_prune`'s
    list.  Each atom is valued once; its interned id stays its own for the
    Canon's life, and so does a repeated call's list of ids."""
    engine = WpEngine(_corpus(name), config)
    canon = engine.canon
    states = engine.executable.space.states()
    prune = canon.prune
    values, expected = {}, {}
    calls = []

    def atom(a):
        got = values.get(id(a))
        if got is None:
            got = values[id(a)] = atom_values(canon, a, states)
        return got

    def checking(atoms):
        out = prune(atoms)
        key = tuple(map(id, atoms))
        if key not in expected:
            expected[key] = reference_prune(canon, atoms, atom)
        assert out == expected[key]
        calls.append(key)
        return out

    canon.prune = checking
    engine.wp_program()
    assert calls
