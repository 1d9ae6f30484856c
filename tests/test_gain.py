"""Gain evaluation, canonical normal forms, and the algebra battery."""

import glob
import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra
import reference_eval as ref
import soundness
from kuifje.core import (
    Space,
    State,
    all_states,
    avg,
    dist_from_entries,
    hyper_reduce,
    point,
    uniform,
)
from kuifje.errors import NegativeAtom
from kuifje.gain import (
    Canon,
    GainEvaluator,
    eval_atom_total,
    eval_bool_total,
    eval_gain,
    eval_gain_hyper,
    normalize,
    random_weights,
    semantic_eq,
    semantic_le,
    simplify,
)
from kuifje.lang import (
    BoolLit,
    GAnd,
    GAtom,
    GMax,
    GPlus,
    GQuantMax,
    Idx,
    Iverson,
    Var,
    check_program,
    parse_expr,
    parse_gain,
    parse_program,
    subst_gain,
)
from kuifje.wp import WpEngine

F = Fraction

SRC = """\
hidden a : bool
hidden b : bool
hidden x : int[0..9]
hidden n : int[0..3]
skip
"""
PROG = parse_program(SRC)
check_program(PROG)
DECLS = PROG.decls


def dist_ax(weights):
    """Distribution over (a, x) with x in 0..3, a alternating."""
    states = [State(("a", "x"), (bool(i % 2), i % 4)) for i in range(len(weights))]
    total = sum(weights)
    return dist_from_entries(
        [(s, F(w, total)) for s, w in zip(states, weights) if w]
    )


# ---- canonical rendering


@pytest.mark.parametrize(
    "source,canonical",
    [
        ("[x >= 3]", "[x >= 3]"),
        ("[not (x < 3)]", "[x >= 3]"),
        ("[n + 1 = 3]", "[n = 2]"),
        ("[3 = x]", "[x = 3]"),
        ("[x = x]", "1"),
        ("[x != x]", "0"),
        ("[a or not a]", "1"),
        ("[b or a]", "[a or b]"),
        ("[a and b or a and not b]", "[a]"),
        ("[x > 2 and x >= 3]", "[x >= 3]"),
        ("[a] AND [b]", "[a and b]"),
        ("[a] AND ([b] PLUS [not b])", "[a]"),
        ("[a] PLUS [not a]", "1"),
        ("[x = 3] PLUS [x = 4]", "[x = 3 or x = 4]"),
        ("2 * [a] PLUS [a]", "3 * [a]"),
        ("1/2 * [a] MAX [a]", "[a]"),
        ("[x = 1] MAX [x = 1]", "[x = 1]"),
        ("[n < 2] MAX [n >= 2] MAX [n = 1]", "[n < 2] MAX [n >= 2]"),
        ("MAX w in 0..2: [n = w]", "[n = 0] MAX [n = 1] MAX [n = 2]"),
        ("max(x, 3) AND [a]", "[a] * max(3, x)"),
        ("x + n", "n + x"),
        ("0", "0"),
    ],
)
def test_canonical_render(source, canonical):
    assert simplify(parse_gain(source), DECLS).render() == canonical


def test_render_is_reparseable_and_stable():
    for text in [
        "[a or b] MAX [a or not b]",
        "x AND [a] PLUS [not a]",
        "MAX w in 0..3: [n = w] PLUS 1/2 * [a]",
    ]:
        nf = simplify(parse_gain(text), DECLS)
        again = simplify(parse_gain(nf.render()), DECLS)
        assert again.render() == nf.render()


# ---- evaluation against an independent strategy enumeration
#
# A strategy resolves every MAX (and quantifier) choice up front; the value of
# a gain on a distribution is the best strategy's expected score.  The
# package's recursive evaluator must agree with enumerating all strategies.


def strategies(g, env):
    if isinstance(g, GAtom):
        return [lambda s, e=dict(env), x=g.expr: ref.atom(x, s, e)]
    if isinstance(g, GMax):
        return strategies(g.left, env) + strategies(g.right, env)
    if isinstance(g, GPlus):
        return [
            (lambda s, f=f, h=h: f(s) + h(s))
            for f in strategies(g.left, env)
            for h in strategies(g.right, env)
        ]
    if isinstance(g, GQuantMax):
        out = []
        for v in g.values:
            out.extend(strategies(g.body, dict(env, **{g.var: v})))
        return out
    # GAnd
    return [
        (lambda s, f=f, e=dict(env), x=g.scalar: ref.atom(x, s, e) * f(s))
        for f in strategies(g.body, env)
    ]


def brute_eval(g, dist):
    return max(
        sum(p * f(s) for s, p in dist.entries) for f in strategies(g, {})
    )


@pytest.mark.parametrize("case", range(25))
def test_eval_matches_strategy_enumeration(case):
    rng = random.Random(900 + case)
    g = algebra.rand_gain(rng, 2)
    weights = [rng.randint(0, 9) for _ in range(6)]
    if not any(weights):
        weights[0] = 1
    d = dist_ax(weights)
    assert eval_gain(g, d) == brute_eval(g, d)


def test_eval_gain_hand_computed():
    # on a point state, MAX takes the best branch and PLUS adds
    s = State(("a", "x"), (True, 2))
    g = parse_gain("[a] PLUS [x = 2] MAX 3 * [x = 0]")
    assert eval_gain(g, point(s)) == 2
    # on a mixture, MAX commits once, PLUS decides per branch independently
    d = dist_from_entries(
        [
            (State(("a", "x"), (True, 0)), F(1, 2)),
            (State(("a", "x"), (False, 2)), F(1, 2)),
        ]
    )
    g2 = parse_gain("[a] MAX [x = 2]")
    assert eval_gain(g2, d) == F(1, 2)
    g3 = parse_gain("[a] PLUS [x = 2]")
    assert eval_gain(g3, d) == 1


def test_eval_gain_hyper_is_weighted_average():
    d1 = dist_ax([1, 1])
    d2 = dist_ax([0, 1, 2, 3])
    g = parse_gain("MAX w in 0..3: [x = w]")
    h = hyper_reduce([(d1, F(1, 3)), (d2, F(2, 3))])
    expect = F(1, 3) * eval_gain(g, d1) + F(2, 3) * eval_gain(g, d2)
    assert eval_gain_hyper(g, h) == expect


def test_quantifier_binds_and_shadows_nothing():
    d = dist_ax([1, 2, 3, 4])
    g = parse_gain("MAX w in 0..3: w * [x = w]")
    vals = [v * d.expectation(lambda s, v=v: s.get("x") == v) for v in range(4)]
    assert eval_gain(g, d) == max(vals)


# ---- total atom semantics: runtime errors zero out the atom


def test_atom_division_by_zero_contributes_zero():
    s = State(("n", "x"), (0, 5))
    assert eval_atom_total(parse_expr("x div n"), s) == 0
    assert eval_atom_total(parse_expr("[x div n = 2]"), s) == 0
    s2 = State(("n", "x"), (2, 5))
    assert eval_atom_total(parse_expr("x div n"), s2) == 2


def test_atom_index_out_of_bounds_contributes_zero():
    s = State(("A", "n"), ((1, 2, 3), 3))
    assert eval_atom_total(parse_expr("[A[n] = 1]"), s) == 0
    # a failing test is false under either polarity
    for text in ("A[n] = 1", "A[n] != 1", "not (A[n] = 1)", "not (A[n] < 1 or n = 0)"):
        assert eval_bool_total(parse_expr(text), s) is False
    assert eval_bool_total(parse_expr("not (A[n] = 1 and n = 0)"), s) is True


PROBE = """\
hidden A : array[2] of int[0..1]
hidden n : int[0..2]
hidden B : array[2] of bool
skip
"""


@pytest.mark.parametrize(
    "text",
    [
        "[A[n] != 1] MAX [n = 2]",
        "[not (A[n] = 1)] MAX [n = 2]",
        "[not (A[n] < 1)]",
        "[B[n] = false]",
        "[not (B[n] or A[n] = 0)] PLUS [n != 0]",
    ],
)
def test_simplify_keeps_value_where_a_test_fails(text):
    p = parse_program(PROBE)
    check_program(p)
    g = parse_gain(text)
    simple = simplify(g, p.decls).as_gain()
    names = tuple(d.name for d in p.decls)
    for s in all_states(names, [d.domain for d in p.decls]):
        assert eval_gain(simple, point(s)) == eval_gain(g, point(s)), s


def test_multiplication_short_circuits_zero_left_factor():
    # the guard factor keeps the partial term from poisoning the atom
    s = State(("n", "x"), (0, 5))
    assert eval_atom_total(parse_expr("[n != 0] * (x div n)"), s) == 0
    s2 = State(("n", "x"), (2, 5))
    assert eval_atom_total(parse_expr("[n != 0] * (x div n)"), s2) == 2


def test_negative_atom_raises():
    d = dist_from_entries([(State(("x",), (0,)), F(1))])
    with pytest.raises(NegativeAtom):
        eval_gain(parse_gain("x - 1"), d)


def test_negative_atom_names_the_least_failing_state():
    # x - 2 is negative at x = 0 and x = 1; an evaluator over the states out
    # of order, valuing a support that lists x = 1 first, still names x = 0,
    # as a support in state order does
    p = parse_program("hidden x : int[0..3]\nskip\n")
    states = all_states(("x",), [d.domain for d in p.decls])
    shuffled = [states[3], states[1], states[0], states[2]]
    g = parse_gain("x - 2")
    messages = []
    for ev in (GainEvaluator(states), GainEvaluator(shuffled)):
        with pytest.raises(NegativeAtom) as exc:
            ev.weighted_value(g, [(i, 1) for i in range(4)], 4)
        messages.append(str(exc.value))
    assert messages[1] == messages[0]
    assert messages[0].endswith(f"on {states[0]!r}")


# ---- normal forms and pruning


def test_normalize_expands_to_max_of_atoms():
    nf = normalize(parse_gain("([a] MAX [b]) PLUS [n = 0]"), DECLS)
    rendered = nf.render()
    assert " MAX " in rendered
    assert semantic_eq(
        nf.as_gain(), parse_gain("([a] MAX [b]) PLUS [n = 0]"), DECLS
    )


def test_simplify_prunes_dominated_atoms():
    nf = simplify(parse_gain("[a] MAX [a and b] MAX 1/2"), DECLS)
    assert nf.render() == "1/2 MAX [a]"


# a zero left factor shields a failing right one: at b = 0 and n = 2, z[n]
# is past the end, and 1 + b * z[n] is 1, above 2 * [n < 2]
SHIELDED = """\
hidden b : int[0..1]
hidden z : array[2] of int[0..1]
hidden n : int[0..2]
skip
"""


def test_simplify_keeps_an_atom_whose_zero_factor_shields_a_failing_read():
    p = parse_program(SHIELDED)
    check_program(p)
    g = parse_gain("(1 + b * z[n]) MAX 2 * [n < 2]")
    nf = simplify(g, p.decls)
    assert nf.render() == "1 + b * z[n] MAX 2 * [n < 2]"
    assert semantic_eq(nf.as_gain(), g, p.decls)


def test_canon_lists_no_states(monkeypatch):
    # predicates and atoms are decided on masks over the declared index, so
    # the Canon lists no row of its space and builds no State
    import kuifje.gain

    def refuse(*args):
        raise AssertionError("the declared space was listed")

    monkeypatch.setattr(kuifje.gain, "all_states", refuse)
    monkeypatch.setattr(State, "__init__", refuse)
    canon = Canon(DECLS)
    nf = simplify(parse_gain("[a] MAX [a and b] MAX 1/2"), DECLS, canon)
    assert nf.render() == "1/2 MAX [a]"
    assert simplify(parse_gain("[x = 1] MAX [n = 2]"), DECLS, canon).render() == (
        "[n = 2] MAX [x = 1]"
    )
    assert "rows" not in vars(canon.space)


def test_normalize_keeps_dominated_atoms():
    nf = normalize(parse_gain("[a] MAX [a and b]"), DECLS)
    assert nf.render() == "[a and b] MAX [a]"
    assert simplify(parse_gain("[a] MAX [a and b]"), DECLS).render() == "[a]"


def test_wide_normal_form_stays_clear_of_the_recursion_limit():
    # 1200 atoms as a MAX chain would be 1200 levels deep, past the default
    # limit for every walker of the gain
    p = parse_program("hidden x : int[0..1199]\nhidden y : int[0..1]\ny := 0")
    check_program(p)
    canon = Canon(p.decls)
    nf = simplify(parse_gain("MAX w in 0..1199: [x = w]"), p.decls, canon)
    assert len(nf.atoms) == 1200
    prior = uniform([State(("x", "y"), (w, 0)) for w in range(3)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        g = nf.as_gain()
        assert simplify(g, p.decls, canon) == nf
        assert eval_gain(g, prior) == F(1, 3)
        assert simplify(subst_gain(g, "y", parse_expr("0")), p.decls, canon) == nf
    finally:
        sys.setrecursionlimit(limit)


def test_canon_memoises_sums_and_products():
    canon = Canon(DECLS)
    a = canon.atom_of(parse_gain("[a] * x").expr)
    b = canon.atom_of(parse_gain("[n = 1] + 1/2").expr)
    finalized = []
    real = canon._finalize

    def counting(terms):
        finalized.append(1)
        return real(terms)

    canon._finalize = counting
    assert canon.atom_add(a, b) is canon.atom_add(a, b)
    assert canon.atom_mul(a, b) is canon.atom_mul(a, b)
    canon.atom_add(b, a)
    # three distinct (combiner, pair) calls; the repeats are lookups
    assert len(finalized) == 3


def test_canon_prune_returns_a_fresh_list():
    canon = Canon(DECLS)
    atoms = [canon.atom_of(parse_gain(s).expr) for s in ("[a]", "[a and b]", "1/2")]
    first = canon.prune(atoms)
    expected = list(first)
    first.clear()
    assert canon.prune(atoms) == expected
    assert len(expected) == 2


def test_simplify_on_a_warm_canon_matches_a_fresh_one():
    # the engine's Canon has memoised every combination the unfolding made
    p = soundness.program("search_with_flag.kuif")
    engine = WpEngine(p)
    pre = engine.wp(p.body, p.post)
    warm = simplify(pre, p.decls, engine.canon)
    assert warm.render() == simplify(pre, p.decls, Canon(p.decls)).render()
    assert simplify(pre, p.decls, engine.canon).render() == warm.render()
    assert warm.render() == "[A[0] = x or A[1] = x or A[2] = x]"


def test_simplify_idempotent_on_corpus_posts():
    corpus = sorted(
        glob.glob(
            os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "*.kuif")
        )
    )
    seen = 0
    for path in corpus:
        with open(path) as f:
            p = parse_program(f.read())
        check_program(p)
        if p.post is None:
            continue
        seen += 1
        nf = simplify(p.post, p.decls)
        again = simplify(nf.as_gain(), p.decls)
        assert again.render() == nf.render(), path
    assert seen >= 12


def test_simplified_and_shared_evaluations_agree_with_one_shot():
    rng = random.Random(7)
    g = parse_gain(
        "(MAX w in 0..9: [x = w]) MAX 1/2 * [a] PLUS [n = 1] MAX x AND [b]"
    )
    nf_gain = simplify(g, DECLS).as_gain()
    states = all_states([d.name for d in DECLS], [d.domain for d in DECLS])
    shared = GainEvaluator(states)
    for trial in range(20):
        support = rng.sample(states, rng.randint(1, 12))
        weights = [rng.randint(1, 9) for _ in support]
        total = sum(weights)
        d = dist_from_entries(
            [(s, F(w, total)) for s, w in zip(support, weights)]
        )
        expect = eval_gain(g, d)
        assert eval_gain(nf_gain, d) == expect
        # one evaluator, reused across supports of differing shape
        assert shared.value(g, d) == expect
        assert shared.value(nf_gain, d) == expect


def test_shielded_negative_atom_is_not_reported():
    # [x != 0] guards x - 1, whose value -1 at x = 0 carries multiplier 0;
    # valuing on a prior and comparing on all priors must agree on that
    p = parse_program("hidden x : int[0..3]\nskip\n")
    check_program(p)
    g = parse_gain("[x != 0] AND (x - 1)")
    assert eval_gain(g, point(State(("x",), (0,)))) == 0
    assert semantic_le(g, g, p.decls)
    assert semantic_eq(g, g, p.decls)


def test_zero_guard_leaves_its_body_unread():
    # an unchecked gain whose body reads the quantifier index i outside any
    # binder, behind a guard that is 0 on every state: the body is not read
    p = parse_program("hidden A : array[2] of int[0..1]\nhidden n : int[0..2]\nskip\n")
    check_program(p)
    g = GAnd(Iverson(BoolLit(False)), GAtom(Idx("A", Var("i"))))
    states = all_states(("A", "n"), [d.domain for d in p.decls])
    ev = GainEvaluator(states)
    assert ev.vectors(g) == []
    assert ev.value(g, uniform(states)) == 0
    assert semantic_eq(g, parse_gain("0"), p.decls)


def test_semantic_le_strict_cases():
    assert semantic_le(parse_gain("[a and b]"), parse_gain("[a]"), DECLS)
    res = semantic_le(parse_gain("[a]"), parse_gain("[a and b]"), DECLS)
    assert not res
    assert res.counterexample is not None
    assert res.left > res.right


def test_semantic_eq_reports_counterexample():
    res = semantic_eq(parse_gain("[a]"), parse_gain("[b]"), DECLS)
    assert not res
    assert res.left != res.right


X4 = parse_program("hidden x : int[0..3]\nskip\n")
check_program(X4)


def test_semantic_le_finds_a_violation_only_on_the_uniform_prior():
    # 251/1000 is under every point value 1 and over no other prior but the
    # uniform one, whose best guess is worth 1/4
    res = semantic_le(
        parse_gain("251/1000"), parse_gain("MAX w in 0..3: [x = w]"), X4.decls
    )
    assert not res
    assert res.counterexample == uniform(
        [State(("x",), (v,)) for v in range(4)]
    )
    assert (res.left, res.right) == (F(251, 1000), F(1, 4))


def test_semantic_eq_holds_when_an_atom_lies_under_the_hull():
    # 1/2 * [x = 0 or x = 1] is the average of the two guesses: it lowers no
    # value, although no single guess dominates it
    g = parse_gain("[x = 0] MAX [x = 1] MAX 1/2 * [x = 0 or x = 1]")
    h = parse_gain("[x = 0] MAX [x = 1]")
    assert semantic_eq(g, h, X4.decls)
    assert semantic_le(g, h, X4.decls)


def test_semantic_eq_reports_a_mixed_counterexample():
    # 3/5 * [x = 0 or x = 1] is under both guesses on every point prior and
    # over both on the even mixture of x = 0 and x = 1
    g = parse_gain("[x = 0] MAX [x = 1] MAX 3/5 * [x = 0 or x = 1]")
    h = parse_gain("[x = 0] MAX [x = 1]")
    for res in (semantic_eq(g, h, X4.decls), semantic_le(g, h, X4.decls)):
        assert not res
        assert len(res.counterexample.support()) == 2
        assert res.left > res.right
        assert eval_gain(g, res.counterexample) == res.left
        assert eval_gain(h, res.counterexample) == res.right
    assert semantic_le(h, g, X4.decls)
    res = semantic_eq(h, g, X4.decls)
    assert res.left < res.right


XY = parse_program("hidden x : int[0..3]\nhidden y : int[0..2]\nskip\n")
check_program(XY)
SHARED_CASES = {
    # 1/3 * [y = 0] is 0 on the compared states, and a vector elsewhere
    "holds": (
        "[x = 0] MAX [x = 1] MAX 1/2 * [x = 0 or x = 1] MAX 1/3 * [y = 0]",
        "[x = 0] MAX [x = 1] MAX [y = 2 and x = 3]",
    ),
    "point prior": ("[x < 2] MAX 1/3 * [y = 0]", "1/2 * [y != 0]"),
    "mixed prior": (
        "[x = 0] MAX [x = 1] MAX 3/5 * [x = 0 or x = 1]",
        "[x = 0] MAX [x = 1] MAX 2 * [y = 0]",
    ),
}


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_a_shared_evaluator_decides_as_the_compared_states_alone(case):
    # the states with y = 1, out of canonical order, read by their indices
    # on an evaluator over all 12 states, listed or as the declared space:
    # the decision, counterexample and values are the one-shot call's on
    # those states alone
    names, domains = ("x", "y"), [d.domain for d in XY.decls]
    space = all_states(names, domains)
    at = [i for i in reversed(range(len(space))) if space[i].get("y") == 1]
    compared = [space[i] for i in at]
    g, h = map(parse_gain, SHARED_CASES[case])
    for ev in (GainEvaluator(space), GainEvaluator(Space(names, domains))):
        for decide in (semantic_eq, semantic_le):
            for left, right in ((g, h), (h, g)):
                alone = decide(left, right, XY.decls, states=compared)
                shared = decide(left, right, XY.decls, states=at, evaluator=ev)
                assert shared == alone, (decide, left, right)
        res = semantic_eq(g, h, XY.decls, states=at, evaluator=ev)
        assert bool(res) == (case == "holds")
        if not res:
            support = res.counterexample.support()
            assert len(support) == (1 if case == "point prior" else 2)
            assert all(s.get("y") == 1 for s in support)
        # without `states`, the evaluator's own states are compared
        assert semantic_eq(g, h, XY.decls, evaluator=ev) == semantic_eq(
            g, h, XY.decls
        )


def test_annotation_groups_share_one_evaluator(load_program, monkeypatch):
    # deciding every loop-head group of the full scan reads each variable
    # and array element table once, from the Canon's evaluator
    builds = Counter()
    table = GainEvaluator._table

    def counting(self, k, j=None):
        if (k, j) not in self._tables:
            builds[k, j] += 1
        return table(self, k, j)

    monkeypatch.setattr(GainEvaluator, "_table", counting)
    engine = WpEngine(load_program("search_full_scan"))
    (loop,) = [
        s for s in engine.program.body.stmts if getattr(s, "invariant", None)
    ]
    assert len(engine._loop_head_groups(loop)) > 1
    engine.wp_program()
    assert builds and set(builds.values()) == {1}


def test_random_weights_draw_the_randint_stream():
    # every `check --priors random` output depends on this stream: each
    # weight is the next `randint(0, 16)`, and an all-zero vector is drawn
    # again
    def reference(n, rng):
        while True:
            w = [rng.randint(0, 16) for _ in range(n)]
            if any(w):
                return w

    seeds = range(40)
    # a one-state vector comes out 0 first on some seed, so the retry runs
    assert any(random.Random(seed).randint(0, 16) == 0 for seed in seeds)
    for n in (1, 2, 7, 1024):
        for seed in seeds:
            got, want = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_weights(n, got) == reference(n, want), (n, seed)
            assert got.getstate() == want.getstate()


def test_compare_result_describes_a_violation_and_a_hold(load_program):
    # the best guess at x is worth 1 on a point prior, over 1/2; it is worth
    # at least 1/10 on every prior, over 1/20
    decls = load_program("threshold_print").decls
    guess = parse_gain("MAX w in 0..9: [x = w]")
    res = semantic_le(guess, parse_gain("1/2"), decls)
    assert res.describe() == "violated on Dist({{x=0}: 1}): left = 1, right = 1/2"
    assert semantic_le(parse_gain("1/20"), guess, decls).describe() == "holds"


# ---- the algebra battery (the acceptance suite re-runs this at full size)


def test_algebra_battery():
    checks, violations = algebra.run_battery(cases=25)
    assert checks >= 250
    assert violations == []


# ---- hypothesis: evaluation is affine in the distribution, per strategy


@given(
    w1=st.lists(st.integers(0, 9), min_size=4, max_size=4).filter(any),
    w2=st.lists(st.integers(0, 9), min_size=4, max_size=4).filter(any),
)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_max_is_convex_plus_is_linear(w1, w2):
    d1, d2 = dist_ax(w1), dist_ax(w2)
    mix = avg(hyper_reduce([(d1, F(1, 3)), (d2, F(2, 3))]))
    g = parse_gain("[a] MAX [x = 2] MAX 1/2 * [x < 2]")
    # MAX of atoms is convex: mixing can only lose value
    assert eval_gain(g, mix) <= F(1, 3) * eval_gain(g, d1) + F(2, 3) * eval_gain(
        g, d2
    )
    a = parse_gain("x PLUS 2 * [a]")
    # a single strategy (no MAX) is affine: mixing is exact
    assert eval_gain(a, mix) == F(1, 3) * eval_gain(a, d1) + F(2, 3) * eval_gain(
        a, d2
    )
