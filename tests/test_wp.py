"""The backwards pre-gain transformer: rules, loops, and soundness."""

import gc
import io
import os
import random
import sys
import tempfile
import weakref
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import soundness
from kuifje.cli import _post_value, main
from kuifje.core import Dist, State, point, uniform
from kuifje.errors import (
    BoundTooSmall,
    IndexOutOfBounds,
    InvariantCheckFailed,
    KuifjeError,
    LoopBoundExceeded,
    LoopNeedsInvariantOrBound,
)
from kuifje.gain import (
    GainEvaluator,
    eval_atom_total,
    eval_gain,
    eval_gain_hyper,
    random_weights,
    semantic_eq,
    simplify,
)
from kuifje.lang import (
    MAX_DEPTH,
    check_gain,
    check_program,
    gain_to_source,
    parse_expr,
    parse_gain,
    parse_program,
    program_to_source,
    replace,
    subst_array_elem_gain,
    subst_gain,
)
from kuifje.semantics import Executable, classical_run, run
from kuifje.wp import WpConfig, WpEngine, classical_expectation, classical_wp, wp
from programs import generated_settings, posts, programs

F = Fraction


def make(src):
    p = parse_program(src)
    check_program(p)
    return p


# ---- structural rules, smallest programs that exercise each


def test_wp_skip_is_identity():
    p = make("hidden x : int[0..3]\nskip\n@post { MAX w in 0..3: [x = w] }")
    res = wp(p)
    assert res.render() == "[x = 0] MAX [x = 1] MAX [x = 2] MAX [x = 3]"


def _count_listings(monkeypatch):
    """The enumerations of a declared space (`Space.rows`) made from now
    on, as a list that grows; `all_states` is refused."""
    import kuifje.core
    import kuifje.gain

    listings, product = [], kuifje.core.product

    def counted(*domains):
        listings.append(len(domains))
        return product(*domains)

    def refuse(*args):
        raise AssertionError("all_states called")

    monkeypatch.setattr(kuifje.core, "product", counted)
    monkeypatch.setattr(kuifje.gain, "all_states", refuse)
    # `kuifje.wp` is the package's `wp` function, so the module is looked up
    monkeypatch.setattr(sys.modules["kuifje.wp"], "all_states", refuse)
    return listings


@pytest.mark.parametrize("stmt", ["skip", "print x mod 2"])
def test_wp_lists_the_declared_space_once(monkeypatch, stmt):
    # the canonicalizer and a print's values are read from masks over the
    # declared index, so a body with no loop lists no state at all
    listings = _count_listings(monkeypatch)
    p = make(f"hidden x : int[0..3]\n{stmt}\n@post {{ [x = 1] }}")
    assert wp(p).render() == "[x = 1]"
    assert listings == []


def test_an_annotation_check_lists_the_declared_space_once(monkeypatch, load_program):
    # the loop-head groups push the executable's rows, and the Canon reads
    # the same space, so the space is listed once
    listings = _count_listings(monkeypatch)
    engine = WpEngine(load_program("search_full_scan"))
    assert engine.canon.space is engine.executable.space
    engine.wp_program()
    assert listings == [len(engine.decls)]


def test_wp_assign_substitutes():
    p = make("hidden x : int[0..9]\nx := x div 2\n@post { [x = 1] }")
    assert wp(p).render() == "[x div 2 = 1]"


def test_wp_assign_array_element_blends():
    p = make(
        "hidden A : array[2] of int[0..3]\nhidden i : int[0..1]\n"
        "A[i] := 2\n@post { [A[0] = 2] }"
    )
    res = wp(p)
    # after the write, A[0] = 2 holds iff we wrote slot 0 or it already held
    d_hit = point(State(("A", "i"), ((0, 0), 0)))
    d_miss = point(State(("A", "i"), ((0, 0), 1)))
    d_already = point(State(("A", "i"), ((2, 0), 1)))
    assert eval_gain(res.pre, d_hit) == 1
    assert eval_gain(res.pre, d_miss) == 0
    assert eval_gain(res.pre, d_already) == 1


LEMMA_DECLS = "hidden A : array[2] of int[0..2]\nhidden n : int[0..2]\nhidden b : bool\n"

LEMMA_GAINS = [
    "[A[n] = 1]",
    "[A[n] != 1] MAX [n = 2]",
    "[not (A[n] < 1)] PLUS [b]",
    "[1 in A[n:]]",
    "[1 in A[:n + 1]] PLUS [0 notin A[n - 1:]]",
    "[2 notin A[:n]] MAX [n in A]",
    "[b] AND (A[1] PLUS [n = 0])",
    "MAX i in 0..2: [A[i] = n] PLUS [b]",
    "[n != 0] * (A[1] div n) MAX max(A[0], n) MAX min(n, A[1] + 1)",
    "[not (b and A[n] = 2)] AND (A[0] & n)",
    "[not (1 in A[n + 1:])]",
    "[not (0 notin A[n - 1:])] PLUS [not (2 in A[:n + 1])]",
    "[not (A[n] in A[1:1])] MAX [not (A[n] notin A[2:])]",
    "[b = (A[n] = 0)]",
    "[b = (A[n] = 0 and n < 2)]",
    "[not b = (A[n] = 1 or n = 2)] MAX [b != (not (A[n] = 1))]",
    "[b != (1 in A[n:])] PLUS [(n = 0) = (not b)]",
]

LEMMA_ASSIGNS = [
    "n := 2 - n",
    "n := A[n]",
    "n := (n + A[0]) mod 3",
    "b := A[n] = 1",
    "b := not b or n = 0",
    "A[n] := 2 - A[n]",
    "A[0] := n",
    "A[1] := A[n]",
    "A[n + 1] := 1",
]


@pytest.mark.parametrize("assign", LEMMA_ASSIGNS)
def test_substitution_lemma(assign):
    # the value of the substituted gain before the assignment, raw and
    # simplified, equals the value of the gain after it, on every state where
    # the assignment runs; the gains read out of bounds on some of those states
    p = make(LEMMA_DECLS + assign)
    stmt = p.body
    ex = Executable(p)
    cases = 0
    for text in LEMMA_GAINS:
        g = check_gain(parse_gain(text), p.decls)
        if stmt.index is None:
            pre = subst_gain(g, stmt.name, stmt.value)
        else:
            pre = subst_array_elem_gain(g, stmt.name, stmt.index, stmt.value, 2, False)
        simple = simplify(pre, p.decls).as_gain()
        for s in ex.space.states():
            try:
                after = ex.classical_run(point(s))
            except KuifjeError:
                continue
            want = eval_gain(g, after)
            assert eval_gain(pre, point(s)) == want, (text, s)
            assert eval_gain(simple, point(s)) == want, (text, s)
            cases += 1
    assert cases >= len(LEMMA_GAINS) * 18


def test_wp_print_splits_by_attained_value():
    p = make("hidden x : int[0..9]\nprint (x < 4)\n@post { [x = 3] }")
    # the false observation branch is identically zero and prunes away
    assert wp(p).render() == "[x = 3]"


@pytest.mark.parametrize(
    "printed, values, branches",
    [
        ("b", [False, True], "[b = false] AND [x = 1] PLUS [b = true] AND [x = 1]"),
        (
            "(x < 2 and b)",
            [False, True],
            "[(x < 2 and b) = false] AND [x = 1] PLUS [(x < 2 and b) = true] AND "
            "[x = 1]",
        ),
        # A[n] fails at n = 2: those states attain no value
        ("A[n] * 2", [2, 4], "[A[n] * 2 = 2] AND [x = 1] PLUS [A[n] * 2 = 4] AND [x = 1]"),
    ],
)
def test_wp_print_branches_on_each_attained_value(printed, values, branches):
    # a boolean's values are true and false, never 1 and 0
    p = make(
        "hidden b : bool\nhidden x : int[0..3]\nhidden A : array[2] of int[1..2]\n"
        f"hidden n : int[0..2]\nprint {printed}\n@post {{ [x = 1] }}"
    )
    engine = WpEngine(p)
    got = engine._attained(p.body.expr)
    assert got == values
    assert [type(v) for v in got] == [type(v) for v in values]
    assert gain_to_source(engine.wp(p.body, p.post)) == branches


def test_wp_print_that_fails_everywhere_is_refused():
    p = make("hidden A : array[2] of int[1..2]\nhidden n : int[2..3]\nprint A[n]\n"
             "@post { [n = 2] }")
    with pytest.raises(KuifjeError, match="expression A\\[n\\] has no value on any state"):
        wp(p)


def test_wp_print_sums_observation_branches():
    p = make(
        "hidden x : int[0..9]\nprint (x < 4)\n"
        "@post { MAX w in 0..9: [x = w] }"
    )
    res = wp(p)
    prior = uniform([State(("x",), (v,)) for v in range(10)])
    assert eval_gain(res.pre, prior) == F(1, 5)
    # each atom pairs one guess per observation cell
    assert len(res.nf.atoms) == 24


def test_wp_if_pays_both_branches():
    p = make(
        "hidden a : bool\nhidden b : bool\n"
        "if a then\n  b := true\nelse\n  skip\nfi\n"
        "@post { [b] MAX [not b] }"
    )
    assert wp(p).render() == "[a or b] MAX [a or not b]"


def test_wp_seq_composes_right_to_left():
    p = make(
        "hidden x : int[0..9]\nx := x div 2;\nx := x div 2\n@post { [x = 1] }"
    )
    assert wp(p).render() == "[x div 2 div 2 = 1]"


def test_wp_requires_a_post():
    p = make("hidden x : int[0..3]\nskip")
    with pytest.raises(KuifjeError):
        wp(p)
    assert wp(p, post=parse_gain("[x = 0]")).render() == "[x = 0]"


def test_visible_assignment_leaks():
    p = make(
        "hidden x : int[0..3]\nvisible y : int[0..3]\n"
        "y := x mod 2\n@post { MAX w in 0..3: [x = w] }"
    )
    res = wp(p)
    prior = uniform([State(("x", "y"), (v, 0)) for v in range(4)])
    # parity is published, halving the guessing space
    assert eval_gain(res.pre, prior) == F(1, 2)


# ---- loops: unfolding


def test_unfold_never_true_guard():
    p = make(
        "hidden x : int[0..3]\nwhile x < 0 do\n  x := x + 1\nod\n"
        "@post { MAX w in 0..3: [x = w] }"
    )
    res = wp(p)
    # one guard check, always false: the post passes straight through
    assert res.render() == "[x = 0] MAX [x = 1] MAX [x = 2] MAX [x = 3]"


def test_unfold_counts_iterations():
    # the guard observations reveal x exactly, though n is what changes
    p = make(
        "hidden x : int[0..3]\nhidden n : int[0..3]\n"
        "n := 0;\nwhile n != x do\n  n := n + 1\nod\n"
        "@post { MAX w in 0..3: [x = w] }"
    )
    res = wp(p)
    prior = uniform([State(("x", "n"), (v, 0)) for v in range(4)])
    assert eval_gain(res.pre, prior) == 1


def test_unfold_depth_too_small():
    p = soundness.program("search_early_exit.kuif")
    for cfg in [
        WpConfig(force_unfold=True, unfold_depth=1),
        WpConfig(unsound_no_branch_leak=True, unfold_depth=1),
    ]:
        with pytest.raises(BoundTooSmall, match="^loop needs 3 unfoldings, but only 1 "):
            WpEngine(p, cfg).wp_program()


def test_unbounded_loop_needs_annotation():
    p = make(
        "hidden x : int[0..3]\nwhile x < 4 do\n  x := x mod 4\nod\n"
        "@post { MAX w in 0..3: [x = w] }"
    )
    cfg = WpConfig(loop_bound=50)
    with pytest.raises(LoopNeedsInvariantOrBound):
        WpEngine(p, cfg).wp_program()


# ---- loops: annotations


ANNOTATED = (
    "max_no_branch.kuif",
    "reveal_max_value.kuif",
    "search_early_exit.kuif",
    "search_full_scan.kuif",
)

WRONG_COUNT = (
    "hidden x : int[0..3]\nhidden n : int[0..3]\n"
    "n := 0;\nwhile n != x invariant { [n = 0] } do\n  n := n + 1\nod\n"
    "@post { MAX w in 0..3: [x = w] }"
)

GUARD_FAILS = (
    "hidden A : array[2] of int[0..1]\nhidden x : int[0..1]\n"
    "hidden n : int[0..2]\n"
    "n := 0;\n"
    "while A[n] != x invariant { [x in A[n:]] MAX [n = 2] } do\n"
    "  n := n + 1\nod\n"
    "@post { MAX i in 0..1: [A[i] = x] }"
)

# `simplify` turns `[A[n] = A[n]]` into 1, though the read fails at n = 2
CANCELLED_FAILING_READ = (
    "hidden A : array[2] of int[0..1]\nhidden n : int[0..2]\n"
    "while n != 2 invariant { [A[n] = A[n]] } do\n  n := n + 1\nod\n"
    "@post { [A[n] = A[n]] }"
)


with open(soundness.CORPUS + "/search_early_exit.kuif") as _f:
    SEARCH = _f.read()

# claims full knowledge of x while the scan is still in progress
OVERCLAIMING = SEARCH.replace("[x in A[n:]]", "MAX w in 0..3: [x = w]")

REJECTED = {
    "wrong count": WRONG_COUNT,
    "overclaiming": OVERCLAIMING,
    "guard fails": GUARD_FAILS,
    "cancelled failing read": CANCELLED_FAILING_READ,
}


def _annotation_decision(p, config):
    try:
        wp(p, config=config)
    except InvariantCheckFailed as e:
        return str(e), e.counterexample
    return None


@pytest.mark.parametrize("case", [*ANNOTATED, *REJECTED])
def test_invariant_route_returns_annotation(case):
    # the annotation equation is decided as written, never simplified first,
    # so the route returns the annotation, or rejects it with the same
    # message and counterexample, with and without simplification
    p = soundness.program(case) if case in ANNOTATED else make(REJECTED[case])
    decisions = [
        _annotation_decision(p, config)
        for config in (WpConfig(), WpConfig(simplify=False))
    ]
    assert decisions[0] == decisions[1]
    assert (decisions[0] is None) == (case in ANNOTATED)
    if case == "search_early_exit.kuif":
        assert soundness.wp_nf(case)[1].render() == "[x in A]"


def test_invariant_and_unfold_agree():
    p = soundness.program("search_early_exit.kuif")
    via_invariant = soundness.wp_nf("search_early_exit.kuif")[1]
    via_unfold = WpEngine(p, WpConfig(force_unfold=True)).wp_program()
    assert semantic_eq(via_invariant.as_gain(), via_unfold.pre, p.decls)


def test_wrong_invariant_rejected_with_counterexample():
    p = make(WRONG_COUNT)
    with pytest.raises(InvariantCheckFailed) as e:
        wp(p)
    err = e.value
    assert "not self-consistent" in str(err)
    assert err.counterexample is not None
    lhs_text, rhs_text = err.equation
    assert lhs_text == "[n = 0]"
    assert "pre(body, annotation)" in rhs_text


def test_overclaiming_invariant_rejected():
    assert OVERCLAIMING != SEARCH
    with pytest.raises(InvariantCheckFailed):
        wp(make(OVERCLAIMING))


# ---- runtime errors: a failing path is undefined for wp, fatal for run

STUCK_SEARCH = (
    "hidden A : array[2] of int[0..1]\nhidden x : int[0..1]\n"
    "hidden n : int[0..2]\nhidden t : int[0..1]\n"
    "n := 0;\n"
    "while n != 3 and A[n] != x invariant { [x in A[n:]] } do\n"
    "  t := A[n + 1];\n  n := n + 1\nod\n"
    "@post { MAX i in 0..1: [A[i] = x] }"
)


def test_failing_paths_are_undefined_for_wp():
    # from A=[0,0], x=1 the body reads A[2] on the second round: the loop
    # heads before that still count, the path itself is left out
    p = make(STUCK_SEARCH)
    assert wp(p).render() == "[x in A]"
    unfolded = wp(p, config=WpConfig(force_unfold=True))
    assert unfolded.render() == "[A[0] = x or A[1] = x]"
    # the exit bound counts the round that failed, and stops there
    cfg = WpConfig(force_unfold=True, unfold_depth=1)
    with pytest.raises(BoundTooSmall, match="^loop needs 2 unfoldings, but only 1 "):
        wp(p, config=cfg)
    with pytest.raises(IndexOutOfBounds):
        run(p, point(State(("A", "x", "n", "t"), ((0, 0), 1, 0, 0))))


def test_failing_paths_are_undefined_for_leak_blind_mode():
    # where the print fails (n = 2) the path is left out, as in sound wp,
    # rather than the print being skipped
    p = make(
        "hidden A : array[2] of int[0..1]; hidden n : int[0..2]; print A[n]\n"
        "@post { [A[0] = 0] }"
    )
    sound = wp(p).render()
    assert sound == "[A[0] = 0 and A[n] = 0 or A[0] = 0 and A[n] = 1]"
    assert wp(p, config=WpConfig(unsound_no_branch_leak=True)).render() == sound
    pre = classical_wp(p, parse_expr("[A[0] = 0]"))
    for s in Executable(p).space.states():
        if s.get("n") == 2:
            assert eval_atom_total(pre, s) == 0


def test_leak_blind_mode_of_a_zero_post_is_zero():
    p = make("hidden x : int[0..3]\nskip\n@post { [x = 5] }")
    assert wp(p, config=WpConfig(unsound_no_branch_leak=True)).render() == "0"


def test_loop_head_whose_guard_fails_is_checked():
    # from A=[0,0], x=1 the guard itself reads A[2] at n = 2; that head is
    # still reachable, and only there does the annotation overclaim
    with pytest.raises(InvariantCheckFailed) as exc:
        wp(make(GUARD_FAILS))
    assert str(exc.value).endswith(
        "on the reachable prior Dist({{A=[0,0] x=1 n=2}: 1}) "
        "the annotation is worth 1 but one loop step is worth 0"
    )


def test_deepest_accepted_input_leaves_recursion_headroom():
    # in process, under the test runner's own frames: each pass over the
    # deepest expressions and gains the parser accepts stays clear of
    # Python's recursion limit
    parens = (MAX_DEPTH - 3) // 3
    for body, post in [
        ("print " + "(" * parens + "x" + ")" * parens, "[x = 1]"),
        ("print " + " + ".join(["x"] * (MAX_DEPTH - 2)), "[x = 1]"),
        ("print " + "not " * (MAX_DEPTH - 3) + "x = 1", "[x = 1]"),
        ("skip", " PLUS ".join(["[x = 1]"] * (MAX_DEPTH - 5))),
        ("skip", "[" + " and ".join(["x = 1"] * (MAX_DEPTH - 5)) + "]"),
        (
            "if x = 1 then " * (MAX_DEPTH - 3) + "x := 2" + " fi" * (MAX_DEPTH - 3),
            "[x = 1]",
        ),
        (
            "if x = 1 then skip; " * (MAX_DEPTH - 3)
            + "x := 2"
            + " fi" * (MAX_DEPTH - 3),
            "[x = 1]",
        ),
        (
            "while x = 1 do skip; " * (MAX_DEPTH - 3)
            + "x := 2"
            + " od" * (MAX_DEPTH - 3),
            "[x = 1]",
        ),
    ]:
        p = make(f"hidden x : int[0..3]\n{body}\n@post {{ {post} }}\n")
        pre = wp(p).pre
        hyper = run(p, uniform(Executable(p).space.states()))
        assert eval_gain(pre, uniform(Executable(p).space.states())) == eval_gain_hyper(
            p.post, hyper
        )


def test_program_and_tables_are_freed_after_use():
    # nothing process-wide may keep a program, its compiled expressions, its
    # execution tables or an evaluator's columns alive
    p = make(STUCK_SEARCH)
    guard = p.body.stmts[1].guard
    atom = p.post.body.expr
    refs = [weakref.ref(p), weakref.ref(guard), weakref.ref(atom)]
    run(p, point(State(("A", "x", "n", "t"), ((0, 1), 1, 0, 0))))
    wp(p)
    engine = WpEngine(p)  # as `check` uses it: wp, then forward runs
    pre = engine.wp_program().pre
    exe = engine.executable
    ev = GainEvaluator(exe.space.states())
    refs += [
        weakref.ref(exe),
        weakref.ref(exe.program),
        weakref.ref(engine.canon),
        weakref.ref(ev),
    ]
    for s in exe.space.states()[:16]:
        try:
            hyper = exe.run(point(s))
        except IndexOutOfBounds:
            continue
        assert ev.value(pre, point(s)) == ev.hyper_value(p.post, hyper)
        assert eval_gain(pre, point(s)) == eval_gain_hyper(p.post, hyper)
    # `check`'s outcome table: a list takes no weak reference, so it is
    # freed when only this test's own reference is left
    classes = exe.outcomes()
    del p, guard, atom, engine, pre, exe, ev
    gc.collect()
    assert [r() for r in refs] == [None] * 7
    assert sys.getrefcount(classes) == 2


# ---- the unsound mode reproduces the classical (leak-blind) answer


def test_unsound_mode_underestimates_branch_leak():
    p = soundness.program("branch_assign.kuif")
    sound = wp(p)
    unsound = wp(p, config=WpConfig(unsound_no_branch_leak=True))
    assert unsound.render() == "[a or b] MAX [not a and not b]"
    prior = Dist(
        [
            (State(("a", "b"), (True, True)), F(9, 100)),
            (State(("a", "b"), (True, False)), F(21, 100)),
            (State(("a", "b"), (False, True)), F(21, 100)),
            (State(("a", "b"), (False, False)), F(49, 100)),
        ]
    )
    assert eval_gain(sound.pre, prior) == F(79, 100)
    assert eval_gain(unsound.pre, prior) == F(51, 100)


# ---- classical (leak-blind) expectations agree with the forward projection


@pytest.mark.parametrize(
    "name,expr",
    [
        ("branch_assign.kuif", "[b]"),
        ("halve_then_guess.kuif", "x"),
        ("clamp_parity.kuif", "x mod 2"),
        ("search_early_exit.kuif", "n"),
        ("reveal_max_value.kuif", "m"),
    ],
)
def test_classical_wp_matches_classical_run(name, expr):
    import random

    p = soundness.program(name)
    e = parse_expr(expr)
    engine = WpEngine(p)
    states = list(engine.executable.space.states())
    rng = random.Random(5)
    priors = [point(rng.choice(states)) for _ in range(5)]
    w = [rng.randint(1, 9) for _ in states]
    total = sum(w)
    priors.append(
        Dist([(s, F(wi, total)) for s, wi in zip(states, w)])
    )
    from kuifje.lang import eval_expr

    for prior in priors:
        backwards = classical_expectation(p, e, prior)
        forwards = classical_run(p, prior).expectation(
            lambda s: F(eval_expr(e, s))
        )
        assert backwards == forwards


def test_classical_wp_is_an_expression():
    p = soundness.program("branch_assign.kuif")
    pre = classical_wp(p, parse_expr("[b]"))
    s = State(("a", "b"), (True, False))
    assert eval_atom_total(pre, s) == 1  # a true forces b := true


# ---- trace


def test_trace_reports_intermediate_pres():
    p = soundness.program("search_early_exit.kuif")
    res = WpEngine(p, WpConfig(trace=True)).wp_program()
    labels = [label for label, _ in res.trace]
    assert labels[0].startswith("while")
    assert labels[-1] == "n := 0"
    # the last note is the whole program's pre-gain
    assert res.trace[-1][1] == res.render()
    # a second call on the same engine reports only its own notes
    engine = WpEngine(soundness.program("threshold_print.kuif"), WpConfig(trace=True))
    assert len(engine.wp_program().trace) == 1
    again = engine.wp_program(parse_gain("[x = 1]"))
    assert [pre for _, pre in again.trace] == [again.render()]


# ---- soundness battery (cheap subset; the acceptance suite runs all of it)


@pytest.mark.parametrize(
    "name",
    [
        "branch_assign.kuif",
        "skip_loop.kuif",
        "clamp_parity.kuif",
        "halve_then_guess.kuif",
        "threshold_print.kuif",
        "mark_slot.kuif",
    ],
)
def test_soundness_fast_programs(name):
    checked = soundness.check_soundness(name, n_random=25)
    assert checked >= 25


# ---- generated programs and posts


@settings(generated_settings())
@given(programs(), st.data())
def test_generated_programs_agree_backward_and_forward(source, data):
    # a generated post either meets a loop that needs an annotation (or a
    # print that fails everywhere, which wp refuses), or its pre-gain on the
    # Canon's evaluator, check's trace-class sum and the post on `run`'s
    # hyper agree on every point prior and on two random priors over the
    # states whose run ends; `check` exits only 0, 2 or 3
    program = make(source)
    post_text = data.draw(posts(program.decls))
    post = parse_gain(post_text)
    check_gain(post, program.decls)
    engine = WpEngine(program, WpConfig(loop_bound=3))
    try:
        pre = engine.wp_program(post).pre
    except LoopNeedsInvariantOrBound:
        pre = None
    except KuifjeError as exc:  # test_wp_print_that_fails_everywhere_is_refused
        assert "has no value on any state" in str(exc)
        pre = None
    if pre is not None:
        exe, ev = engine.executable, engine.canon.evaluator
        states = exe.space.states()
        ends = [i for i, c in enumerate(exe.outcomes()) if c is not None]
        priors = [[(i, 1)] for i in ends]
        rng = random.Random(7)
        for _ in range(2 if ends else 0):
            weights = random_weights(len(ends), rng)
            priors.append([(i, w) for i, w in zip(ends, weights) if w])
        post_value = _post_value(exe, post, ev)
        fresh = GainEvaluator(states)
        for pairs in priors:
            total = sum(w for _, w in pairs)
            hyper = exe.run(Dist.from_weights({states[i]: w for i, w in pairs}))
            want = fresh.hyper_value(post, hyper)
            assert ev.weighted_value(pre, pairs, total) == want, pairs
            assert post_value(pairs, total) == want, pairs
    seed = data.draw(st.integers(0, 9))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.kuif")
        with open(path, "w") as f:
            f.write(f"{source}\n@post {{ {post_text} }}\n")
        out, err = io.StringIO(), io.StringIO()
        args = ["check", path, "--loop-bound", "3", "--priors", f"random:2:{seed}"]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    assert code in (0, 2, 3), out.getvalue() + err.getvalue()


def test_generated_loops_accept_their_unfolded_pre_gain_as_annotation():
    # a program whose runs all end, none failing, within the bound, its last
    # loop annotated with that loop's `--force-unfold` pre-gain for a
    # generated post, printed and parsed back: the annotation check accepts
    # it, and the program's pre-gain is the unfolded one on every prior.
    # The draws keep every read, write and division in range, and the
    # examples must include last loops that run at most 0, 1 and 3 rounds
    # (`exit_rounds`), the last at the bound, and at least one in 120 of them
    # 3 rounds (7 of the 300 fixed examples; 74 of 5000 in one run of the
    # long profile).
    rounds = Counter()

    @settings(generated_settings())
    @given(programs(loop_last=True, in_range=True), st.data())
    def accepts(source, data):
        program = make(source)
        exe = Executable(program, 3)
        try:
            assume(None not in exe.outcomes())
        except LoopBoundExceeded:
            reject()
        post = parse_gain(data.draw(posts(program.decls)))
        check_gain(post, program.decls)
        *before, loop = program.body.stmts
        unfold = WpConfig(loop_bound=3, force_unfold=True)
        try:
            loop_pre = WpEngine(replace(program, body=loop), unfold).wp_program(post)
            unfolded = WpEngine(program, unfold).wp_program(post).pre
        except LoopNeedsInvariantOrBound:
            # a loop that no run reaches passes the bound in the unfolding
            reject()
        except KuifjeError as exc:
            if "has no value on any state" not in str(exc):
                raise
            reject()  # test_wp_print_that_fails_everywhere_is_refused
        # the annotated program is answered whenever the unfolded one is: a
        # loop that no head state enters is decided without its body
        annotation = parse_gain(gain_to_source(loop_pre.pre))
        stmts = (*before, replace(loop, invariant=annotation))
        source = program_to_source(
            replace(program, body=replace(program.body, stmts=stmts), post=post)
        )
        pre = WpEngine(make(source), WpConfig(loop_bound=3)).wp_program().pre
        assert semantic_eq(pre, unfolded, program.decls)
        rounds[exe.exit_rounds(loop)] += 1

    accepts()
    assert {0, 1, 3} <= set(rounds), rounds
    assert rounds[3] * 120 >= rounds.total(), rounds
