"""Forward interpretation: hypers, observations, and the leak-blind projection."""

import glob
import hashlib
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kuifje.core import Dist, Hyper, State, avg, dist_from_entries, point, unit, uniform
from kuifje.errors import DomainViolation, KuifjeError, LoopBoundExceeded
from kuifje.lang import check_program, parse_program
from kuifje.semantics import Executable, classical_run, run

F = Fraction


def states_xy():
    return [State(("x",), (v,)) for v in range(4)]


# ---- updates and observations, one statement at a time


def one_statement(stmt):
    p = parse_program("hidden x : int[0..3]\n" + stmt)
    check_program(p)
    return p


def test_update_maps_inner_and_keeps_mass():
    prior = dist_from_entries([(states_xy()[i], F(i + 1, 10)) for i in range(4)])
    out = run(one_statement("x := 3 - x"), prior)
    assert [w for _, w in out.entries] == [1]
    inner = out.entries[0][0]
    assert sum(p for _, p in inner.entries) == 1
    assert [inner.prob(states_xy()[3 - i]) for i in range(4)] == [
        F(1, 10), F(2, 10), F(3, 10), F(4, 10)
    ]


def test_print_splits_weights_and_normalizes():
    prior = dist_from_entries([(states_xy()[i], F(i + 1, 10)) for i in range(4)])
    out = run(one_statement("print x mod 2"), prior)
    by_weight = sorted(out.entries, key=lambda e: e[1])
    assert [w for _, w in by_weight] == [F(1, 10) + F(3, 10), F(2, 10) + F(4, 10)]
    even = by_weight[0][0]
    assert even.prob(states_xy()[0]) == F(1, 4)
    for inner, _ in out.entries:
        assert sum(p for _, p in inner.entries) == 1


def test_constant_print_refines_nothing():
    prior = uniform(states_xy())
    assert run(one_statement("print 7"), prior) == unit(prior)


def test_print_of_whole_state_refines_fully():
    out = run(one_statement("print x"), uniform(states_xy()))
    assert len(out.entries) == 4
    for inner, w in out.entries:
        assert w == F(1, 4)
        assert len(inner.entries) == 1


# ---- program interpretation vs independent oracles


def load(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus", name)
    with open(path) as f:
        p = parse_program(f.read())
    check_program(p)
    return p


def program_hyper_as_dict(program, prior):
    """Render a package Hyper as {frozen inner: weight} for oracle comparison."""
    h = run(program, prior)
    out = {}
    for inner, w in h.entries:
        key = tuple(sorted((s.values, p) for s, p in inner.entries))
        out[key] = out.get(key, F(0)) + w
    return out


def oracle_hyper_as_dict(oracle_hyper):
    out = {}
    for weight, posterior in oracle_hyper.values():
        key = tuple(sorted(posterior.items()))
        out[key] = out.get(key, F(0)) + weight
    return out


def test_branching_reveal_matches_oracle():
    p = load("reveal_mod8.kuif")
    prior = uniform(
        [State(("H", "L"), (h, 0)) for h in range(64)]
    )
    mine = program_hyper_as_dict(p, prior)
    oracle = oracles.trace_hyper(
        oracles.uniform(range(64)), oracles.branch_reveal_6bit
    )
    assert mine == oracle_hyper_as_dict(oracle)


def test_low_bits_copy_matches_oracle():
    p = load("reveal_low_bits.kuif")
    prior = uniform([State(("H", "L"), (h, 0)) for h in range(64)])
    mine = program_hyper_as_dict(p, prior)
    oracle = oracles.trace_hyper(
        oracles.uniform(range(64)), oracles.mask_low2_6bit
    )
    assert mine == oracle_hyper_as_dict(oracle)


def test_branch_observation_splits_even_when_state_unchanged():
    # if x < 2 then skip else skip fi still splits the hyper in two
    src = "hidden x : int[0..3]\nif x < 2 then skip else skip fi"
    p = parse_program(src)
    check_program(p)
    h = run(p, uniform(states_xy()))
    assert len(h.entries) == 2
    assert all(w == F(1, 2) for _, w in h.entries)


def test_while_guard_leaks_iteration_count():
    # counting a copy down to zero reveals x through the guard checks,
    # and x itself survives into the final state
    src = (
        "hidden x : int[0..3]\nhidden n : int[0..3]\n"
        "n := x;\nwhile n != 0 do\n  n := n - 1\nod"
    )
    p = parse_program(src)
    check_program(p)
    prior = uniform([State(("x", "n"), (v, 0)) for v in range(4)])
    h = run(p, prior)
    assert len(h.entries) == 4
    assert all(len(inner.entries) == 1 and w == F(1, 4) for inner, w in h.entries)


def test_posteriors_describe_only_the_final_state():
    # the same loop run on the secret itself erases it: every path ends at
    # x = 0, all posteriors coincide, and the reduced hyper merges them — the
    # iteration count told the observer about a value that no longer exists
    src = "hidden x : int[0..3]\nwhile x != 0 do\n  x := x - 1\nod"
    p = parse_program(src)
    check_program(p)
    h = run(p, uniform(states_xy()))
    assert h == unit(point(State(("x",), (0,))))


def test_never_true_loop_checks_guard_once():
    p = load("skip_loop.kuif")
    h = run(p, uniform(states_xy()))
    # only the parity print distinguishes states: two outcomes
    assert len(h.entries) == 2


def test_loop_bound_exceeded():
    src = "hidden x : int[0..3]\nwhile x < 4 do\n  x := x mod 4\nod"
    p = parse_program(src)
    check_program(p)
    with pytest.raises(LoopBoundExceeded):
        run(p, uniform(states_xy()), loop_bound=50)


def test_warm_table_still_enforces_loop_bound():
    # x = 3 needs three rounds: bound 3 passes, and under bound 2 the
    # failed run records nothing, so a second call raises again
    src = "hidden x : int[0..3]\nwhile x != 0 do\n  x := x - 1\nod"
    p = parse_program(src)
    check_program(p)
    prior = uniform(states_xy())
    assert Executable(p, 3).run(prior) == unit(point(State(("x",), (0,))))
    exe = Executable(p, 2)
    for _ in range(2):
        with pytest.raises(LoopBoundExceeded):
            exe.run(prior)
        with pytest.raises(LoopBoundExceeded):
            exe.classical_run(prior)


def test_domain_violation_is_reported():
    src = "hidden x : int[0..3]\nx := x + 1"
    p = parse_program(src)
    check_program(p)
    with pytest.raises(DomainViolation):
        run(p, uniform(states_xy()))


def test_trace_snapshots_per_top_level_statement():
    p = load("threshold_print.kuif")
    prior = uniform([State(("x",), (v,)) for v in range(10)])
    snaps = []
    run(p, prior, trace=snaps)
    assert len(snaps) == 1
    label, h = snaps[0]
    assert label.startswith("print")
    assert sorted(w for _, w in h.entries) == [F(2, 5), F(3, 5)]


def _scan_step(values):
    """`search_full_scan.kuif` replayed by hand: (trace, final) from (A, x,
    n, f)."""
    A, x, _, _ = values
    trace = [("print", False)]
    f = False
    for n in range(3):
        trace += [("branch", True), ("branch", A[n] == x)]
        if A[n] == x:
            f = True
            trace.append(("print", True))
    trace.append(("branch", False))
    return tuple(trace), (A, x, 3, f)


def test_trace_snapshots_on_a_program_with_visible_writes_and_a_loop():
    p = load("search_full_scan.kuif")
    prior = uniform(Executable(p).space.states())
    snaps = []
    final = run(p, prior, trace=snaps)
    labels = [label for label, _ in snaps]
    assert labels[:2] == ["f := false;", "n := 0"]
    assert labels[2].startswith("while n != 3 invariant {")
    assert labels[2].endswith("} do")
    # SHA-256 of each snapshot's repr
    assert [hashlib.sha256(repr(h).encode()).hexdigest() for _, h in snaps] == [
        "7221fb0dd60f6ec1e1b0bbfb6410229d7a3dbb52858e0930a009befe9cb57231",
        "6cc661f6aebf3aae73b4eb7ba819c8fa9159d92aabce7392a9a999f6b2bf1fe3",
        "4fe4d0cb4eb88c686e3bc3ba07aa6f2bd5631a306a02ec0fe993fe50e0c383e7",
    ]
    names = prior.support()[0].names
    assert [len(h) for _, h in snaps] == [1, 1, 8]
    assert snaps[0][1] == unit(prior.map(lambda s: s.set("f", False)))
    assert snaps[1][1] == unit(snaps[0][1].inners()[0].map(lambda s: s.set("n", 0)))
    want = oracles.trace_hyper(
        {s.values: p for s, p in prior.entries}, _scan_step
    )
    assert snaps[2][1] == final == Hyper(
        [
            (Dist([(State(names, v), q) for v, q in post.items()]), w)
            for w, post in want.values()
        ]
    )


@pytest.mark.parametrize(
    "name",
    ["threshold_print.kuif", "search_full_scan.kuif", "compose_leaks_small.kuif"],
)
def test_run_on_values_tuples_matches_run_on_states(name):
    import random

    exe = Executable(load(name))
    rng = random.Random(name)
    prior = Dist.from_weights({s: rng.randint(1, 9) for s in exe.space.states()})
    named = exe.run(prior)
    plain = exe.run(prior.map(lambda s: s.values))
    assert [(d.weights, w) for d, w in plain.weights] == [
        (tuple((s.values, v) for s, v in d.weights), w) for d, w in named.weights
    ]
    assert all(type(v) is tuple for d in plain.inners() for v in d.support())


# ---- leak erasure: forgetting observations gives the classical semantics


CORPUS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "*.kuif"))
)


@pytest.mark.parametrize("path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_leak_erasure_on_corpus(path):
    with open(path) as f:
        p = parse_program(f.read())
    check_program(p)
    names = tuple(d.name for d in p.decls)
    spaces = [d.domain.values() for d in p.decls]
    all_states = []
    import itertools

    for combo in itertools.product(*spaces):
        all_states.append(State(names, combo))
    if len(all_states) > 4096:
        all_states = all_states[:: len(all_states) // 512]
    prior = uniform(all_states)
    assert avg(run(p, prior)) == classical_run(p, prior)


@given(
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4)
    .filter(lambda ws: sum(ws) > 0)
)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_leak_erasure_random_priors(weights):
    p = load("threshold_print.kuif")
    total = sum(weights)
    prior = dist_from_entries(
        [
            (State(("x",), (i,)), F(w, total))
            for i, w in enumerate(weights)
            if w
        ]
    )
    assert avg(run(p, prior)) == classical_run(p, prior)


def test_visible_variable_publishes_every_assignment():
    src = (
        "hidden x : int[0..3]\nvisible y : int[0..3]\n"
        "y := x;\ny := 0"
    )
    p = parse_program(src)
    check_program(p)
    prior = uniform([State(("x", "y"), (v, 0)) for v in range(4)])
    h = run(p, prior)
    # the first assignment leaked x fully; resetting y does not re-merge
    assert len(h.entries) == 4
