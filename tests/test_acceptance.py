"""Acceptance gate: the end-to-end behaviors this analyzer must exhibit.

Each test is one acceptance item, in order, with its own wall-clock budget
asserted at the end.  Values are exact rationals throughout; no tolerance
anywhere.  The corrupted-annotation item is written exactly as demanded and
is expected to fail: the altered annotation happens to satisfy the loop
recurrence at every single state (see its docstring), so no sound checker
can reject it.
"""

import json
import time
from fractions import Fraction

import pytest

import algebra
import oracles
import soundness
from kuifje.core import Dist, State, avg, point, uniform
from kuifje.errors import InvariantCheckFailed
from kuifje.gain import eval_gain, eval_gain_hyper, semantic_eq, simplify
from kuifje.lang import (
    SAssign,
    SIf,
    SPrint,
    SSeq,
    SSkip,
    SWhile,
    check_program,
    parse_gain,
    parse_program,
)
from kuifje.semantics import run
from kuifje.wp import WpConfig, WpEngine, wp
from kuifje.cli import main as cli_main

F = Fraction


@pytest.fixture
def clock():
    budget = {}
    t0 = time.monotonic()

    def check(limit):
        budget["spent"] = time.monotonic() - t0
        assert budget["spent"] < limit, f"took {budget['spent']:.2f}s"

    return check


def cli(capsys, *args):
    rc = cli_main(list(args))
    out = capsys.readouterr()
    return rc, out.out


def product_prior(alpha, beta):
    """Independent bools a, b with P(a) = alpha, P(b) = beta."""
    return Dist(
        [
            (State(("a", "b"), (av, bv)),
             (alpha if av else 1 - alpha) * (beta if bv else 1 - beta))
            for av in (False, True)
            for bv in (False, True)
        ]
    )


def test_01_guessing_game(capsys, clock, tmp_path):
    """Publishing a threshold splits a ten-value secret 2/5 : 3/5."""
    rc, out = cli(
        capsys, "run", "corpus/threshold_print.kuif", "--prior", "uniform",
        "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert [e["weight"] for e in doc["hyper"]] == ["2/5", "3/5"]
    below, above = doc["hyper"]
    assert [r["state"]["x"] for r in below["inner"]] == [0, 1, 2, 3]
    assert {r["prob"] for r in below["inner"]} == {"1/4"}
    assert [r["state"]["x"] for r in above["inner"]] == [4, 5, 6, 7, 8, 9]
    assert {r["prob"] for r in above["inner"]} == {"1/6"}

    hyper_file = tmp_path / "out.json"
    hyper_file.write_text(out)
    gain = "MAX w in 0..9: [x = w]"
    rc, out = cli(
        capsys, "eval", "corpus/threshold_print.kuif", "--gain", gain,
        "--hyper", str(hyper_file),
    )
    assert (rc, out) == (0, "1/5\n")
    rc, out = cli(
        capsys, "eval", "corpus/threshold_print.kuif", "--gain", gain,
        "--prior", "uniform",
    )
    assert (rc, out) == (0, "1/10\n")
    clock(1)


def test_02_halving_assignment(capsys, clock):
    """Guessing after x := x div 2 is worth the five half-value guesses."""
    rc, out = cli(capsys, "wp", "corpus/halve_then_guess.kuif")
    assert rc == 0
    emitted = parse_gain(out.strip())
    five_atoms = parse_gain(
        "[x div 2 = 0] MAX [x div 2 = 1] MAX [x div 2 = 2] "
        "MAX [x div 2 = 3] MAX [x div 2 = 4]"
    )
    p = soundness.program("halve_then_guess.kuif")
    assert semantic_eq(emitted, five_atoms, p.decls)

    quarters = uniform([State(("x",), (v,)) for v in (0, 3, 6, 9)])
    assert eval_gain(emitted, quarters) == F(1, 4)
    clock(1)


def test_03_conditional_branch_leak(capsys, clock):
    """The then/else choice itself is the leak, and ignoring it is unsound."""
    rc, out = cli(capsys, "wp", "corpus/branch_assign.kuif")
    assert rc == 0
    assert out == "[a or b] MAX [a or not b]\n"
    pre = parse_gain(out.strip())

    for alpha, beta in [(F(1, 3), F(1, 2)), (F(1, 2), F(1, 2)),
                        (F(3, 10), F(3, 10))]:
        got = eval_gain(pre, product_prior(alpha, beta))
        assert got == alpha + (1 - alpha) * max(beta, 1 - beta)

    rc, out = cli(
        capsys, "check", "corpus/branch_assign.kuif",
        "--unsound-no-branch-leak", "--prior",
        "product a:{true:3/10,false:7/10} b:{true:3/10,false:7/10}",
    )
    assert rc == 1
    assert "FAIL" in out
    assert "pre = 51/100, post = 79/100" in out
    clock(1)


def test_04_search_invariant_verified(clock):
    """The suffix-membership annotation checks out and collapses to [x in A]."""
    p = soundness.program("search_early_exit.kuif")
    engine, nf = soundness.wp_nf("search_early_exit.kuif")  # invariant route
    assert semantic_eq(nf.as_gain(), parse_gain("[x in A]"), p.decls)
    clock(5)


def test_04_corrupted_invariant_rejected(clock):
    """Demanded behavior: annotating the loop with whole-array membership
    (not suffix membership) must be rejected with a counterexample.

    This test fails, and should: the whole-array annotation V = [x in A]
    satisfies V == [g] AND pre(body, V) PLUS [not g] AND post at every state
    whatsoever — the loop body never writes A or x, so pre(body, V) = V, and
    the post (best guess of a slot holding x) is pointwise exactly [x in A]
    again.  The recurrence holds identically, so the annotation is a correct
    invariant for this loop and post, and any checker that tests the
    recurrence — on reachable priors or on all of them — accepts it.  Only a
    syntactic comparison against the expected suffix form could "reject" it,
    which would be wrong.  The test is kept as demanded rather than weakened.
    """
    text = open(soundness.CORPUS + "/search_early_exit.kuif").read()
    corrupted = text.replace("[x in A[n:]]", "[x in A]")
    assert corrupted != text
    p = parse_program(corrupted)
    check_program(p)
    with pytest.raises(InvariantCheckFailed):
        wp(p)
    clock(5)


def test_05_run_to_completion_loops(clock):
    """Unfolded loops with data-independent iteration count still leak the
    branch on the secret; both scans are worth whole-array membership."""
    target = parse_gain("[x in A]")
    flagged = soundness.program("search_with_flag.kuif")
    res = WpEngine(flagged).wp_program()  # no annotation: unfolding
    assert semantic_eq(res.pre, target, flagged.decls)

    full = soundness.program("search_full_scan.kuif")
    res2 = WpEngine(full, WpConfig(force_unfold=True)).wp_program()
    assert semantic_eq(res2.pre, target, full.decls)
    clock(10)


def test_06_array_max_programs(clock):
    """Publishing the running maximum is worth max(A[0], A[1], A[2]); the
    branch-free variant leaks nothing beyond its own post."""
    p = soundness.program("reveal_max_value.kuif")
    engine, nf = soundness.wp_nf("reveal_max_value.kuif")
    target = parse_gain("max(A[0], A[1], A[2])")
    assert semantic_eq(nf.as_gain(), target, p.decls)

    q = soundness.program("max_no_branch.kuif")
    _, nf2 = soundness.wp_nf("max_no_branch.kuif")
    post_nf = simplify(q.post, q.decls)
    assert nf2.render() == post_nf.render()
    assert semantic_eq(nf2.as_gain(), q.post, q.decls)
    clock(10)


def test_07_published_bits_vulnerability(clock):
    """One-try guessing of a six-bit secret: publishing it when divisible by
    eight is far worse (9/64) than publishing its low two bits (1/16)."""
    gain = parse_gain("MAX h in 0..63: [H = h]")

    def vulnerability(name):
        p = soundness.program(name)
        prior = uniform([State(("H", "L"), (h, 0)) for h in range(64)])
        return eval_gain_hyper(gain, run(p, prior))

    v_branch = vulnerability("reveal_mod8.kuif")
    v_mask = vulnerability("reveal_low_bits.kuif")
    assert v_branch == F(9, 64)
    assert v_mask == F(1, 16)

    # agree with the independent replay oracle on both counts
    o_branch = oracles.bayes_vulnerability(
        oracles.trace_hyper(oracles.uniform(range(64)),
                            oracles.branch_reveal_6bit),
        project=lambda s: s[0],
    )
    o_mask = oracles.bayes_vulnerability(
        oracles.trace_hyper(oracles.uniform(range(64)),
                            oracles.mask_low2_6bit),
        project=lambda s: s[0],
    )
    assert (v_branch, v_mask) == (o_branch, o_mask)
    assert v_branch > v_mask
    clock(5)


def test_08_soundness_battery(clock):
    """Backwards equals forwards exactly: every program with a post-gain,
    on every point prior plus 100 seeded random rational priors."""
    names = soundness.with_post()
    assert len(names) >= 12

    forms = set()
    for name in names:
        stack = [soundness.program(name).body]
        while stack:
            s = stack.pop()
            forms.add(type(s))
            if isinstance(s, SSeq):
                stack.extend(s.stmts)
            elif isinstance(s, SIf):
                stack.extend([s.then, s.els])
            elif isinstance(s, SWhile):
                stack.append(s.body)
    assert {SSkip, SAssign, SPrint, SIf, SWhile, SSeq} <= forms

    for name in names:
        engine, nf = soundness.wp_nf(name)
        n_states = len(list(engine.executable.space.states()))
        checked = soundness.check_soundness(name, n_random=100)
        assert checked == n_states + 100, name
    clock(60)


def test_09_algebra_battery(clock):
    """Every combinator law, plus normalization preserving meaning, on
    hundreds of seeded random expressions; zero violations."""
    checks, violations = algebra.run_battery(cases=60)
    assert checks >= 500
    assert violations == []
    clock(60)


def test_10_leak_erasure(clock):
    """Forgetting the observations always gives the classical semantics."""
    import random

    for name in soundness.corpus_names():
        exe = soundness.engine(name).executable
        states = list(exe.space.states())
        pts = states if len(states) <= 512 else states[:: len(states) // 192]
        priors = [uniform(states)] + [point(s) for s in pts]
        rng = random.Random(31)
        for _ in range(20):
            w = [rng.randint(0, 16) for _ in states]
            if not any(w):
                w[0] = 1
            total = sum(w)
            priors.append(
                Dist(
                    [(s, F(wi, total)) for s, wi in zip(states, w) if wi]
                )
            )
        for prior in priors:
            assert avg(exe.run(prior)) == exe.classical_run(prior), name
    clock(30)


def test_11_forward_pass_on_a_4096_line_prior(capsys, clock, tmp_path):
    """`run --format json` from a seeded 4096-line prior file, then `eval
    --hyper` on its output, both equal to the replay oracle."""
    import random

    rng = random.Random(4096)
    weights = {(h, low): rng.randint(1, 16) for h in range(64) for low in range(64)}
    total = sum(weights.values())
    prior = {s: F(w, total) for s, w in weights.items()}
    prior_file = tmp_path / "reveal.prior"
    prior_file.write_text(
        "".join(f"H={h} L={low} : {p}\n" for (h, low), p in prior.items())
    )
    rc, out = cli(
        capsys, "run", "corpus/reveal_mod8.kuif", "--prior", str(prior_file),
        "--format", "json",
    )
    assert rc == 0
    want = oracles.trace_hyper(
        prior, lambda s: oracles.branch_reveal_6bit(s[0])
    )
    got = sorted(
        (F(group["weight"]),
         sorted(((c["state"]["H"], c["state"]["L"]), F(c["prob"]))
                for c in group["inner"]))
        for group in json.loads(out)["hyper"]
    )
    assert got == sorted((w, sorted(post.items())) for w, post in want.values())

    hyper_file = tmp_path / "reveal.json"
    hyper_file.write_text(out)
    rc, out = cli(
        capsys, "eval", "corpus/reveal_mod8.kuif", "--gain",
        "MAX h in 0..63: [H = h]", "--hyper", str(hyper_file),
    )
    assert rc == 0
    assert F(out.strip()) == oracles.bayes_vulnerability(
        want, project=lambda s: s[0]
    )
    clock(2)
