"""Compiled statement steps against the reference tree-walking interpreter.

Every corpus program runs from every declared state through each top-level
statement and through the whole body, on one executable per loop bound (1,
2 and the default), first from empty loop records and then again from the
records the first pass filled.  Each run must give the reference's trace
and final state (or fault type and message), or both must raise
LoopBoundExceeded.
The loop facts the backwards analysis reads are compared the same way on
every loop of every corpus program and of three programs that reach an
annotated loop through an `if`, through another loop, and past a failing
assignment and a failing `if` guard: `loop_head_groups`, one pass over the
distinct states, against the reference's per-state head arrivals grouped by
history, and `exit_rounds`, one memoised pass over the declared states,
against the largest of the reference's per-state round counts, or its
LoopBoundExceeded message where some state passes the bound; named loops
that cycle, fail a guard or a body, or reach their largest count through
known heads pin the pass's edge cases, and its body runs are counted.  The
outcome table `check` reads, `outcomes()`, is compared with the reference's
runs of the whole body from each state in turn, on the same programs and on
the faulting ones.
Programs drawn by `programs.programs()`, with failing reads, writes and
divisions and loops that pass a small bound, are compared the same way,
and, where no run fails, `run` against `oracles.trace_hyper`.
"""

import glob
import inspect
import os
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kuifje import semantics
from kuifje.core import uniform
from kuifje.errors import LoopBoundExceeded
from kuifje.gain import semantic_eq
from kuifje.lang import (
    MAX_DEPTH,
    SIf,
    SSeq,
    SWhile,
    check_program,
    expr_to_source,
    parse_program,
)
from kuifje.semantics import DEFAULT_LOOP_BOUND, Executable
from kuifje.wp import WpConfig, WpEngine
from programs import generated_settings, programs
from reference_exec import ReferenceExecutable

CORPUS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "corpus", "*.kuif"))
)
# The early-exit search's annotated loop where a loop analysis has to walk
# through an enclosing statement to reach its head: a taken `if` branch, and
# the rounds of an unannotated loop.  They stay out of the corpus, which the
# benchmark runs whole against recorded outputs.
_SEARCH = (
    "while n != 3 and A[n] != x invariant { [x in A[n:]] } do\n"
    "  n := n + 1\n"
    "od"
)
_DECLS = (
    "hidden A : array[3] of int[0..3]\nhidden x : int[0..3]\nhidden n : int[0..3]\n"
)
_POST = "\n@post { MAX i in 0..2: [A[i] = x] }"
NESTED = {
    "search_inside_if": (
        _DECLS + "hidden b : bool\n"
        "n := 0;\nif b then\n" + _SEARCH + "\nelse\n  skip\nfi" + _POST
    ),
    "search_inside_loop": (
        _DECLS + "hidden k : int[0..1]\n"
        "k := 0;\nwhile k < 1 do\n  n := 0;\n" + _SEARCH + ";\n  k := k + 1\nod"
        + _POST
    ),
    # the assignment fails at d = 0 and the guard's read at x = 3, so only
    # some paths reach the loop
    "search_past_faults": (
        _DECLS + "hidden d : int[0..1]\n"
        "n := 0 div d;\nif A[x] != 0 then\n" + _SEARCH + "\nelse\n  skip\nfi"
        + _POST
    ),
}
# head arrivals at the annotated loop, over runs from every declared state
NESTED_ARRIVALS = {
    "search_inside_if": 2800,
    "search_inside_loop": 5600,
    "search_past_faults": 1656,
}
BOUNDS = (1, 2, DEFAULT_LOOP_BOUND)
PASSES = {"cold": 1, "warm": 2}


def _program(src):
    """`src` parsed, checked and desugared once, as both interpreters run it."""
    return Executable(check_program(parse_program(src))).program


def _corpus(path):
    with open(path) as f:
        return _program(f.read())


def _loops(stmt):
    if isinstance(stmt, SSeq):
        return [w for s in stmt.stmts for w in _loops(s)]
    if isinstance(stmt, SIf):
        return _loops(stmt.then) + _loops(stmt.els)
    if isinstance(stmt, SWhile):
        return [stmt] + _loops(stmt.body)
    return []


def _outcome(fn):
    """A run's outcome in comparable form: final values, or fault type and
    message; None when the bound was exceeded."""
    try:
        trace, fin = fn()
    except LoopBoundExceeded as exc:
        return None, str(exc)
    if isinstance(fin, Exception):
        fin = (type(fin), fin.args)
    elif not isinstance(fin, tuple):
        fin = fin.values  # the reference's State
    return trace, fin


def _compare(program, stmts, passes):
    """Run `stmts` from every state `passes` times on one executable per
    bound; in every pass after the first, each loop answers from its
    record."""
    ref = ReferenceExecutable(program)
    checked = 0
    for bound in BOUNDS:
        exe = Executable(program, bound)
        for _ in range(passes):
            for stmt in stmts:
                step = exe._step(stmt)
                for s in ref.states():
                    got = _outcome(lambda: step(s.values))
                    want = _outcome(lambda: ref._exec(stmt, s, bound)[:2])
                    assert got == want, (stmt, s, bound)
                    checked += 1
    return checked


def _top_level(program):
    body = program.body
    return (body.stmts if isinstance(body, SSeq) else (body,)) + (body,)


@pytest.mark.parametrize("passes", PASSES.values(), ids=PASSES)
@pytest.mark.parametrize("path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_steps_match_the_reference_on_corpus(path, passes):
    program = _corpus(path)
    assert _compare(program, _top_level(program), passes)


def _grouped(heads):
    """The reference's `(history, State)` head arrivals as `loop_head_groups`
    gives them: `{history: set of values}`."""
    groups = {}
    for history, s in heads:
        groups.setdefault(history, set()).add(s.values)
    return groups


def _or_exceeded(fact):
    """`fact()`, or None and the message when the bound was exceeded."""
    try:
        return fact()
    except LoopBoundExceeded as exc:
        return None, str(exc)


def _reference_exit_rounds(ref, loop, bound):
    """The most rounds the reference's `loop` runs from a declared state."""
    return max(ref.loop_rounds(loop, s, bound) for s in ref.states())


LOOP_PROGRAMS = {os.path.basename(p): p for p in CORPUS if _loops(_corpus(p).body)}
LOOP_PROGRAMS.update(NESTED)


@pytest.mark.parametrize("name", sorted(LOOP_PROGRAMS))
def test_loop_heads_and_rounds_match_the_reference(name):
    source = LOOP_PROGRAMS[name]
    program = _corpus(source) if name.endswith(".kuif") else _program(source)
    loops = _loops(program.body)
    for bound in BOUNDS:
        exe, ref = Executable(program, bound), ReferenceExecutable(program)
        for loop in loops:
            got = _or_exceeded(lambda: exe.loop_head_groups(loop))
            want = _or_exceeded(lambda: _grouped(ref.loop_heads(loop, bound)))
            assert got == want, (loop, bound)
            if isinstance(got, dict):
                assert all(type(h) is tuple for h in got)
            got = _or_exceeded(lambda: exe.exit_rounds(loop))
            assert got == _or_exceeded(
                lambda: _reference_exit_rounds(ref, loop, bound)
            ), (loop, bound)


# Loops whose exit bound takes each way through `exit_rounds`, with the most
# rounds any declared state runs, or None where some state never exits.
EXIT_CASES = {
    # every head leads to the next, so the chain closes on itself
    "body cycles": (
        "hidden x : int[0..3]\nwhile true do x := (x + 1) mod 4 od",
        None,
    ),
    # the guard reads A[2] or A[3] from n = 2 or 3, on entry or after rounds
    "guard fails on some heads": (
        "hidden A : array[2] of int[0..1]\nhidden n : int[0..3]\n"
        "while A[n] = 0 do n := n + 1 od",
        2,
    ),
    # the print reads past the end of A after the assignment ran
    "body fails partway": (
        "hidden A : array[2] of int[0..1]\nhidden x : int[0..3]\n"
        "while x < 3 do x := x + 1; print A[x] od",
        2,
    ),
    # n = 3 counts down through the heads n = 2, 1, 0, whose counts the
    # states before it in canonical order already gave
    "largest count through known heads": (
        "hidden n : int[0..3]\nwhile n > 0 do n := n - 1 od",
        3,
    ),
}


@pytest.mark.parametrize("bound", (1, 3, DEFAULT_LOOP_BOUND))
@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_rounds_on_named_loops(case, bound):
    source, rounds = EXIT_CASES[case]
    program = _program(source)
    (loop,) = _loops(program.body)
    got = _or_exceeded(lambda: Executable(program, bound).exit_rounds(loop))
    ref = ReferenceExecutable(program)
    assert got == _or_exceeded(lambda: _reference_exit_rounds(ref, loop, bound))
    if rounds is not None and rounds <= bound:
        assert got == rounds
    else:
        assert got == (None, f"loop exceeded {bound} iterations; raise the loop "
                       "bound or add an invariant")


def _count_body_runs(exe, loop):
    """The values tuples `loop`'s compiled body is run on, as a list that
    fills as it runs.  The counting step replaces the body's, so `loop`'s own
    step, if compiled later, runs it too."""
    runs = []
    step = exe._step(loop.body)

    def counted(v):
        runs.append(v)
        return step(v)

    exe._steps[id(loop.body)] = counted
    return runs


def _count_exit_rounds(exe, loop, runs):
    """Per call of `exe.exit_rounds(loop)`, how many of `runs` it added."""
    calls = []
    real = exe.exit_rounds

    def counted(stmt):
        before = len(runs)
        try:
            return real(stmt)
        finally:
            if stmt is loop:
                calls.append(len(runs) - before)

    exe.exit_rounds = counted
    return calls


@pytest.mark.parametrize("name", sorted(LOOP_PROGRAMS))
def test_exit_rounds_runs_each_body_once_per_state_whose_guard_holds(name):
    source = LOOP_PROGRAMS[name]
    program = _corpus(source) if name.endswith(".kuif") else _program(source)
    for loop in _loops(program.body):
        exe = Executable(program)
        runs = _count_body_runs(exe, loop)
        guard = semantics.compile_expr(loop.guard, exe._names)
        holds = set()
        for s in exe.space.states():
            try:
                if guard(s.values, None):
                    holds.add(s.values)
            except semantics._FAULTS:
                pass
        rounds = exe.exit_rounds(loop)
        assert bool(runs) == (rounds > 0)
        assert len(runs) == len(set(runs)) and set(runs) <= holds
        ran = len(runs)
        assert exe.exit_rounds(loop) == rounds
        assert len(runs) == ran  # the second request ran no body


def test_exit_rounds_of_a_nested_loop_runs_once_across_unfolding_rounds():
    # wp reaches the inner loop once per round of the outer loop it unfolds
    program = check_program(parse_program(
        "hidden x : int[0..3]\nhidden n : int[0..3]\nhidden k : int[0..2]\n"
        "while k < 2 invariant { [x = 0] } do\n"
        "  n := 0;\n  while n < x do n := n + 1 od;\n  k := k + 1\nod\n"
        "@post { MAX w in 0..3: [x = w] }"
    ))
    engine = WpEngine(program, WpConfig(force_unfold=True))
    exe = engine.executable
    _, inner = _loops(exe.program.body)
    runs = _count_body_runs(exe, inner)
    calls = _count_exit_rounds(exe, inner, runs)
    engine.wp_program()
    assert len(calls) == 2 and calls[0] > 0 and calls[1] == 0


def test_exit_rounds_runs_once_across_the_atoms_of_a_leak_blind_post():
    # the unsound mode takes wp of the body once per atom of the post
    program = check_program(parse_program(
        "hidden x : int[0..3]\nhidden n : int[0..3]\n"
        "n := 0;\nwhile n < x do n := n + 1 od\n@post { [x = 0] MAX [n = 1] }"
    ))
    engine = WpEngine(program, WpConfig(unsound_no_branch_leak=True))
    exe = engine.executable
    (loop,) = _loops(exe.program.body)
    runs = _count_body_runs(exe, loop)
    calls = _count_exit_rounds(exe, loop, runs)
    engine.wp_program()
    assert len(calls) == 2 and calls[0] > 0 and calls[1] == 0


@pytest.mark.parametrize("name", sorted(NESTED))
def test_annotation_inside_an_enclosing_statement(name):
    program = check_program(parse_program(NESTED[name]))
    exe = Executable(program)
    ref = ReferenceExecutable(exe.program)
    (loop,) = [w for w in _loops(exe.program.body) if w.invariant is not None]
    heads = list(ref.loop_heads(loop, DEFAULT_LOOP_BOUND))
    assert len(heads) == NESTED_ARRIVALS[name]
    assert exe.loop_head_groups(loop) == _grouped(heads)
    # a path that fails is undefined for wp, so the two pre-gains are
    # compared on every prior over the states whose run does not fail
    body = exe._step(exe.program.body)
    defined = [s for s in exe.space.states() if type(body(s.values)[1]) is tuple]
    annotated = WpEngine(program).wp_program().pre
    unfolded = WpEngine(program, WpConfig(force_unfold=True)).wp_program().pre
    assert semantic_eq(annotated, unfolded, program.decls, states=defined)


def test_a_loop_runs_once_from_each_entry_state(monkeypatch):
    # a second run from the same prior enters the loop from the same states,
    # so the loop's recorded outcomes answer it and its guard is not tested
    calls = Counter()
    real = semantics.compile_expr

    def counting(e, names):
        fn = real(e, names)
        text = expr_to_source(e)

        def counted(values, env):
            calls[text] += 1
            return fn(values, env)

        return counted

    monkeypatch.setattr(semantics, "compile_expr", counting)
    exe = Executable(_corpus(LOOP_PROGRAMS["search_early_exit.kuif"]))
    (loop,) = _loops(exe.program.body)
    guard = expr_to_source(loop.guard)
    prior = uniform(exe.space.states())
    first = exe.run(prior)
    tested = calls[guard]
    assert tested > 0
    assert exe.run(prior) == first
    monkeypatch.undo()
    assert calls[guard] == tested


# ---- hand-written paths through every fault


FAULTING = {
    "division by zero": (
        "hidden x : int[0..3]\nhidden y : int[0..3]\nprint x;\ny := 3 div x;\nprint y",
        ("DivisionByZero", "div by zero"),
    ),
    "array write out of bounds": (
        "hidden A : array[2] of int[0..3]\nhidden i : int[0..3]\n"
        "print i;\nA[i] := 1;\nprint A[0]",
        ("IndexOutOfBounds", "A[3] with length 2"),
    ),
    "scalar domain violation": (
        "hidden x : int[0..3]\nif x > 1 then x := x + 1 fi",
        ("DomainViolation", "x := 4 leaves the declared domain int[0..3]"),
    ),
    "array element domain violation": (
        "hidden A : array[2] of int[0..3]\nhidden i : int[0..1]\n"
        "A[i] := A[i] + 2",
        ("DomainViolation", "A[1] := 5 leaves the declared domain int[0..3]"),
    ),
    "print read out of bounds": (
        "hidden A : array[2] of int[0..1]\nhidden i : int[0..2]\n"
        "print i;\nprint A[i];\nprint A[0]",
        ("IndexOutOfBounds", "A[2] with length 2"),
    ),
    "if guard divides by zero": (
        "hidden x : int[0..3]\nhidden y : int[0..3]\n"
        "print y;\nif 3 div x = y then y := 0 else y := 1 fi",
        ("DivisionByZero", "div by zero"),
    ),
    "while guard fails after k rounds": (
        "hidden A : array[2] of int[0..1]\nhidden n : int[0..3]\n"
        "n := 0;\nwhile A[n] = 0 do\n  n := n + 1\nod",
        ("IndexOutOfBounds", "A[2] with length 2"),
    ),
}


@pytest.mark.parametrize("passes", PASSES.values(), ids=PASSES)
@pytest.mark.parametrize("case", sorted(FAULTING))
def test_faulting_paths_match_the_reference(case, passes):
    src, (kind, message) = FAULTING[case]
    program = _program(src)
    exe = Executable(program)
    assert _compare(program, _top_level(program), passes)
    faults = [
        fin
        for s in exe.space.states()
        for fin in [exe._step(program.body)(s.values)[1]]
        if isinstance(fin, Exception)
    ]
    assert (type(faults[-1]).__name__, str(faults[-1])) == (kind, message)
    assert all(f.__traceback__ is None for f in faults)


def _reference_outcomes(program, bound):
    """The outcome table from the reference's run of the whole body from
    each state in turn: trace classes numbered by first arrival, each with
    its final's position among the declared states; the message when the
    bound was exceeded."""
    ref = ReferenceExecutable(program)
    position = {s.values: i for i, s in enumerate(ref.states())}
    traces, classes = {}, []
    for s in ref.states():
        trace, fin = _outcome(lambda: ref._exec(ref.program.body, s, bound)[:2])
        if trace is None:
            return fin
        if type(fin[0]) is type:  # a fault
            classes.append(None)
        else:
            c = traces.setdefault(trace, len(traces))
            classes.append((c, position[fin]))
    return classes


OUTCOME_PROGRAMS = {os.path.basename(p): p for p in CORPUS}
OUTCOME_PROGRAMS.update(NESTED)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", sorted(OUTCOME_PROGRAMS) + sorted(FAULTING))
def test_outcomes_match_the_reference(name, bound):
    # the grouped pass over the top-level statements numbers classes and
    # finals as a run of the whole body from each state in turn would
    if name in FAULTING:
        program = _program(FAULTING[name][0])
    elif name in NESTED:
        program = _program(NESTED[name])
    else:
        program = _corpus(OUTCOME_PROGRAMS[name])
    exe = Executable(program, bound)
    try:
        got = exe.outcomes()
    except LoopBoundExceeded as exc:
        got = str(exc)
    assert got == _reference_outcomes(program, bound)


def test_outcomes_number_by_first_arrival_not_by_push_order():
    # the first print splits h into {0, 2} and {1, 3}, so the groups come
    # out of the second print as h = 0, 2, 1, 3; a run of the whole body
    # from each state in turn meets them as h = 0, 1, 2, 3
    exe = Executable(
        _program("hidden h : int[0..3]\nprint h mod 2;\nprint h div 2")
    )
    assert exe.outcomes() == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_fault_keeps_the_observations_made_before_it():
    # the guard reads A[2] after two true tests: the trace keeps both, and
    # a bound of one round stops the same run before the fault
    program = _program(
        "hidden A : array[2] of int[0..1]\nhidden n : int[0..3]\n"
        "n := 0;\nwhile A[n] = 0 do\n  n := n + 1\nod"
    )
    trace, fin = Executable(program)._step(program.body)(((0, 0), 3))
    assert trace == (("branch", True), ("branch", True))
    assert str(fin) == "A[2] with length 2"
    with pytest.raises(LoopBoundExceeded):
        Executable(program, 1)._step(program.body)(((0, 0), 3))


# ---- generated programs


def _oracle_hyper(ref, bound):
    """`oracles.trace_hyper` of the uniform prior, with the reference's runs
    of the whole body as the step, as `{posterior: weight}`; None if some
    state's run fails or passes the bound."""
    body = ref.program.body
    try:
        runs = {s: ref._exec(body, s, bound)[:2] for s in ref.states()}
    except LoopBoundExceeded:
        return None
    if any(isinstance(fin, Exception) for _, fin in runs.values()):
        return None
    hyper = {}
    for weight, posterior in oracles.trace_hyper(
        oracles.uniform(ref.states()), runs.__getitem__
    ).values():
        key = frozenset(posterior.items())
        hyper[key] = hyper.get(key, 0) + weight
    return hyper


@settings(generated_settings())
@given(programs(), st.sampled_from([1, 3]))
def test_generated_programs_match_the_reference(source, bound):
    # the outcome table, every loop's rounds and head groups, and, where no
    # run fails, `run` under the uniform prior, each against the reference
    program = _program(source)
    exe, ref = Executable(program, bound), ReferenceExecutable(program)
    try:
        got = exe.outcomes()
    except LoopBoundExceeded as exc:
        got = str(exc)
    want = _reference_outcomes(program, bound)
    assert got == want
    for loop in _loops(program.body):
        got = _or_exceeded(lambda: exe.exit_rounds(loop))
        assert got == _or_exceeded(lambda: _reference_exit_rounds(ref, loop, bound))
        # where some run passes the bound the two disagree on the head
        # groups (test_loop_heads_before_a_later_loop_that_passes_the_bound)
        if type(want) is list:
            heads = _grouped(ref.loop_heads(loop, bound))
            assert exe.loop_head_groups(loop) == heads, loop
    want = _oracle_hyper(ref, bound)
    if want is not None:
        hyper = exe.run(uniform(exe.space.states()))
        assert {frozenset(d.entries): w for d, w in hyper.entries} == want


@pytest.mark.xfail(
    strict=True,
    reason="loop_head_groups runs only the statements on the path to the loop",
)
def test_loop_heads_before_a_later_loop_that_passes_the_bound():
    # a generated program: the reference runs the whole body from every
    # state before reading a loop's heads, so a later loop that passes the
    # bound raises; `loop_head_groups` answers for the first loop instead
    program = _program(
        "hidden x : int[0..1]\nwhile 0 = 1 do print 0 od;\nwhile 0 = 0 do x := 0 od"
    )
    first = _loops(program.body)[0]
    with pytest.raises(LoopBoundExceeded):
        list(ReferenceExecutable(program).loop_heads(first, 1))
    with pytest.raises(LoopBoundExceeded):
        Executable(program, 1).loop_head_groups(first)


# ---- stack use


NESTS = {
    "if": ("if x = 1 then ", " fi"),
    "if-sequence": ("if x = 1 then skip; ", " fi"),
    "while": ("while x = 1 do ", " od"),
    "while-sequence": ("while x = 1 do skip; ", " od"),
}


@pytest.mark.parametrize("nest", sorted(NESTS))
def test_each_nesting_level_takes_at_most_two_frames(nest):
    # the deepest nest the parser accepts, compiled and run under a
    # recursion limit of two frames a level plus a fixed allowance: a level
    # whose body is a sequence is two statement nodes, one frame each
    opener, closer = NESTS[nest]
    levels = MAX_DEPTH - 3
    exe = Executable(
        _program("hidden x : int[0..3]\n" + opener * levels + "x := 2" + closer * levels)
    )
    prior = uniform(exe.space.states())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 2 * levels + 20)
    try:
        hyper = exe.run(prior)
    finally:
        sys.setrecursionlimit(limit)
    assert len(hyper.weights) == 2  # x = 1 was seen, or it was not
