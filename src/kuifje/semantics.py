"""Forward semantics: programs as transformers of hyper-distributions.

Running a program against a prior produces a Hyper: the exact distribution
over posterior distributions an observer reaches by watching the program's
observable behaviour.  Observables are print statements, branch decisions
(every guard evaluation leaks which way it went, including the final false
test of a while loop), and assignments to `visible` variables (desugared to
prints).  Assignments to hidden state update the inner distributions without
splitting them.

`classical_run` is the leak-blind counterpart: it forgets every observation
and returns the ordinary output distribution.  Averaging a run's Hyper always
reproduces it, which is the package's leak-erasure sanity law.

All concrete execution goes through one `Executable` per program.  Its
compiled statements and its loops' recorded outcomes serve every run on it,
the backwards analysis's loop bounds and loop-head groups, and `check`'s
outcome table, and they are freed with the object.  The loop-head groups
come from one pass that pushes sets of distinct states, keyed by
observation history, through the statements on the path to the loop.  The
outcome table, each declared state's trace class and final state, comes
from one pass of the declared states through the top-level statements,
equal states merged after each; `check` values every prior from it without
building a Hyper.  Inside the object a state is its values tuple and a
posterior is a `{values: int}` group of integer weights; a State, Dist or
Hyper is built only where a result leaves, and a prior over values tuples
gives a Hyper over values tuples, so the command line's `run` builds no
State at all.
"""

from __future__ import annotations

from .core import BoolDomain, Dist, Hyper, State, all_states
from .errors import DivisionByZero, DomainViolation, IndexOutOfBounds, LoopBoundExceeded
from .lang import (
    SAssign,
    SIf,
    SPrint,
    SSeq,
    SWhile,
    compile_expr,
    desugar_visible,
    stmt_to_source,
)

DEFAULT_LOOP_BOUND = 10000

# Runtime errors that end a path.  A step returns them as its final state
# and a loop records them; `run` and `classical_run` raise them, the
# backwards analysis treats the path as undefined.
_FAULTS = (IndexOutOfBounds, DivisionByZero, DomainViolation)

_TRUE = ("branch", True)
_FALSE = ("branch", False)


def _raise(fault):
    # A fresh copy: the recorded error must not carry a traceback, which
    # would keep the frames of the run that raised it alive.
    raise type(fault)(*fault.args)


def _enclosing(stmt, target):
    """Ids of the statements from `stmt` down to `target`; empty if absent."""
    if stmt is target:
        return {id(stmt)}
    if isinstance(stmt, SSeq):
        children = stmt.stmts
    elif isinstance(stmt, SIf):
        children = (stmt.then, stmt.els)
    elif isinstance(stmt, SWhile):
        children = (stmt.body,)
    else:
        children = ()
    for child in children:
        path = _enclosing(child, target)
        if path:
            path.add(id(stmt))
            return path
    return set()


class Executable:
    """A program, desugared once, with each statement compiled once into a
    step over a state's values tuple, laid out as the declarations, and one
    loop bound for every run on it.

    Statements are deterministic, so a statement run from a state has one
    outcome.  A step maps the values to (trace, final):

    - `trace` is the observations in order: ("branch", taken) for each guard
      test, ("print", value) for each print;
    - `final` is the values tuple it ends in or, on a path a runtime error
      stopped, that error, with `trace` the observations made before it.

    A loop that runs more than `loop_bound` rounds raises LoopBoundExceeded
    and records nothing, so every recorded outcome holds for the object's
    bound; a caller that wants another bound builds another Executable.

    Only loops keep what they ran: `_loops[id(stmt)]` maps each values tuple
    a `while` ran from to `(outcome, rounds, arrivals)`, the `(trace, final)`
    it returned, the guard tests that came out true, and one `(length of the
    trace so far, head values)` pair per arrival at its head.  Later runs and
    the backwards analysis's loop facts, `loop_rounds` and
    `loop_head_groups`, read that dict, so no loop runs twice from one
    state.  A sequence or `if` just runs its children.  The whole body keeps
    one more table, `outcomes()`: each declared state's trace class and
    final, built the first time it is asked for.

    Steps are kept by node identity, which stays unique because the object
    holds the program; no step refers back to the object or to a statement
    node, so the records die with it.  A State is built only where a result
    leaves the object.  Callers evaluating many priors keep one Executable
    (or a WpEngine's) so that each loop runs once from each state.
    """

    def __init__(self, program, loop_bound=DEFAULT_LOOP_BOUND):
        self.program = desugar_visible(program)
        self.decls = self.program.decls
        self.loop_bound = loop_bound
        self._names = tuple(d.name for d in self.decls)
        self._states = None
        self._outcomes = None
        self._steps = {}
        self._loops = {}  # id of a while statement -> its record

    def states(self):
        """Every declared state, in canonical order."""
        if self._states is None:
            self._states = all_states(self._names, [d.domain for d in self.decls])
        return self._states

    def outcomes(self):
        """`(classes, finals)`: how the body ends from each declared state.

        `finals` lists the distinct final States of the runs that end
        without a runtime error, in order of first arrival; `classes[i]` is
        `(c, f)` for the i-th of `states()`: c numbers its run's whole-body
        trace among the distinct ones, in order of first arrival, and f its
        final in `finals`.  It is None where a runtime error stops the run.

        One pass pushes the declared states, in order, through the body's
        top-level statements, merging the states that reach the same
        values with the same trace after each one, as `run` merges its
        groups; each loop answers from its record for the states it
        already ran from.  The table is built on first use and dies with
        the object.

        Grouping a prior's mass by trace class gives exactly `run`'s
        posteriors.  On a path with no runtime error each statement's
        traces form a prefix-free set: an assignment leaves the empty
        trace, a print one entry, an `if` its branch decision followed by
        one of a prefix-free set, a `;` a concatenation of prefix-free
        sets, and a `while` rounds that each start with a true test, ended
        by the false one.  So a whole-body trace splits back into its
        top-level statements' traces in one way only.
        """
        if self._outcomes is None:
            body = self.program.body
            first, *rest = body.stmts if isinstance(body, SSeq) else (body,)
            # {(trace so far, values): indices of the states there}, kept in
            # order of their first state, so first arrivals come in order
            groups = {}
            step = self._step(first)
            for i, s in enumerate(self.states()):
                _merge(groups, *step(s.values), [i])
            for stmt in rest:
                step, out = self._step(stmt), {}
                for (trace, v), indices in groups.items():
                    t, fin = step(v)
                    _merge(out, trace + t, fin, indices)
                groups = out
            classes = [None] * len(self.states())
            traces, finals = {}, {}
            for (trace, fin), indices in groups.items():
                entry = (
                    traces.setdefault(trace, len(traces)),
                    finals.setdefault(fin, len(finals)),
                )
                for i in indices:
                    classes[i] = entry
            names = self._names
            self._outcomes = classes, [State(names, f) for f in finals]
        return self._outcomes

    # ---- compiling statements into steps

    def _step(self, stmt):
        """`stmt` as `run(values) -> (trace, final)`, compiled on first use
        together with its children, catching the runtime errors of its own
        expressions and assignment.

        The run of a `while` answers from its loop's record where it can;
        every other statement just runs.  Compiling and running each take
        one frame per statement node, so that the deepest nesting the parser
        accepts stays clear of the recursion limit.
        """
        run = self._steps.get(id(stmt))
        if run is not None:
            return run
        names = self._names
        if isinstance(stmt, SAssign):
            run = _assign(stmt, names, self.decls[names.index(stmt.name)].domain)
        elif isinstance(stmt, SPrint):
            expr = compile_expr(stmt.expr, names)

            def run(v):
                try:
                    return (("print", expr(v, None)),), v
                except _FAULTS as exc:
                    return (), exc.with_traceback(None)

        elif isinstance(stmt, SSeq):
            steps = []
            for s in stmt.stmts:
                steps.append(self._step(s))

            def run(v):
                trace = []
                for step in steps:
                    t, v = step(v)
                    trace += t
                    if type(v) is not tuple:
                        break
                return tuple(trace), v

        elif isinstance(stmt, SIf):
            guard = compile_expr(stmt.guard, names)
            then, els = self._step(stmt.then), self._step(stmt.els)

            def run(v):
                try:
                    taken = guard(v, None)
                except _FAULTS as exc:
                    return (), exc.with_traceback(None)
                t, fin = (then if taken else els)(v)
                return (_TRUE if taken else _FALSE, *t), fin

        elif isinstance(stmt, SWhile):
            guard = compile_expr(stmt.guard, names)
            body = self._step(stmt.body)
            bound = self.loop_bound
            loop = self._loops[id(stmt)] = {}

            def run(v0):
                hit = loop.get(v0)
                if hit is not None:
                    return hit[0]
                v = v0
                trace = []
                arrivals = []
                k = 0  # body executions along this path so far
                while True:
                    arrivals.append((len(trace), v))
                    try:
                        taken = guard(v, None)
                    except _FAULTS as exc:
                        v = exc.with_traceback(None)
                        break
                    if not taken:
                        trace.append(_FALSE)
                        break
                    trace.append(_TRUE)
                    k += 1
                    if k > bound:
                        raise LoopBoundExceeded(
                            f"loop exceeded {bound} iterations; raise the loop "
                            "bound or add an invariant"
                        )
                    t, v = body(v)
                    trace += t
                    if type(v) is not tuple:
                        break
                outcome = tuple(trace), v
                loop[v0] = outcome, k, tuple(arrivals)
                return outcome

        else:  # SSkip leaves everything as it is

            def run(v):
                return (), v

        self._steps[id(stmt)] = run
        return run

    # ---- forward runs

    def run(self, prior, trace=None):
        """The program as a Hyper transformer, applied to `prior`.

        `prior` is a Dist over States, or over values tuples laid out as the
        declarations; the posteriors of the result are over the same kind.
        `trace`, if given, is a list that receives (label, hyper) snapshots
        after each top-level statement.

        Between statements the posteriors are `{values: int}` groups whose
        weights share the prior's denominator: each statement pushes every
        group's states through its step and splits the group by trace.  A
        Hyper is built only where one leaves.  A failing run raises the error
        met first in the canonical order of the hyper before the statement
        that fails: posteriors in order, states in order within each.
        """
        if type(prior.weights[0][0]) is State:
            names = self._names
            groups = [{s.values: w for s, w in prior.weights}]
        else:
            names = None
            groups = [dict(prior.weights)]
        body = self.program.body
        for stmt in body.stmts if isinstance(body, SSeq) else (body,):
            step = self._step(stmt)
            try:
                groups = _split(step, groups)
            except (LoopBoundExceeded, *_FAULTS):
                _raise_first(step, groups)
                raise
            if trace is not None:
                label = stmt_to_source(stmt).split("\n")[0].strip()
                trace.append((label, _hyper(groups, names)))
        return _hyper(groups, names)

    def classical_run(self, prior):
        """Run forgetting all observations: the plain output distribution."""
        step = self._step(self.program.body)
        acc = {}
        for s, v in prior.weights:
            fin = step(s.values)[1]
            if type(fin) is not tuple:
                _raise(fin)
            acc[fin] = acc.get(fin, 0) + v
        names = self._names
        return Dist.from_weights({State(names, f): n for f, n in acc.items()})

    # ---- loop facts, read from the while steps' records

    def loop_rounds(self, loop, state):
        """How many guard tests come out true when `loop` runs alone from
        `state`, counting up to a runtime error that stops it."""
        self._step(loop)(state.values)
        return self._loops[id(loop)][state.values][1]

    def loop_head_groups(self, loop):
        """`{observation history: set of head values}` over every arrival at
        `loop`'s head, on runs of the whole program from every declared
        state.

        One pass pushes `{history: set of values}` groups through the
        statements on the path to the loop, so equal states merge after each
        step, as `run`'s groups merge them, and each statement runs once per
        distinct state.  A path that a runtime error stops drops its state,
        but its arrivals before the error count, and so does a head whose
        guard test itself fails.
        """
        body = self.program.body
        heads = {}
        start = {(): {s.values for s in self.states()}}
        self._heads(body, start, loop, _enclosing(body, loop), heads)
        return heads

    def _heads(self, stmt, groups, loop, path, heads):
        """Add to `heads` the arrivals at `loop`'s head inside `stmt`,
        entered from the `{history: set of values}` groups; descends only
        into the statements on `path`."""
        if isinstance(stmt, SSeq):
            for s in stmt.stmts:
                if id(s) in path:
                    self._heads(s, groups, loop, path, heads)
                    return
                step, out = self._step(s), {}
                for history, values in groups.items():
                    for v in values:
                        t, fin = step(v)
                        if type(fin) is tuple:
                            out.setdefault(history + t, set()).add(fin)
                groups = out
            return
        step, out = self._step(stmt), {}
        if isinstance(stmt, SIf):
            # the states whose guard test chose the branch on the path
            on_then = id(stmt.then) in path
            taken = (_TRUE,) if on_then else (_FALSE,)
            for history, values in groups.items():
                for v in values:
                    if step(v)[0][:1] == taken:
                        out.setdefault(history + taken, set()).add(v)
            self._heads(stmt.then if on_then else stmt.els, out, loop, path, heads)
            return
        # `loop` itself, or a loop around it
        record = self._loops[id(stmt)]
        for history, values in groups.items():
            for v in values:
                trace = step(v)[0]
                for pos, head in record[v][2]:
                    if stmt is loop:
                        heads.setdefault(history + trace[:pos], set()).add(head)
                    elif trace[pos : pos + 1] == (_TRUE,):
                        out.setdefault(history + trace[: pos + 1], set()).add(head)
        if stmt is not loop:
            self._heads(stmt.body, out, loop, path, heads)


def _merge(groups, trace, fin, indices):
    """Add the state indices `indices`, which reach `fin` with `trace`, to
    `groups`; a runtime error drops them."""
    if type(fin) is tuple:
        key = trace, fin
        got = groups.get(key)
        if got is None:
            groups[key] = indices
        else:
            got += indices


def _split(step, groups):
    """Each `{values: int}` group pushed through `step` and split by trace;
    raises the first runtime error it meets."""
    out = []
    for group in groups:
        buckets = {}
        for v, w in group.items():
            trace, fin = step(v)
            if type(fin) is not tuple:
                _raise(fin)
            bucket = buckets.get(trace)
            if bucket is None:
                bucket = buckets[trace] = {}
            bucket[fin] = bucket.get(fin, 0) + w
        out += buckets.values()
    return out


def _raise_first(step, groups):
    """Raise the runtime error that `step` meets first in the canonical order
    of the hyper of `groups`, a loop over its bound included."""
    for inner in _hyper(groups, None).inners():
        for v, _ in inner.weights:
            fin = step(v)[1]
            if type(fin) is not tuple:
                _raise(fin)


def _hyper(groups, names):
    """The Hyper of `{values: int}` groups: over Dists over States named by
    `names`, or over values tuples if `names` is None."""
    acc = {}
    for group in groups:
        if names is not None:
            group = {State(names, v): w for v, w in group.items()}
        inner = Dist.from_weights(group)
        acc[inner] = acc.get(inner, 0) + sum(group.values())
    return Hyper.from_weights(acc)


def _assign(stmt, names, dom):
    """The run of an assignment to `stmt.name`, declared over `dom`, whose
    values sit at `names.index(stmt.name)`.  The scalar domain it writes is
    checked as `type(x) is kind and lo <= x <= hi`."""
    name = stmt.name
    k = names.index(name)
    value = compile_expr(stmt.value, names)
    target = dom if stmt.index is None else dom.element
    if isinstance(target, BoolDomain):
        kind, lo, hi = bool, False, True
    else:
        kind, lo, hi = int, target.lo, target.hi
    if stmt.index is None:

        def run(v):
            try:
                x = value(v, None)
                if not (type(x) is kind and lo <= x <= hi):
                    raise DomainViolation(
                        f"{name} := {x} leaves the declared domain {target!r}"
                    )
            except _FAULTS as exc:
                return (), exc.with_traceback(None)
            w = list(v)
            w[k] = x
            return (), tuple(w)

        return run
    index = compile_expr(stmt.index, names)

    def run(v):
        try:
            i = index(v, None)
            arr = v[k]
            if not 0 <= i < len(arr):
                raise IndexOutOfBounds(f"{name}[{i}] with length {len(arr)}")
            x = value(v, None)
            if not (type(x) is kind and lo <= x <= hi):
                raise DomainViolation(
                    f"{name}[{i}] := {x} leaves the declared domain {target!r}"
                )
        except _FAULTS as exc:
            return (), exc.with_traceback(None)
        a = list(arr)
        a[i] = x
        w = list(v)
        w[k] = tuple(a)
        return (), tuple(w)

    return run


def run(program, prior, loop_bound=DEFAULT_LOOP_BOUND, trace=None):
    """One-shot `Executable(program, loop_bound).run(...)`: the loop records
    die with the call."""
    return Executable(program, loop_bound).run(prior, trace)


def classical_run(program, prior, loop_bound=DEFAULT_LOOP_BOUND):
    """One-shot `Executable(program, loop_bound).classical_run(...)`."""
    return Executable(program, loop_bound).classical_run(prior)
