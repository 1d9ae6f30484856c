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
the backwards analysis's loop-head groups, and `check`'s outcome table, and
they are freed with the object; a loop's exit bound is one memoised pass of
its body over the declared states, kept per loop.  The three passes share
one kernel, `_push`, and one group format, `{observation history: {values:
payload}}`: a statement runs every state of every group, and the states are
regrouped by the history they then have, equal values merged.  `run` pushes
a prior's integer weights through the top-level statements; `outcomes()`,
the table of each declared state's trace class and final that `check`
values every prior from without building a Hyper, pushes each state's index
list the same way; and the loop-head groups push distinct states (a None
payload) along the statements on the path to a loop.  The declared states
are the rows of a `core.Space`, values tuples in index order, and a final's
declared index is read off its values in closed form.  Inside the object a
state is its values tuple, and a State, Dist or Hyper is built only where a
result leaves; a prior over values tuples gives a Hyper over values tuples,
so the command line's `run` builds no State at all.
"""

from __future__ import annotations

from .core import BoolDomain, Dist, Hyper, Space, State
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


def _bound_exceeded(bound):
    return LoopBoundExceeded(
        f"loop exceeded {bound} iterations; raise the loop bound or add an "
        "invariant"
    )


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
    a `while` ran from to `(outcome, arrivals)`, the `(trace, final)` it
    returned and one `(length of the trace so far, head values)` pair per
    arrival at its head.  Later runs and `loop_head_groups` read that dict,
    so no loop runs twice from one state.  A sequence or `if` just runs its
    children.  `exit_rounds` keeps one number per loop, the most rounds the
    loop runs from any declared state, and writes nothing to the record.
    The whole body keeps one more table, `outcomes()`: each declared state's
    trace class and the declared index of its final, built by the push `run`
    makes the first time it is asked for.

    The declared states are `space`, a `core.Space`: its rows, the values
    tuples in index order, are what `exit_rounds`, `loop_head_groups` and
    `outcomes()` run from, and a values tuple's declared index is computed,
    not looked up.  Steps are kept by node identity, which stays unique
    because the object holds the program; no step refers back to the object
    or to a statement node, so the records die with it.  A State is built
    only where a result leaves the object.  Callers evaluating many priors
    keep one Executable (or a WpEngine's) so that each loop runs once from
    each state.
    """

    def __init__(self, program, loop_bound=DEFAULT_LOOP_BOUND):
        self.program = desugar_visible(program)
        self.decls = self.program.decls
        self.loop_bound = loop_bound
        self._names = tuple(d.name for d in self.decls)
        self.space = Space(self._names, [d.domain for d in self.decls])
        self._outcomes = None
        self._steps = {}
        self._loops = {}  # id of a while statement -> its record
        self._guards = {}  # id of a while statement -> its compiled guard
        self._exit_rounds = {}  # id of a while statement -> exit_rounds

    def outcomes(self):
        """`classes`: how the body ends from each declared state.

        `classes[i]` is `(c, f)` for the state at declared index i: c
        numbers its run's whole-body trace among the distinct ones, in order
        of first arrival, and f is the declared index of its final (every
        final is a declared state, since every assignment is checked against
        its domain).  It is None where a runtime error stops the run.

        It is the push `run` makes, of `{(): {values: [index]}}` through the
        body's top-level statements: each group's index lists say which
        declared states reached those values with that history, and each
        loop answers from its record for the states it already ran from.
        The groups are then taken in order of their least index, which is
        the order a run of the whole body from each state in turn first
        meets them.  The table is built on first use and dies with the
        object.  Grouping a prior's mass by trace class gives exactly
        `run`'s posteriors.
        """
        if self._outcomes is None:
            space = self.space
            groups = {(): {v: [i] for i, v in enumerate(space.rows)}}
            body = self.program.body
            for stmt in body.stmts if isinstance(body, SSeq) else (body,):
                groups = _push(self._step(stmt), groups)[0]
            ends = [
                (trace, fin, indices)
                for trace, group in groups.items()
                for fin, indices in group.items()
            ]
            ends.sort(key=lambda end: min(end[2]))
            classes = [None] * len(space)
            traces = {}
            for trace, fin, indices in ends:
                entry = traces.setdefault(trace, len(traces)), space.index(fin)
                for i in indices:
                    classes[i] = entry
            self._outcomes = classes
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
            guard = self._guards[id(stmt)] = compile_expr(stmt.guard, names)
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
                        raise _bound_exceeded(bound)
                    t, v = body(v)
                    trace += t
                    if type(v) is not tuple:
                        break
                outcome = tuple(trace), v
                loop[v0] = outcome, tuple(arrivals)
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

        Between statements the posteriors are the `{values: int}` groups of
        `_push`, keyed by observation history, whose weights share the
        prior's denominator; a Hyper is built only where one leaves.  A
        failing run raises the error met first in the canonical order of the
        hyper before the statement that fails: posteriors in order, states
        in order within each.
        """
        if type(prior.weights[0][0]) is State:
            names = self._names
            groups = {(): {s.values: w for s, w in prior.weights}}
        else:
            names = None
            groups = {(): dict(prior.weights)}
        body = self.program.body
        for stmt in body.stmts if isinstance(body, SSeq) else (body,):
            step = self._step(stmt)
            try:
                pushed, dropped = _push(step, groups)
            except LoopBoundExceeded:
                dropped = True
            if dropped:
                _raise_first(step, groups.values())
            groups = pushed
            if trace is not None:
                label = stmt_to_source(stmt).split("\n")[0].strip()
                trace.append((label, _hyper(groups.values(), names)))
        return _hyper(groups.values(), names)

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

    # ---- loop facts

    def exit_rounds(self, loop):
        """The most guard tests that come out true when `loop` runs alone
        from a declared state, counted as its `while` step counts them.

        Every head is a declared state, so one pass keeps `{head values:
        rounds}`: a state follows its chain of heads until it meets a known
        count and then unwinds it, so the body runs at most once per state
        whose guard holds.  A count over the bound, or a cycle, raises
        LoopBoundExceeded.  Only the maximum is kept, per loop, so a later
        request runs nothing.
        """
        most = self._exit_rounds.get(id(loop))
        if most is not None:
            return most
        self._step(loop)
        guard, body = self._guards[id(loop)], self._step(loop.body)
        bound = self.loop_bound
        counts = {}
        for v in self.space.rows:
            chain = {}  # the heads met since a known count
            while type(v) is tuple and v not in counts:
                try:
                    taken = guard(v, None)
                except _FAULTS:
                    taken = False
                if not taken:
                    counts[v] = 0
                    break
                if v in chain or len(chain) == bound:
                    raise _bound_exceeded(bound)
                chain[v] = None
                v = body(v)[1]
            count = counts.get(v, 0)  # 0 past a body that failed
            for v in reversed(chain):
                count += 1
                if count > bound:
                    raise _bound_exceeded(bound)
                counts[v] = count
        most = self._exit_rounds[id(loop)] = max(counts.values())
        return most

    def loop_head_groups(self, loop):
        """`{observation history: set of head values}` over every arrival at
        `loop`'s head, on runs of the whole program from every declared
        state.

        One pass pushes `{history: {values: None}}` groups through the
        statements on the path to the loop, by `_push` along a sequence, so
        equal states merge after each step, as `run`'s groups merge them,
        and each statement runs once per distinct state.  A path that a
        runtime error stops drops its state, but its arrivals before the
        error count, and so does a head whose guard test itself fails.
        """
        body = self.program.body
        heads = {}
        start = {(): dict.fromkeys(self.space.rows)}
        self._heads(body, start, loop, _enclosing(body, loop), heads)
        return heads

    def _heads(self, stmt, groups, loop, path, heads):
        """Add to `heads` the arrivals at `loop`'s head inside `stmt`,
        entered from the `{history: {values: None}}` groups; descends only
        into the statements on `path`."""
        if isinstance(stmt, SSeq):
            for s in stmt.stmts:
                if id(s) in path:
                    self._heads(s, groups, loop, path, heads)
                    return
                groups = _push(self._step(s), groups)[0]
            return
        step, out = self._step(stmt), {}
        if isinstance(stmt, SIf):
            # the states whose guard test chose the branch on the path
            on_then = id(stmt.then) in path
            taken = (_TRUE,) if on_then else (_FALSE,)
            for history, values in groups.items():
                for v in values:
                    if step(v)[0][:1] == taken:
                        out.setdefault(history + taken, {})[v] = None
            self._heads(stmt.then if on_then else stmt.els, out, loop, path, heads)
            return
        # `loop` itself, or a loop around it
        record = self._loops[id(stmt)]
        for history, values in groups.items():
            for v in values:
                trace = step(v)[0]
                for pos, head in record[v][1]:
                    if stmt is loop:
                        heads.setdefault(history + trace[:pos], set()).add(head)
                    elif trace[pos : pos + 1] == (_TRUE,):
                        out.setdefault(history + trace[: pos + 1], {})[head] = None
        if stmt is not loop:
            self._heads(stmt.body, out, loop, path, heads)


def _push(step, groups):
    """`{history: {values: payload}}` groups pushed through `step`: each
    group's states bucketed by the step's trace, and each bucket stored at
    `history + trace`, with the payloads of states that reach one final
    values tuple added by `+=`, so weights sum and index lists extend in
    place (a None payload stays None).  A state whose step ends in a runtime
    error is dropped; the second result says whether any was.

    Two buckets never land on one key: the histories of a statement prefix
    form a prefix-free set, so `h + t == h2 + t2` forces `h == h2`, and then
    `t == t2`.  Inside a loop body, where one run's histories extend each
    other, a history still fixes the path that made it, since every guard
    test is observed, so the same holds.
    """
    out = {}
    dropped = False
    for history, group in groups.items():
        buckets = {}
        for v, payload in group.items():
            trace, fin = step(v)
            if type(fin) is not tuple:
                dropped = True
                continue
            bucket = buckets.get(trace)
            if bucket is None:
                bucket = buckets[trace] = {}
            got = bucket.get(fin)
            if got is None:
                bucket[fin] = payload
            else:
                got += payload
                bucket[fin] = got
        for trace, bucket in buckets.items():
            out[history + trace] = bucket
    return out, dropped


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
