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
regrouped by the history they then have, equal values merged.  Before each
push, the states of a group that differ only in the statement's kill set,
the variables every path through it assigns whole before reading them, are
merged into one (`Executable._merged`): such states reach one trace and one
final, so a statement runs once per state it can tell apart, and the push
gives the groups it gives unmerged.  `run` pushes
a prior's integer weights through the top-level statements; `outcomes()`,
the table of each declared state's trace class and final that `check`
values every prior from without building a Hyper, pushes each state's index
list the same way; and the loop-head groups push distinct states (a None
payload) along the statements on the path to a loop, and each loop on that
path one round at a time.  The declared states are the rows of a
`core.Space`, values tuples in index order, and a final's declared index is
read off its values in closed form.  Inside the object a state is its values
tuple, and a State, Dist or Hyper is built only where a result leaves; a
prior over values tuples, as a Dist or as the bare `{values: int}` weight
table that the command line's `run` passes, gives a Hyper over values
tuples, so that `run` builds no State at all.
"""

from __future__ import annotations

from operator import itemgetter

from .core import ArrayDomain, BoolDomain, Dist, Hyper, Space, State
from .errors import DivisionByZero, DomainViolation, IndexOutOfBounds, LoopBoundExceeded
from .lang import (
    BoolLit,
    Idx,
    IntLit,
    Mem,
    RatLit,
    SAssign,
    SIf,
    SPrint,
    SSeq,
    SWhile,
    Var,
    compile_expr,
    desugar_visible,
    map_expr,
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
    a `while` ran from to the `(trace, final)` it returned, so no loop runs
    twice from one state.  A sequence or `if` just runs its children.
    Each compiled statement also keeps its kill set, the variables every
    path through it assigns whole before reading them: a whole assignment
    `x := e` kills x unless e reads it, an element write kills nothing, a
    sequence kills what a part kills that no earlier part may read, an `if`
    what both branches kill and its guard does not read, and a `while`
    nothing.  Each push of a statement first merges the states that differ
    only there (`_merged`), so it runs once per state it can tell apart.
    `exit_rounds` keeps one number per loop, the most rounds the loop runs
    from any declared state, and `loop_head_groups` pushes a loop's rounds
    itself; neither reads the loop's record.
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
        self._least = tuple(_least(d.domain) for d in self.decls)
        self._outcomes = None
        self._steps = {}
        self._flows = {}  # id of a statement -> (reads, kills), as positions
        self._loops = {}  # id of a while statement -> its record
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
                groups = _push(self._step(stmt), self._merged(stmt, groups))[0]
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
        accepts stays clear of the recursion limit.  Compiling also keeps
        `_flows[id(stmt)]`, the positions of the variables the statement may
        read before it assigns them whole and of those it kills.
        """
        run = self._steps.get(id(stmt))
        if run is not None:
            return run
        names = self._names
        kills = _NONE
        if isinstance(stmt, SAssign):
            run = _assign(stmt, names, self.decls[names.index(stmt.name)].domain)
            reads = _reads(stmt.value, names)
            k = frozenset((names.index(stmt.name),))
            if stmt.index is None:
                kills = k - reads
            else:
                reads |= k | _reads(stmt.index, names)
        elif isinstance(stmt, SPrint):
            reads = _reads(stmt.expr, names)
            expr = compile_expr(stmt.expr, names)

            def run(v):
                try:
                    return (("print", expr(v)),), v
                except _FAULTS as exc:
                    return (), exc.with_traceback(None)

        elif isinstance(stmt, SSeq):
            steps = []
            reads = _NONE
            for s in stmt.stmts:
                steps.append(self._step(s))
                r, k = self._flows[id(s)]
                kills |= k - reads
                reads |= r - kills

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
            (r1, k1), (r2, k2) = self._flows[id(stmt.then)], self._flows[id(stmt.els)]
            tested = _reads(stmt.guard, names)
            reads, kills = tested | r1 | r2, (k1 & k2) - tested

            def run(v):
                try:
                    taken = guard(v)
                except _FAULTS as exc:
                    return (), exc.with_traceback(None)
                t, fin = (then if taken else els)(v)
                return (_TRUE if taken else _FALSE, *t), fin

        elif isinstance(stmt, SWhile):
            guard = compile_expr(stmt.guard, names)
            body = self._step(stmt.body)
            reads = _reads(stmt.guard, names) | self._flows[id(stmt.body)][0]
            bound = self.loop_bound
            loop = self._loops[id(stmt)] = {}

            def run(v0):
                hit = loop.get(v0)
                if hit is not None:
                    return hit
                v = v0
                trace = []
                k = 0  # body executions along this path so far
                while True:
                    try:
                        taken = guard(v)
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
                outcome = loop[v0] = tuple(trace), v
                return outcome

        else:  # SSkip leaves everything as it is
            reads = _NONE

            def run(v):
                return (), v

        self._steps[id(stmt)] = run
        self._flows[id(stmt)] = reads, kills
        return run

    def _merged(self, stmt, groups):
        """`groups` as the compiled step of `stmt` can tell them apart:
        within each group the states that differ only in what `stmt` kills
        are merged into one, whose killed variables hold their least
        declared values, with their payloads added by `+=` as `_push` adds
        them.

        Every path through `stmt` assigns each killed variable whole before
        it reads it, so all the states merged into one reach one trace and
        one final, or one runtime error, and pushing the merged groups
        gives the groups that pushing `groups` gives, in the same order.
        Only the index lists' order inside a payload may differ.
        """
        kills = self._flows[id(stmt)][1]
        if not kills:
            return groups
        least = self._least
        keep = [k for k in range(len(least)) if k not in kills]
        project = itemgetter(*keep) if keep else (lambda v: ())
        out = {}
        for history, group in groups.items():
            merged, firsts = {}, []
            for v, payload in group.items():
                key = project(v)
                got = merged.get(key)
                if got is None:  # a new key, or a None payload
                    if key not in merged:
                        firsts.append(v)
                    merged[key] = payload
                else:
                    got += payload
                    merged[key] = got
            group = out[history] = {}
            for v, payload in zip(firsts, merged.values()):
                w = list(v)
                for k in kills:
                    w[k] = least[k]
                group[tuple(w)] = payload
        return out

    # ---- forward runs

    def run(self, prior, trace=None):
        """The program as a Hyper transformer, applied to `prior`.

        `prior` is a Dist over States, a Dist over values tuples laid out as
        the declarations, or the weight table `{values: positive int}` of
        one, which is read as it is, in any order; the posteriors of the
        result are over States for the first, and over values tuples
        otherwise.
        `trace`, if given, is a list that receives (label, hyper) snapshots
        after each top-level statement.

        Between statements the posteriors are the `{values: int}` groups of
        `_push`, keyed by observation history, whose weights are the prior's
        integer weights; a Hyper is built only where one leaves.  Each
        statement is pushed from the groups merged on its kill set.  A
        failing run raises the error met first in the canonical order of the
        hyper before the statement that fails: posteriors in order, states
        in order within each.  `_raise_first` finds it in the unmerged
        groups: a merged state holds its killed variables' least values, so
        merging can move a posterior, or a state within one, ahead of the
        one that fails first.
        """
        if type(prior) is dict:
            names = None
            groups = {(): prior}
        elif type(prior.weights[0][0]) is State:
            names = self._names
            groups = {(): {s.values: w for s, w in prior.weights}}
        else:
            names = None
            groups = {(): dict(prior.weights)}
        body = self.program.body
        for stmt in body.stmts if isinstance(body, SSeq) else (body,):
            step = self._step(stmt)
            try:
                pushed, dropped = _push(step, self._merged(stmt, groups))
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
        guard = compile_expr(loop.guard, self._names)
        body = self._step(loop.body)
        bound = self.loop_bound
        counts = {}
        for v in self.space.rows:
            chain = {}  # the heads met since a known count
            while type(v) is tuple and v not in counts:
                try:
                    taken = guard(v)
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
        `loop`'s head, for every declared state whose run reaches it.

        Only the statements on the path to the loop run (`_heads`): a later
        statement, or the other branch of an `if` on the path, runs from no
        state, so a loop there that passes the bound goes unseen.  The pass
        pushes `{history: {values: None}}` groups by `_push`, so equal states
        merge after each step, as `run`'s groups merge them, and each push
        runs a statement once per state and history it can tell apart
        (`_merged`); a loop around
        the target also pushes its whole body, target included, to reach its
        next round.  A path that a runtime error stops drops its state, but
        its arrivals before the error count, and so does a head whose guard
        test itself fails.
        """
        body = self.program.body
        heads = {}
        start = {(): dict.fromkeys(self.space.rows)}
        self._heads(body, start, loop, _enclosing(body, loop), heads)
        return heads

    def _heads(self, stmt, groups, loop, path, heads):
        """Add to `heads` the arrivals at `loop`'s head inside `stmt`,
        entered from the `{history: {values: None}}` groups; descends only
        into the statements on `path`.

        A sequence pushes the statements before the one on the path.  An
        `if` keeps the states whose guard picks the branch on the path and
        runs neither branch.  A loop, `loop` itself or one around it, runs
        one round at a time: each group's states are heads under its
        history, those whose guard holds enter the body at `history +
        (("branch", True),)`, and the body pushed from them gives the next
        round's heads.  States still entering after `loop_bound` rounds
        raise LoopBoundExceeded, as the loop's step does.  Every push, of a
        statement before the one on the path or of a loop's body, is made
        from the groups merged on that statement's kill set.
        """
        if isinstance(stmt, SSeq):
            for s in stmt.stmts:
                if id(s) in path:
                    self._heads(s, groups, loop, path, heads)
                    return
                groups = _push(self._step(s), self._merged(s, groups))[0]
            return
        guard = compile_expr(stmt.guard, self._names)
        if isinstance(stmt, SIf):
            on_then = id(stmt.then) in path
            out = _choose(guard, groups, _TRUE if on_then else _FALSE)
            self._heads(stmt.then if on_then else stmt.els, out, loop, path, heads)
            return
        body, bound, rounds = self._step(stmt.body), self.loop_bound, 0
        while True:
            if stmt is loop:
                for history, values in groups.items():
                    heads.setdefault(history, set()).update(values)
            groups = _choose(guard, groups, _TRUE)
            if not groups:
                return
            rounds += 1
            if rounds > bound:
                raise _bound_exceeded(bound)
            if stmt is not loop:
                self._heads(stmt.body, groups, loop, path, heads)
            groups = _push(body, self._merged(stmt.body, groups))[0]


_NONE = frozenset()


def _reads(e, names):
    """The positions in `names` of the variables expression `e` reads."""
    out, todo = set(), [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Var):
            out.add(names.index(e.name))
        elif not isinstance(e, (IntLit, RatLit, BoolLit)):  # a leaf reads nothing
            if isinstance(e, (Idx, Mem)):
                out.add(names.index(e.name if isinstance(e, Idx) else e.array))
            # map_expr hands over each direct sub-expression; kept unchanged
            map_expr(e, lambda sub, into: into.append(sub) or sub, todo)
    return frozenset(out)


def _least(dom):
    """The first value `dom` lists."""
    element = dom.element if isinstance(dom, ArrayDomain) else dom
    least = False if isinstance(element, BoolDomain) else element.lo
    return least if element is dom else (least,) * dom.length


def _choose(guard, groups, taken):
    """The states of `{history: {values: None}}` groups whose guard test
    makes the branch observation `taken`, each group stored at `history +
    (taken,)`; a state whose test fails is dropped."""
    out = {}
    for history, values in groups.items():
        chosen = {}
        for v in values:
            try:
                if bool(guard(v)) is taken[1]:
                    chosen[v] = None
            except _FAULTS:
                pass
        if chosen:
            out[history + (taken,)] = chosen
    return out


def _push(step, groups):
    """`{history: {values: payload}}` groups pushed through `step`: each
    group's states bucketed by the step's trace, and each bucket stored at
    `history + trace`, with the payloads of states that reach one final
    values tuple added by `+=`, so weights sum and index lists extend in
    place (a None payload stays None).  A state whose step ends in a runtime
    error is dropped; the second result says whether any was.

    Every caller passes the groups merged on the statement's kill set
    (`Executable._merged`), so that the step runs once per state it can
    tell apart; the groups pushed are the same either way.

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
                x = value(v)
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
            i = index(v)
            arr = v[k]
            if not 0 <= i < len(arr):
                raise IndexOutOfBounds(f"{name}[{i}] with length {len(arr)}")
            x = value(v)
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
