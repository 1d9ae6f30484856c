"""Reference tree-walking statement interpreter, kept only to test the
executor against.

`ReferenceExecutable` is the interpreter `semantics.Executable` used before
statements were compiled: `_exec` walks the statement tree state by state,
evaluating each expression with `eval_expr`, and keeps one table per
statement keyed by `State`.  `loop_rounds` and `loop_heads` read those tables
back the same way.
"""

from kuifje.core import State, all_states
from kuifje.errors import (
    DivisionByZero,
    DomainViolation,
    IndexOutOfBounds,
    LoopBoundExceeded,
)
from kuifje.lang import SAssign, SIf, SPrint, SSeq, SWhile, desugar_visible, eval_expr

# runtime errors that end a path; the tables record them
_FAULTS = (IndexOutOfBounds, DivisionByZero, DomainViolation)

_TRUE = ("branch", True)
_FALSE = ("branch", False)


def _bound_exceeded(bound):
    return LoopBoundExceeded(
        f"loop exceeded {bound} iterations; raise the loop bound or add an invariant"
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


class ReferenceExecutable:
    """A program, desugared once, with one lazily filled table per statement,
    mapping a State to the (trace, final, need) outcome that
    `semantics.Executable` documents."""

    def __init__(self, program):
        self.program = desugar_visible(program)
        self.decls = self.program.decls
        self._domains = {d.name: d.domain for d in self.decls}
        self._states = None
        self._tables = {}

    def states(self):
        """Every declared state, in canonical order."""
        if self._states is None:
            self._states = all_states(
                tuple(d.name for d in self.decls), [d.domain for d in self.decls]
            )
        return self._states

    # ---- the interpreter

    def _exec(self, stmt, state, bound):
        """The outcome of `stmt` from `state`, from its table or by running it."""
        table = self._tables.get(id(stmt))
        if table is None:
            table = self._tables[id(stmt)] = {}
        hit = table.get(state)
        if hit is not None:
            if hit[2] > bound:
                raise _bound_exceeded(bound)
            return hit
        trace = []
        cur = state
        need = 0
        try:
            if isinstance(stmt, SAssign):
                dom = self._domains[stmt.name]
                if stmt.index is None:
                    v = eval_expr(stmt.value, state)
                    if not dom.contains(v):
                        raise DomainViolation(
                            f"{stmt.name} := {v} leaves the declared domain {dom!r}"
                        )
                    cur = state.set(stmt.name, v)
                else:
                    i = eval_expr(stmt.index, state)
                    arr = state.get(stmt.name)
                    if not 0 <= i < len(arr):
                        raise IndexOutOfBounds(
                            f"{stmt.name}[{i}] with length {len(arr)}"
                        )
                    v = eval_expr(stmt.value, state)
                    if not dom.element.contains(v):
                        raise DomainViolation(
                            f"{stmt.name}[{i}] := {v} leaves the declared "
                            f"domain {dom.element!r}"
                        )
                    cur = state.set(stmt.name, arr[:i] + (v,) + arr[i + 1 :])
            elif isinstance(stmt, SPrint):
                trace.append(("print", eval_expr(stmt.expr, state)))
            elif isinstance(stmt, SSeq):
                for s in stmt.stmts:
                    t, cur, n = self._exec(s, cur, bound)
                    trace += t
                    if n > need:
                        need = n
                    if not isinstance(cur, State):
                        break
            elif isinstance(stmt, SIf):
                taken = bool(eval_expr(stmt.guard, state))
                trace.append(_TRUE if taken else _FALSE)
                branch = stmt.then if taken else stmt.els
                t, cur, need = self._exec(branch, state, bound)
                trace += t
            elif isinstance(stmt, SWhile):
                k = 0  # body executions along this path so far
                while isinstance(cur, State):
                    taken = bool(eval_expr(stmt.guard, cur))
                    trace.append(_TRUE if taken else _FALSE)
                    if not taken:
                        break
                    k += 1
                    if k > bound:
                        raise _bound_exceeded(bound)
                    if k > need:
                        need = k
                    t, cur, n = self._exec(stmt.body, cur, bound)
                    trace += t
                    if n > need:
                        need = n
            # SSkip leaves everything as it is
        except _FAULTS as exc:
            cur = exc.with_traceback(None)
        result = (tuple(trace), cur, need)
        table[state] = result
        return result

    # ---- loop heads, read back from the tables (nothing is evaluated here)

    def _heads(self, loop, state):
        """Each arrival at `loop`'s head when it runs from `state`, as (head
        state, length of the loop's trace before that guard test).

        Stops after a guard test that came out false or failed, or after a
        round whose body failed.  The loop's outcome from `state` must be in
        its table already.
        """
        trace = self._tables[id(loop)][state][0]
        pos = 0
        while True:
            yield state, pos
            if pos == len(trace) or trace[pos] == _FALSE:
                return
            t, state, _ = self._tables[id(loop.body)][state]
            if not isinstance(state, State):
                return
            pos += 1 + len(t)

    def loop_rounds(self, loop, state, bound):
        """How many guard tests come out true when `loop` runs alone from
        `state`, counting up to a runtime error that stops it."""
        trace = self._exec(loop, state, bound)[0]
        return sum(
            trace[pos] == _TRUE
            for _, pos in self._heads(loop, state)
            if pos < len(trace)
        )

    def loop_heads(self, loop, bound):
        """(observation history, state) at every arrival at `loop`'s head,
        over runs of the whole program from every declared state.

        Arrivals before a runtime error count, and so does a head whose guard
        test itself fails.
        """
        path = _enclosing(self.program.body, loop)
        for s0 in self.states():
            self._exec(self.program.body, s0, bound)
            yield from self._replay(self.program.body, s0, (), loop, path)

    def _replay(self, stmt, state, history, loop, path):
        """`loop_heads`'s pairs inside `stmt`, entered from `state` after
        `history`; descends only into the statements on `path`."""
        if isinstance(stmt, SSeq):
            for s in stmt.stmts:
                if id(s) in path:
                    yield from self._replay(s, state, history, loop, path)
                    return
                t, state, _ = self._tables[id(s)][state]
                history += t
                if not isinstance(state, State):
                    return
        elif isinstance(stmt, SIf):
            t = self._tables[id(stmt)][state][0]
            if t:  # the guard test did not fail
                branch = stmt.then if t[0] == _TRUE else stmt.els
                if id(branch) in path:
                    yield from self._replay(branch, state, history + t[:1], loop, path)
        else:  # `loop` itself, or a loop around it
            trace = self._tables[id(stmt)][state][0]
            for head, pos in self._heads(stmt, state):
                if stmt is loop:
                    yield history + trace[:pos], head
                elif pos < len(trace) and trace[pos] == _TRUE:
                    yield from self._replay(
                        stmt.body, head, history + trace[: pos + 1], loop, path
                    )
