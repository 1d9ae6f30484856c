"""Backwards analysis: the greatest pre-gain transformer.

For a program P and a post-gain E, `wp(P, E)` is a gain expression whose
value on any prior distribution equals E's value on the hyper produced by
running P forward from that prior.  The rules:

  skip            E
  x := e          E with e substituted for x (array writes blend positionally)
  print e         PLUS over the attainable values v of  [e = v] AND E
  if g ...        [g] AND pre(then, E)  PLUS  [not g] AND pre(else, E)
  while g ...     the loop annotation, after checking it is self-consistent;
                  without an annotation, bounded unfolding with a bound found
                  by running the loop from every declared state

Branches contribute PLUS because the adversary observes which branch ran and
may bet differently in each; the Iverson factors confine each side's atoms to
the states that can reach it.

An annotation V for `while g do B` must satisfy, at every loop head,

    V  ==  [g] AND pre(B, V)  PLUS  [not g] AND E.

The check is a falsifier: the equality is tested on the distributions an
observer can actually hold at the loop head.  Those are grouped by
observation history (running the whole program concretely from every declared
initial state; a path stopped by a runtime error is undefined, but the loop
heads it reached before the error count), and within each group the check
tries every point distribution plus seeded random ones.  Passing is evidence,
not proof; any failure comes with a concrete counterexample distribution.

Unfolding is exact: if every state exits the loop within k iterations, the
k-fold expansion with innermost term [not g] AND E is the loop's pre-gain.
Each unfolding step is renormalized to keep the expression from snowballing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import BoolDomain
from .core import all_states  # noqa: F401  perfbench/spans.py wraps wp.all_states
from .errors import (
    BoundTooSmall,
    InvariantCheckFailed,
    KuifjeError,
    LoopBoundExceeded,
    LoopNeedsInvariantOrBound,
)
from .gain import Canon, eval_atom_total, normalize, semantic_eq, simplify
from .lang import (
    EVAL_ERRORS,
    Bin,
    BoolLit,
    Cmp,
    GAnd,
    GAtom,
    GMax,
    GPlus,
    IntLit,
    Iverson,
    Not,
    SAssign,
    SIf,
    SPrint,
    SSeq,
    SSkip,
    SWhile,
    compile_expr,
    expr_to_source,
    gain_to_source,
    stmt_to_source,
    subst_array_elem,
    subst_array_elem_gain,
    subst_expr,
    subst_gain,
)
from .semantics import DEFAULT_LOOP_BOUND, Executable


@dataclass
class WpConfig:
    loop_bound: int = DEFAULT_LOOP_BOUND
    seed: int = 42
    simplify: bool = True
    unsound_no_branch_leak: bool = False
    force_unfold: bool = False
    unfold_depth: int | None = None
    trace: bool = False


@dataclass
class WpResult:
    pre: object  # GainExpr in normal form
    nf: object  # NormalForm
    trace: list = field(default_factory=list)

    def render(self):
        return self.nf.render()


def _value_lit(v):
    return BoolLit(v) if isinstance(v, bool) else IntLit(v)


class WpEngine:
    """Backwards transformer over one program, with shared canonical caches.

    `executable` runs the program concretely, for loop bounds and loop-head
    groups; callers running the same program forward can share it.
    """

    def __init__(self, program, config=None):
        self.config = config or WpConfig()
        self.executable = Executable(program)
        self.program = self.executable.program
        self.decls = self.program.decls
        self.domains = {d.name: d.domain for d in self.decls}
        self.canon = Canon(self.decls, self.executable.states)
        self.trace = []
        self._loop_bounds = {}

    def states(self):
        return self.executable.states()

    # ---- public entry

    def wp_program(self, post=None):
        post = post if post is not None else self.program.post
        if post is None:
            raise KuifjeError("program has no @post and no post-gain was given")
        if self.config.unsound_no_branch_leak:
            pre = self._unsound_pre(post)
        else:
            body = self.program.body
            pre = post
            for s in reversed(body.stmts if isinstance(body, SSeq) else (body,)):
                pre = self.wp(s, pre)
                if self.config.trace:
                    self._note(s, pre)
        if self.config.simplify:
            nf = simplify(pre, self.decls, self.canon)
        else:
            nf = normalize(pre, self.decls, self.canon)
        return WpResult(pre=nf.as_gain(), nf=nf, trace=list(self.trace))

    # ---- structural rules

    def wp(self, stmt, g):
        if isinstance(stmt, SSkip):
            return g
        if isinstance(stmt, SSeq):
            for s in reversed(stmt.stmts):
                g = self.wp(s, g)
            return g
        if isinstance(stmt, SAssign):
            return self._wp_assign(stmt, g)
        if isinstance(stmt, SPrint):
            return self._wp_print(stmt.expr, g)
        if isinstance(stmt, SIf):
            return GPlus(
                GAnd(Iverson(stmt.guard), self.wp(stmt.then, g)),
                GAnd(Iverson(Not(stmt.guard)), self.wp(stmt.els, g)),
            )
        if isinstance(stmt, SWhile):
            return self._wp_while(stmt, g)
        raise AssertionError(f"unhandled statement {stmt!r}")

    def _note(self, stmt, g):
        label = stmt_to_source(stmt).split("\n")[0].strip()
        self.trace.append((label, simplify(g, self.decls, self.canon).render()))

    def _wp_assign(self, stmt, g):
        if stmt.index is None:
            return subst_gain(g, stmt.name, stmt.value)
        dom = self.domains[stmt.name]
        return subst_array_elem_gain(
            g,
            stmt.name,
            stmt.index,
            stmt.value,
            dom.length,
            isinstance(dom.element, BoolDomain),
        )

    def _wp_print(self, expr, g):
        values = self._attained(expr)
        branches = [
            GAnd(Iverson(Cmp("=", expr, _value_lit(v))), g) for v in values
        ]
        out = branches[0]
        for b in branches[1:]:
            out = GPlus(out, b)
        return out

    def _attained(self, expr):
        """Values expr can take anywhere on the declared state space."""
        fn = compile_expr(expr, tuple(d.name for d in self.decls))
        seen = set()
        for s in self.states():
            try:
                seen.add(fn(s.values, None))
            except EVAL_ERRORS:
                continue
        if not seen:
            raise KuifjeError(
                f"expression {expr_to_source(expr)} has no value on any state"
            )
        return sorted(seen)

    # ---- loops

    def _wp_while(self, stmt, g):
        if stmt.invariant is not None and not self.config.force_unfold:
            return self._wp_while_invariant(stmt, g)
        return self._wp_while_unfold(stmt, g)

    def _loop_exit_bound(self, stmt):
        """Max guard-true count running the loop alone from every state."""
        if id(stmt) in self._loop_bounds:
            return self._loop_bounds[id(stmt)]
        cap = self.config.loop_bound
        try:
            # a runtime error ends the count: the program is undefined there
            worst = max(
                self.executable.loop_rounds(stmt, s, cap) for s in self.states()
            )
        except LoopBoundExceeded:
            raise LoopNeedsInvariantOrBound(
                f"loop at line {stmt.pos[0] if stmt.pos else '?'} does not "
                f"provably exit within {cap} iterations on the declared "
                "state space; annotate it or raise the loop bound"
            ) from None
        self._loop_bounds[id(stmt)] = worst
        return worst

    def _wp_while_unfold(self, stmt, g):
        k = self._loop_exit_bound(stmt)
        if self.config.unfold_depth is not None:
            if self.config.unfold_depth < k:
                raise BoundTooSmall(
                    f"loop needs {k} unfoldings, but only "
                    f"{self.config.unfold_depth} were allowed"
                )
            k = self.config.unfold_depth
        exit_side = GAnd(Iverson(Not(stmt.guard)), g)
        pre = exit_side  # innermost: the loop must have exited by now
        for _ in range(k):
            step = GPlus(
                GAnd(Iverson(stmt.guard), self.wp(stmt.body, pre)), exit_side
            )
            pre = simplify(step, self.decls, self.canon).as_gain()
        return pre

    def _wp_while_invariant(self, stmt, g):
        candidate = stmt.invariant
        rhs = GPlus(
            GAnd(Iverson(stmt.guard), self.wp(stmt.body, candidate)),
            GAnd(Iverson(Not(stmt.guard)), g),
        )
        lhs = candidate
        if self.config.simplify:
            # Both sides shrink once instead of being re-walked per
            # observation group.  This is not exact where a cancelled term
            # reads out of bounds (see Canon._shift_consts), so without
            # simplification the falsifier compares the raw gains.
            lhs = simplify(candidate, self.decls, self.canon).as_gain()
            rhs = simplify(rhs, self.decls, self.canon).as_gain()
        rng = random.Random(self.config.seed)
        for states in self._loop_head_groups(stmt):
            res = semantic_eq(lhs, rhs, self.decls, states=states, rng=rng)
            if not res:
                lhs_text = gain_to_source(candidate)
                rhs_text = (
                    f"[{expr_to_source(stmt.guard)}] AND pre(body, annotation) "
                    f"PLUS [not ({expr_to_source(stmt.guard)})] AND post"
                )
                raise InvariantCheckFailed(
                    "loop annotation is not self-consistent: on the reachable "
                    f"prior {res.counterexample!r} the annotation is worth "
                    f"{res.left} but one loop step is worth {res.right}",
                    equation=(lhs_text, rhs_text),
                    counterexample=res.counterexample,
                )
        return candidate

    def _loop_head_groups(self, target):
        """State sets an observer can hold at target's loop head.

        Runs the whole program from every declared initial state.  Two
        loop-head snapshots belong to the same group iff they carry the same
        observation history — exactly then can one posterior mix them.
        Groups are ordered deterministically (by the repr of the history,
        then state order): the falsifier draws its random priors group by
        group, so the order decides which counterexample is reported.
        """
        groups = {}
        for history, state in self.executable.loop_heads(
            target, self.config.loop_bound
        ):
            groups.setdefault(history, set()).add(state)
        return [sorted(groups[key]) for key in sorted(groups, key=repr)]

    # ---- deliberately leak-blind transformer (the unsound mode)

    def classical_pre(self, stmt, e):
        """Backwards expected-value transformer that ignores all observations.

        Maps a numeric expression to a numeric expression; branch structure
        becomes arithmetic mixing, so the adversary is (wrongly) assumed not
        to see which branch ran.
        """
        if isinstance(stmt, SSkip) or isinstance(stmt, SPrint):
            return e
        if isinstance(stmt, SSeq):
            for s in reversed(stmt.stmts):
                e = self.classical_pre(s, e)
            return e
        if isinstance(stmt, SAssign):
            if stmt.index is None:
                return subst_expr(e, stmt.name, stmt.value)
            dom = self.domains[stmt.name]
            return subst_array_elem(
                e,
                stmt.name,
                stmt.index,
                stmt.value,
                dom.length,
                isinstance(dom.element, BoolDomain),
            )
        if isinstance(stmt, SIf):
            t = self.classical_pre(stmt.then, e)
            f = self.classical_pre(stmt.els, e)
            mixed = Bin(
                "+",
                Bin("*", Iverson(stmt.guard), t),
                Bin("*", Iverson(Not(stmt.guard)), f),
            )
            return self.canon.canon_num(mixed)
        if isinstance(stmt, SWhile):
            k = self._loop_exit_bound(stmt)
            pre = Bin("*", Iverson(Not(stmt.guard)), e)
            for _ in range(k):
                step = Bin(
                    "+",
                    Bin("*", Iverson(stmt.guard), self.classical_pre(stmt.body, pre)),
                    Bin("*", Iverson(Not(stmt.guard)), e),
                )
                pre = self.canon.canon_num(step)
            return self.canon.canon_num(pre)
        raise AssertionError(f"unhandled statement {stmt!r}")

    def _unsound_pre(self, post):
        atoms = simplify(post, self.decls, self.canon).atoms
        pres = [
            self.canon.canon_num(self.classical_pre(self.program.body, a))
            for a in atoms
        ]
        out = GAtom(pres[0])
        for p in pres[1:]:
            out = GMax(out, GAtom(p))
        return out


def wp(program, post=None, config=None):
    """One-shot backwards analysis; see WpEngine for the rules."""
    return WpEngine(program, config).wp_program(post)


def classical_wp(program, expr, config=None):
    """Leak-blind pre-expectation of a numeric expression (oracle helper)."""
    engine = WpEngine(program, config)
    return engine.canon.canon_num(engine.classical_pre(engine.program.body, expr))


def classical_expectation(program, expr, dist, config=None):
    """Expected value of expr after a leak-blind run — via the backwards
    transformer, for cross-checking against forward classical_run."""
    pre = classical_wp(program, expr, config)
    total = 0
    for s, p in dist.entries:
        total += p * eval_atom_total(pre, s)
    return total
