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

The check decides the equality on every distribution an observer can
actually hold at the loop head: those over one group of loop-head states
with the same observation history.  The groups come from one concrete pass
that pushes the sets of distinct states, from every declared initial state,
through the statements on the path to the loop (a path stopped by a runtime
error is undefined, but the loop heads it reached before the error count).
`gain.semantic_eq` decides each group exactly, sampling no priors, on the
equation as written: neither side is simplified first, so the decision is
the same with or without `--no-simplify`.  Every group of a loop is read on
the Canon's one evaluator over the declared space.  The groups are decided
in a fixed order, which fixes the reported counterexample: the first
violating point prior, else the optimal vertex of an exact LP.

Unfolding is exact: if every state exits the loop within k iterations, the
k-fold expansion with innermost term [not g] AND E is the loop's pre-gain.
Each unfolding step is renormalized to keep the expression from snowballing.

The unsound mode models a leak-blind adversary, one that commits to an action
before the run.  For the post MAX_i a_i its pre-gain is MAX_i wp(P, a_i), the
MAX taken outside, where sound wp is wp(P, MAX_i a_i).  A one-atom wp is the
classical pre-expectation (McIver and Morgan, 2005): the branches of an `if`
or a `print` sum into one mixed atom.  Each annotation speaks of the whole
post, so this mode unfolds every loop.
"""

from __future__ import annotations

from .core import BoolDomain
from .core import all_states  # noqa: F401  perfbench/spans.py wraps wp.all_states
from .errors import (
    BoundTooSmall,
    InvariantCheckFailed,
    KuifjeError,
    LoopBoundExceeded,
    LoopNeedsInvariantOrBound,
)
from .gain import Canon, GainEvaluator, balanced, normalize, semantic_eq, simplify
from .lang import (
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
    expr_to_source,
    gain_to_source,
    record,
    replace,
    stmt_to_source,
    subst_array_elem_gain,
    subst_gain,
)
from .semantics import DEFAULT_LOOP_BOUND, Executable


@record
class WpConfig:
    loop_bound: int = DEFAULT_LOOP_BOUND
    simplify: bool = True
    unsound_no_branch_leak: bool = False
    force_unfold: bool = False
    unfold_depth: int | None = None
    trace: bool = False


@record
class WpResult:
    pre: object  # GainExpr in normal form
    nf: object  # NormalForm
    trace: tuple = ()  # (statement, pre-gain) pairs when config.trace

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
        self.executable = Executable(program, self.config.loop_bound)
        self.program = self.executable.program
        self.decls = self.program.decls
        self.domains = {d.name: d.domain for d in self.decls}
        self.canon = Canon(self.decls, self.executable.space)

    # ---- public entry

    def wp_program(self, post=None):
        post = post if post is not None else self.program.post
        if post is None:
            raise KuifjeError("program has no @post and no post-gain was given")
        trace = []
        if self.config.unsound_no_branch_leak:
            pre = self._unsound_pre(post)
        else:
            body = self.program.body
            pre = post
            for s in reversed(body.stmts if isinstance(body, SSeq) else (body,)):
                pre = self.wp(s, pre)
                if self.config.trace:
                    label = stmt_to_source(s).split("\n")[0].strip()
                    trace.append(
                        (label, simplify(pre, self.decls, self.canon).render())
                    )
        if self.config.simplify:
            nf = simplify(pre, self.decls, self.canon)
        else:
            nf = normalize(pre, self.decls, self.canon)
        return WpResult(pre=nf.as_gain(), nf=nf, trace=tuple(trace))

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
            if stmt.invariant is None or self.config.force_unfold or (
                self.config.unsound_no_branch_leak
            ):
                return self._wp_while_unfold(stmt, g)
            return self._wp_while_invariant(stmt, g)
        raise AssertionError(f"unhandled statement {stmt!r}")

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
        # balanced, where a chain would be as deep as expr has values
        return balanced(
            GPlus, [GAnd(Iverson(Cmp("=", expr, _value_lit(v))), g) for v in values]
        )

    def _attained(self, expr):
        """Values expr can take anywhere on the declared state space: the
        values of its strict level set over that space
        (`GainEvaluator._levels`), read through the Canon's evaluator."""
        ev = self.canon.evaluator
        levels, _ = ev._levels(expr)
        if not levels:
            raise KuifjeError(
                f"expression {expr_to_source(expr)} has no value on any state"
            )
        return sorted(levels)

    # ---- loops

    def _loop_exit_bound(self, stmt):
        """Max guard-true count running the loop alone from every state, a
        runtime error ending it: `Executable.exit_rounds`, found once per
        loop however often the unfolding reaches it."""
        try:
            return self.executable.exit_rounds(stmt)
        except LoopBoundExceeded:
            raise LoopNeedsInvariantOrBound(
                f"loop at line {stmt.pos[0] if stmt.pos else '?'} does not "
                f"provably exit within {self.config.loop_bound} iterations on "
                "the declared state space; annotate it or raise the loop bound"
            ) from None

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
        groups = self._loop_head_groups(stmt)
        ev = self.canon.evaluator  # one evaluator over the declared space
        rhs = GAnd(Iverson(Not(stmt.guard)), g)
        # a loop no head state enters is decided without its body, whose
        # pre-gain is then never read
        entered = ev._test(stmt.guard, False)
        if any(entered >> i & 1 for group in groups for i in group):
            rhs = GPlus(GAnd(Iverson(stmt.guard), self.wp(stmt.body, candidate)), rhs)
        for group in groups:
            res = semantic_eq(candidate, rhs, self.decls, states=group, evaluator=ev)
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
        """The state sets an observer can hold at target's loop head, each
        as a sorted list of declared indices.

        `Executable.loop_head_groups` gives the head values by observation
        history, from one pass over the distinct states on the path to the
        loop: two loop-head snapshots belong to the same group iff they carry
        the same history, exactly then can one posterior mix them.  Groups
        are ordered deterministically (by the repr of the history, then
        state order, which is index order): they are decided one by one, so
        the order decides which counterexample is reported.
        """
        groups = self.executable.loop_head_groups(target)
        index = self.executable.space.index
        return [sorted(map(index, groups[key])) for key in sorted(groups, key=repr)]

    # ---- the leak-blind adversary (the unsound mode)

    def leak_blind_pre(self, atom):
        """wp of the one-atom post `atom`: one atom, or 0 for the empty form.

        On a leak-blind engine, which unfolds every loop, the unsound pre-gain
        of `MAX_i a_i` is `MAX_i leak_blind_pre(a_i)`; sound wp is
        `wp(P, MAX_i a_i)`."""
        nf = simplify(self.wp(self.program.body, GAtom(atom)), self.decls, self.canon)
        (pre,) = nf.atoms or (IntLit(0),)
        return pre

    def _unsound_pre(self, post):
        atoms = simplify(post, self.decls, self.canon).atoms
        # a balanced MAX, so a wide post stays clear of the recursion limit
        return balanced(GMax, [GAtom(self.leak_blind_pre(a)) for a in atoms])


def wp(program, post=None, config=None):
    """One-shot backwards analysis; see WpEngine for the rules."""
    return WpEngine(program, config).wp_program(post)


def classical_wp(program, expr, config=None):
    """Leak-blind pre-expectation of a numeric expression (oracle helper).

    It is sound wp of the one-atom post `expr`, every loop unfolded.  The
    leak-blind pre-gain of `MAX_i a_i` is `MAX_i classical_wp(P, a_i)`,
    where sound wp is `wp(P, MAX_i a_i)`."""
    config = replace(config or WpConfig(), unsound_no_branch_leak=True)
    return WpEngine(program, config).leak_blind_pre(expr)


def classical_expectation(program, expr, dist, config=None):
    """Expected value of expr after a leak-blind run — via the backwards
    transformer, for cross-checking against forward classical_run.  pre is
    valued as one column over dist's support, negative values included."""
    pre = classical_wp(program, expr, config)
    values = GainEvaluator(dist.support()).column(pre)
    return sum(p * v for (_, p), v in zip(dist.entries, values))
