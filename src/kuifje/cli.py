"""Command-line front end.

Subcommands:
  run    — run a program forward from a prior; print the output hyper
  wp     — compute the canonical pre-gain of a program's @post (or --post)
  check  — verify pre-gain-on-prior == post-gain-on-hyper over many priors
  eval   — evaluate a gain expression on a prior or on a saved hyper

Exit codes: 0 success; 1 check found a mismatch; 2 parse/type/input error;
3 a resource limit was hit (loop iterations, or expression depth built by
the analysis); 4 a loop annotation failed its consistency check.

All probabilities are exact rationals.  Table output prints them as `p/q`
(integers bare); JSON output always uses the `n/d` form, `0/1` and `1/1`
included.  Output is deterministic: same inputs, same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .core import Dist, Hyper, State, _fmt_value, all_states, point, uniform
from .errors import (
    BoundTooSmall,
    InvariantCheckFailed,
    KuifjeError,
    LoopBoundExceeded,
    LoopNeedsInvariantOrBound,
)
from .gain import GainEvaluator, eval_gain, eval_gain_hyper, random_weights
from .lang import check_gain, check_program, parse_gain, parse_program
from .semantics import run as run_forward
from .wp import DEFAULT_LOOP_BOUND, WpConfig, WpEngine

# ---------------------------------------------------------------- formatting


def _frac_json(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _frac_table(q):
    return str(Fraction(q))


def _state_line(state):
    return " ".join(f"{n}={_fmt_value(v)}" for n, v in state.bindings().items())


def _state_json(state):
    out = {}
    for n, v in state.bindings().items():
        out[n] = list(v) if isinstance(v, tuple) else v
    return out


def _color_enabled():
    if os.environ.get("QIF_COLOR") == "0":
        return False
    return sys.stdout.isatty()


def _mark(word, color):
    if not _color_enabled():
        return word
    code = {"green": "32", "red": "31"}[color]
    return f"\x1b[{code}m{word}\x1b[0m"


# ---------------------------------------------------------------- priors


def _parse_value(text):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        if not body:
            return ()
        return tuple(_parse_value(part) for part in body.split(","))
    try:
        return int(text)
    except ValueError:
        raise KuifjeError(f"bad value {text!r} in prior") from None


def _prob(text):
    """An exact probability from its text, or a KuifjeError naming the text."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise KuifjeError(f"bad probability {text!r}") from None


def _parse_bindings(text, decls):
    by_name = {d.name: d for d in decls}
    got = {}
    for piece in text.split():
        if "=" not in piece:
            raise KuifjeError(f"bad binding {piece!r} in prior (want name=value)")
        name, _, val = piece.partition("=")
        if name not in by_name:
            raise KuifjeError(f"prior binds undeclared variable {name!r}")
        v = _parse_value(val)
        if not by_name[name].domain.contains(v):
            raise KuifjeError(f"prior value {name}={val} is outside its domain")
        got[name] = v
    missing = [d.name for d in decls if d.name not in got]
    if missing:
        raise KuifjeError(f"prior line leaves {', '.join(missing)} unbound")
    names = tuple(d.name for d in decls)
    return State(names, tuple(got[n] for n in names))


def _prior_from_lines(text, decls):
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise KuifjeError(f"bad prior line {line!r} (want bindings : prob)")
        left, _, prob = line.rpartition(":")
        pairs.append((_parse_bindings(left, decls), _prob(prob.strip())))
    if not pairs:
        raise KuifjeError("prior file/directive contains no entries")
    return Dist(pairs)


def _prior_product(spec, decls):
    """`product a:{true:1/3,false:2/3} x:uniform` — independent marginals."""
    by_name = {d.name: d for d in decls}
    marginals = {}
    for chunk in spec.split():
        name, _, rest = chunk.partition(":")
        if name not in by_name:
            raise KuifjeError(f"prior names undeclared variable {name!r}")
        dom = by_name[name].domain
        if rest == "uniform":
            vals = dom.values()
            marginals[name] = [(v, Fraction(1, len(vals))) for v in vals]
        elif rest.startswith("{") and rest.endswith("}"):
            entries = []
            for item in rest[1:-1].split(","):
                vtext, _, ptext = item.partition(":")
                v = _parse_value(vtext)
                if not dom.contains(v):
                    raise KuifjeError(
                        f"prior value {name}={vtext.strip()} is outside its domain"
                    )
                entries.append((v, _prob(ptext.strip())))
            marginals[name] = entries
        else:
            raise KuifjeError(f"bad product factor {chunk!r}")
    missing = [d.name for d in decls if d.name not in marginals]
    if missing:
        raise KuifjeError(f"product prior leaves {', '.join(missing)} unbound")
    names = tuple(d.name for d in decls)
    pairs = [((), Fraction(1))]
    for n in names:
        pairs = [
            (vals + (v,), p * q) for vals, p in pairs for v, q in marginals[n]
        ]
    return Dist([(State(names, vals), p) for vals, p in pairs])


def load_prior(spec, decls):
    """A prior from a directive string or a file of weighted states."""
    if spec == "uniform":
        names = tuple(d.name for d in decls)
        return uniform(all_states(names, [d.domain for d in decls]))
    if spec.startswith("product "):
        return _prior_product(spec[len("product ") :], decls)
    if os.path.exists(spec):
        with open(spec) as f:
            return _prior_from_lines(f.read(), decls)
    if ":" in spec:
        return _prior_from_lines(spec, decls)
    raise KuifjeError(f"cannot read prior {spec!r}: not a file or directive")


# ---------------------------------------------------------------- hyper JSON


def hyper_to_json(hyper):
    return {
        "hyper": [
            {
                "weight": _frac_json(w),
                "inner": [
                    {"state": _state_json(s), "prob": _frac_json(p)}
                    for s, p in inner.entries
                ],
            }
            for inner, w in hyper.entries
        ]
    }


def hyper_from_json(doc, decls):
    names = tuple(d.name for d in decls)
    by_name = {d.name: d for d in decls}
    pairs = []
    for group in doc["hyper"]:
        inner_pairs = []
        for cell in group["inner"]:
            vals = []
            for n in names:
                if n not in cell["state"]:
                    raise KuifjeError(f"hyper state leaves {n!r} unbound")
                v = cell["state"][n]
                v = tuple(v) if isinstance(v, list) else v
                if not by_name[n].domain.contains(v):
                    raise KuifjeError(f"hyper value {n}={v!r} is outside its domain")
                vals.append(v)
            inner_pairs.append((State(names, tuple(vals)), _prob(cell["prob"])))
        pairs.append((Dist(inner_pairs), _prob(group["weight"])))
    return Hyper(pairs)


# ---------------------------------------------------------------- commands


def _load_program(path):
    try:
        with open(path) as f:
            src = f.read()
    except OSError as exc:
        raise KuifjeError(f"cannot read {path}: {exc}") from exc
    program = parse_program(src)
    check_program(program)
    return program


def _wp_config(args):
    return WpConfig(
        loop_bound=args.loop_bound,
        seed=args.seed,
        simplify=not getattr(args, "no_simplify", False),
        unsound_no_branch_leak=getattr(args, "unsound_no_branch_leak", False),
        force_unfold=getattr(args, "force_unfold", False),
        unfold_depth=getattr(args, "unfold_depth", None),
        trace=getattr(args, "show_trace", False),
    )


def _resolve_post(program, args):
    if getattr(args, "post", None):
        g = parse_gain(args.post)
        check_gain(g, program.decls)
        return g
    if program.post is None:
        raise KuifjeError("program has no @post; pass --post 'GAIN'")
    return program.post


def cmd_run(args):
    program = _load_program(args.program)
    prior = load_prior(args.prior, program.decls)
    hyper = run_forward(program, prior, loop_bound=args.loop_bound)
    if args.format == "json":
        print(json.dumps(hyper_to_json(hyper), indent=2))
    else:
        for inner, w in hyper.entries:
            print(f"{_frac_table(w)}:")
            for s, p in inner.entries:
                print(f"  {_state_line(s)} : {_frac_table(p)}")
    return 0


class AnalysisTooDeep(KuifjeError):
    """wp built an expression nested deeper than Python's stack allows."""


def _wp_pre(engine, post):
    try:
        return engine.wp_program(post)
    except RecursionError:
        # the parser bounds input nesting, but substitution can build
        # expressions deeper than any the parser admits
        raise AnalysisTooDeep(
            "the analysis built an expression nested too deep to process"
        ) from None


def cmd_wp(args):
    program = _load_program(args.program)
    post = _resolve_post(program, args)
    engine = WpEngine(program, _wp_config(args))
    result = _wp_pre(engine, post)
    if args.format == "json":
        doc = {"pre": result.render()}
        if args.show_trace:
            doc["trace"] = [
                {"stmt": label, "pre": pre} for label, pre in result.trace
            ]
        print(json.dumps(doc, indent=2))
    else:
        if args.show_trace:
            for label, pre in result.trace:
                print(f"# after {label}")
                print(f"#   {pre}")
        print(result.render())
    return 0


def _check_priors(args, executable):
    if args.prior:
        yield args.prior, load_prior(args.prior, executable.decls)
        return
    spec = args.priors
    if spec == "exhaustive":
        for s in executable.states():
            yield f"point {_state_line(s)}", point(s)
        return
    if spec.startswith("random:"):
        import random

        parts = spec.split(":")
        if len(parts) != 3:
            raise KuifjeError("want --priors random:COUNT:SEED")
        count, seed = int(parts[1]), int(parts[2])
        space = executable.states()
        rng = random.Random(seed)
        for k in range(count):
            weights = random_weights(len(space), rng)
            yield f"random #{k}", Dist.from_weights(dict(zip(space, weights)))
        return
    raise KuifjeError(f"bad --priors {spec!r}")


def cmd_check(args):
    program = _load_program(args.program)
    post = _resolve_post(program, args)
    engine = WpEngine(program, _wp_config(args))
    result = _wp_pre(engine, post)
    executable = engine.executable  # its tables are warm from wp's loop analysis
    # one evaluator values every atom on every state at most once
    ev = GainEvaluator(executable.states())
    ok = bad = 0
    for label, prior in _check_priors(args, executable):
        lhs = ev.value(result.pre, prior)
        hyper = executable.run(prior, loop_bound=args.loop_bound)
        rhs = ev.hyper_value(post, hyper)
        if lhs == rhs:
            ok += 1
            if args.verbose:
                print(
                    f"{_mark('PASS', 'green')} {label} : value = {_frac_table(lhs)}"
                )
        else:
            bad += 1
            print(
                f"{_mark('FAIL', 'red')} {label} : "
                f"pre = {_frac_table(lhs)}, post = {_frac_table(rhs)}"
            )
    word = _mark("PASS", "green") if bad == 0 else _mark("FAIL", "red")
    print(f"{word} pre = {result.render()}")
    print(f"checked {ok + bad} priors: {ok} agree, {bad} disagree")
    return 0 if bad == 0 else 1


def cmd_eval(args):
    program = _load_program(args.program)
    g = parse_gain(args.gain)
    check_gain(g, program.decls)
    if args.hyper:
        try:
            with open(args.hyper) as f:
                hyper = hyper_from_json(json.load(f), program.decls)
        except (OSError, ValueError, TypeError) as exc:
            raise KuifjeError(f"cannot read hyper {args.hyper}: {exc}") from None
        except KeyError as exc:
            raise KuifjeError(f"hyper {args.hyper} lacks the field {exc}") from None
        value = eval_gain_hyper(g, hyper)
    elif args.prior:
        value = eval_gain(g, load_prior(args.prior, program.decls))
    else:
        raise KuifjeError("eval needs --prior or --hyper")
    if args.format == "json":
        print(json.dumps({"value": _frac_json(value)}, indent=2))
    else:
        print(_frac_table(value))
    return 0


# ---------------------------------------------------------------- wiring


def _add_common(sub):
    sub.add_argument("program", help="program file (.kuif)")
    sub.add_argument(
        "--loop-bound",
        type=int,
        default=DEFAULT_LOOP_BOUND,
        help="max loop iterations before giving up",
    )
    sub.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )


def _add_wp_flags(sub):
    sub.add_argument("--post", help="post-gain expression (overrides @post)")
    sub.add_argument(
        "--seed",
        type=int,
        default=42,
        help="seed for the random priors that test loop annotations",
    )
    sub.add_argument(
        "--no-simplify",
        action="store_true",
        help="skip dominance pruning of the result",
    )
    sub.add_argument(
        "--force-unfold",
        action="store_true",
        help="ignore loop annotations and unfold loops",
    )
    sub.add_argument(
        "--unfold-depth", type=int, default=None, help="exact unfolding depth"
    )
    sub.add_argument(
        "--unsound-no-branch-leak", action="store_true", help=argparse.SUPPRESS
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kuifje",
        description="Exact information-flow analysis: run programs forward "
        "as hyper-distribution transformers, or derive pre-gains backwards.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run forward; print the output hyper")
    _add_common(p_run)
    p_run.add_argument(
        "--prior",
        required=True,
        help="prior: file of 'bindings : prob' lines, 'uniform', or "
        "'product var:{v:p,...} ...'",
    )
    p_run.set_defaults(fn=cmd_run)

    p_wp = subs.add_parser("wp", help="derive the canonical pre-gain")
    _add_common(p_wp)
    _add_wp_flags(p_wp)
    p_wp.add_argument(
        "--show-trace",
        action="store_true",
        help="show the pre-gain after each top-level statement",
    )
    p_wp.set_defaults(fn=cmd_wp)

    p_check = subs.add_parser(
        "check", help="verify pre-on-prior equals post-on-hyper over many priors"
    )
    _add_common(p_check)
    _add_wp_flags(p_check)
    p_check.add_argument(
        "--priors",
        default="exhaustive",
        help="'exhaustive' (every point prior) or 'random:COUNT:SEED'",
    )
    p_check.add_argument("--prior", help="check a single prior instead")
    p_check.add_argument(
        "--verbose", action="store_true", help="print one line per prior"
    )
    p_check.set_defaults(fn=cmd_check)

    p_eval = subs.add_parser(
        "eval", help="evaluate a gain expression on a prior or saved hyper"
    )
    _add_common(p_eval)
    p_eval.add_argument("--gain", required=True, help="gain expression")
    p_eval.add_argument("--prior", help="prior (file or directive)")
    p_eval.add_argument("--hyper", help="hyper JSON file (from `run --format json`)")
    p_eval.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantCheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.equation is not None:
            lhs, rhs = exc.equation
            print(f"  needed: {lhs} == {rhs}", file=sys.stderr)
        return 4
    except (
        LoopBoundExceeded,
        BoundTooSmall,
        LoopNeedsInvariantOrBound,
        AnalysisTooDeep,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KuifjeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
