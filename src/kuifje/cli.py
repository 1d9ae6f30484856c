"""Command-line front end.

Subcommands:
  run    — run a program forward from a prior; print the output hyper
  wp     — compute the canonical pre-gain of a program's @post (or --post)
  check  — verify pre-gain-on-prior == post-gain-on-hyper over many priors
  eval   — evaluate a gain expression on a prior or on a saved hyper

Exit codes: 0 success; 1 check found a mismatch; 2 parse/type/input error;
3 a resource limit was hit (loop iterations, or expression depth built by
the analysis); 4 a loop annotation failed its consistency check; 5 an
internal error (any other exception, `MemoryError` included), reported on one
line without a traceback; 141, with nothing on stderr, when the reader
closes stdout early (as `| head` does), the code a shell reports for a
process that SIGPIPE ended.

All probabilities are exact rationals.  Table output prints them as `p/q`
(integers bare); JSON output always uses the `n/d` form, `0/1` and `1/1`
included.  Output is deterministic: same inputs, same bytes.

A prior is read into a weight table, `{values tuple: positive int}` in
lowest terms, and `run` keeps its states as values tuples from the prior
text to the output text; `eval --prior` names them as States for the gain
evaluator, and `eval --hyper` reads States, which the evaluator needs.
`check` turns every prior into (declared-state index, weight) pairs and
values both sides from them, on the one evaluator over the declared space
that `wp` reads.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .core import Dist, Hyper, Space, State, _fmt_value
from .core import all_states  # noqa: F401  perfbench/spans.py wraps cli.all_states
from .errors import (
    BoundTooSmall,
    InvariantCheckFailed,
    KuifjeError,
    LoopBoundExceeded,
    LoopNeedsInvariantOrBound,
)
from .gain import eval_gain, eval_gain_hyper, random_weights
from .lang import check_gain, check_program, parse_gain, parse_program
from .semantics import run as run_forward
from .wp import DEFAULT_LOOP_BOUND, WpConfig, WpEngine

# ---------------------------------------------------------------- formatting


def _frac_json(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _frac_table(q):
    return str(Fraction(q))


def _state_line(names, values):
    return " ".join(f"{n}={_fmt_value(v)}" for n, v in zip(names, values))


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


_UNBOUND = object()  # a state slot no binding has filled yet

# How each input reads a state's value, and shows it in an error.
_VALUES = {
    "prior": (_parse_value, lambda raw, value: raw),
    "hyper": (
        lambda raw: tuple(raw) if isinstance(raw, list) else raw,
        lambda raw, value: repr(value),
    ),
}


def _bind(slots, source, name, raw):
    """(position, value) of one binding that a prior line or hyper state
    makes: the name must be declared in `slots` ({name: (position,
    domain)}) and the value lie in its domain."""
    if name not in slots:
        raise KuifjeError(f"{source} binds undeclared variable {name!r}")
    i, domain = slots[name]
    parse, show = _VALUES[source]
    value = parse(raw)
    if not domain.contains(value):
        raise KuifjeError(
            f"{source} value {name}={show(raw, value)} is outside its domain"
        )
    return i, value


def _prior_columns(text, decls):
    """The weight table of a prior text in the regular layout, or None.

    In that layout every line, comments and blank lines aside, is one
    `name=value` binding per declared variable, a lone `:` and one
    probability, and each binding column names one variable.  Each line's
    shape is checked with `str.split`, and the columns are slices of the
    whole text split once, so no list per line is kept; each distinct
    binding and probability text is read once, and the rows are built
    column by column.  Any other text, and any binding or probability text
    that is no value, is refused, and `_prior_lines` reads it and names the
    first fault.
    """
    slots = {d.name: (i, d.domain) for i, d in enumerate(decls)}
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    k = len(slots)
    if not k or set(map(len, map(str.split, lines))) - {0} != {k + 2}:
        return None
    tokens = " ".join(lines).split()
    del lines
    cols = [tokens[j :: k + 2] for j in range(k + 2)]
    del tokens
    if set(cols[k]) != {":"}:
        return None
    # the line reader splits a line at its last colon
    probs = dict.fromkeys(cols[k + 1])
    if any(":" in t for t in probs):
        return None
    columns = {}  # position -> its values, line by line
    try:
        for col in cols[:k]:
            name0 = col[0].partition("=")[0]
            bound = {}
            for piece in set(col):
                name, eq, val = piece.partition("=")
                if not eq or name != name0:
                    return None
                i, bound[piece] = _bind(slots, "prior", name, val)
            if i in columns:
                return None
            columns[i] = map(bound.__getitem__, col)
        for t in probs:
            probs[t] = _prob(t)
    except KuifjeError:
        return None
    rows = list(zip(*(columns[i] for i in range(k))))
    return _prior_table(rows, cols[k + 1], probs, tuple(slots))


def _prior_lines(text, decls):
    """The weight table of a prior from `bindings : probability` lines, in
    any layout `_prior_columns` refuses.  Each distinct `name=value` text
    and each distinct probability text is read once, in line order, so the
    first fault in the text is the one reported: this reader alone names
    a prior text's faults.
    """
    slots = {d.name: (i, d.domain) for i, d in enumerate(decls)}
    names = tuple(slots)
    bound = {}  # "name=value" -> (position, value)
    probs = {}  # probability text -> Fraction
    rows = []  # values tuple of each line
    keys = []  # probability text of each line
    for raw in text.splitlines():
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        left, colon, prob = line.rpartition(":")
        if not colon:
            raise KuifjeError(f"bad prior line {line!r} (want bindings : prob)")
        vals = [_UNBOUND] * len(names)
        for piece in left.split():
            hit = bound.get(piece)
            if hit is None:
                name, eq, val = piece.partition("=")
                if not eq:
                    raise KuifjeError(
                        f"bad binding {piece!r} in prior (want name=value)"
                    )
                hit = bound[piece] = _bind(slots, "prior", name, val)
            i, v = hit
            if vals[i] is not _UNBOUND:
                raise KuifjeError(f"prior line binds {names[i]} twice")
            vals[i] = v
        if _UNBOUND in vals:
            missing = [n for n, v in zip(names, vals) if v is _UNBOUND]
            raise KuifjeError(f"prior line leaves {', '.join(missing)} unbound")
        if prob not in probs:
            probs[prob] = _prob(prob.strip())
        rows.append(tuple(vals))
        keys.append(prob)
    if not rows:
        raise KuifjeError("prior file/directive contains no entries")
    return _prior_table(rows, keys, probs, names)


def _prior_text(text, decls):
    """The weight table of a prior file's text, read by columns where its
    layout allows and line by line otherwise."""
    table = _prior_columns(text, decls)
    return _prior_lines(text, decls) if table is None else table


def _prior_table(rows, keys, probs, names):
    """The weight table giving the values tuple `rows[j]` probability
    `probs[keys[j]]`, in lowest terms: rows with equal values add up, and a
    zero weight is dropped.  The probabilities are checked on integers over
    the lcm of their denominators; only an invalid prior builds States, so
    that `Dist` names the fault as it always has."""
    den = lcm(*(p.denominator for p in probs.values()))
    scaled = {k: p.numerator * (den // p.denominator) for k, p in probs.items()}
    weights = list(map(scaled.__getitem__, keys))
    table = dict(zip(rows, weights))
    if len(table) < len(weights):  # a repeated state
        table = {}
        for vals, w in zip(rows, weights):
            table[vals] = table.get(vals, 0) + w
    least = min(scaled.values())
    if least < 0 or sum(table.values()) != den:
        Dist([(State(names, vals), probs[k]) for vals, k in zip(rows, keys)])  # raises
    if not least:
        table = {vals: w for vals, w in table.items() if w}
    g = gcd(*table.values())
    return table if g == 1 else {vals: w // g for vals, w in table.items()}


def _named(prior, decls):
    """A prior's weight table as a Dist over States, for the gain
    evaluator."""
    names = tuple(d.name for d in decls)
    return Dist.from_weights({State(names, v): w for v, w in prior.items()})


def _prior_product(spec, decls):
    """`product a:{true:1/3,false:2/3} x:uniform` — independent marginals."""
    slots = {d.name: (i, d.domain) for i, d in enumerate(decls)}
    marginals = {}
    for chunk in spec.split():
        name, _, rest = chunk.partition(":")
        if name not in slots:
            raise KuifjeError(f"prior names undeclared variable {name!r}")
        if name in marginals:
            raise KuifjeError(f"product prior names {name} twice")
        if rest == "uniform":
            vals = slots[name][1].values()
            marginals[name] = [(v, Fraction(1, len(vals))) for v in vals]
        elif rest.startswith("{") and rest.endswith("}"):
            entries = []
            for item in re.split(r",(?![^[]*])", rest[1:-1]):  # not in [...]
                vtext, _, ptext = item.partition(":")
                v = _bind(slots, "prior", name, vtext.strip())[1]
                entries.append((v, _prob(ptext.strip())))
            marginals[name] = entries
        else:
            raise KuifjeError(f"bad product factor {chunk!r}")
    missing = [n for n in slots if n not in marginals]
    if missing:
        raise KuifjeError(f"product prior leaves {', '.join(missing)} unbound")
    names = tuple(slots)
    pairs = [((), Fraction(1))]
    for n in names:
        pairs = [
            (vals + (v,), p * q) for vals, p in pairs for v, q in marginals[n]
        ]
    rows, ps = zip(*pairs)
    return _prior_table(rows, ps, {p: p for p in ps}, names)


def load_prior(spec, decls):
    """The weight table `{values: int}` of a prior, from a directive string
    or a file of weighted states: each values tuple, laid out as `decls`,
    with a positive integer weight, the weights in lowest terms (gcd 1), so
    that equal priors give equal dicts.  `run` takes the table as it is."""
    if spec == "uniform":
        space = Space([d.name for d in decls], [d.domain for d in decls])
        return dict.fromkeys(space.rows, 1)
    if spec.startswith("product "):
        return _prior_product(spec[len("product ") :], decls)
    if os.path.exists(spec):
        return _prior_text(_read(spec), decls)
    if ":" in spec:
        return _prior_text(spec, decls)
    raise KuifjeError(f"cannot read prior {spec!r}: not a file or directive")


# ---------------------------------------------------------------- hyper JSON


def _json_ratio(n, d):
    g = gcd(n, d)
    return f'"{n // g}/{d // g}"'


def _json_value(v, pad):
    """A state value as `json.dumps(..., indent=2)` writes it at the depth
    whose line prefix is `pad`."""
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is tuple:  # an array, never empty
        inner = pad + "  "
        return "[" + ",".join(inner + _json_value(x, inner) for x in v) + pad + "]"
    return str(v)


def _hyper_json(hyper, names):
    """A Hyper over Dists over values tuples laid out as `names`, as the text
    `json.dumps(doc, indent=2)` gives for the documented document

        {"hyper": [{"weight": "n/d",
                    "inner": [{"state": {name: value, ...}, "prob": "n/d"}]}]}

    with arrays as lists and every probability in lowest terms, `1/1`
    included."""
    pad = "\n            "
    keys = [pad + json.dumps(n) + ": " for n in names]
    groups = []
    for inner, w in hyper.weights:
        cells = []
        for v, p in inner.weights:
            fields = ",".join(k + _json_value(x, pad) for k, x in zip(keys, v))
            block = "{" + fields + "\n          }" if v else "{}"
            cells.append(
                '{\n          "state": ' + block
                + ',\n          "prob": ' + _json_ratio(p, inner.den) + "\n        }"
            )
        groups.append(
            '{\n      "weight": ' + _json_ratio(w, hyper.den)
            + ',\n      "inner": [\n        ' + ",\n        ".join(cells)
            + "\n      ]\n    }"
        )
    return '{\n  "hyper": [\n    ' + ",\n    ".join(groups) + "\n  ]\n}"


def _json_object(pairs):
    """A JSON object as a dict, refusing a repeated key instead of keeping
    its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"JSON object repeats the key {key!r}")
            seen.add(key)
    return doc


def hyper_from_json(doc, decls):
    """The Hyper over States that a `run --format json` document holds.

    Each binding is checked once per (name, JSON type, value), so that
    `true`, `1` and `1.0` are told apart, and each probability text is read
    once.  A probability or weight is a string, as `run` writes it: a JSON
    number or boolean is refused, not read as its binary value."""
    slots = {d.name: (i, d.domain) for i, d in enumerate(decls)}
    names = tuple(slots)
    bound = {}  # (name, JSON type, value) -> (position, value)
    probs = {}  # probability text -> Fraction

    def prob(text):
        if type(text) is not str:
            raise KuifjeError(f"bad probability {json.dumps(text)} (not a string)")
        q = probs.get(text)
        if q is None:
            q = probs[text] = _prob(text)
        return q

    pairs = []
    for group in doc["hyper"]:
        inner_pairs = []
        for cell in group["inner"]:
            state = cell["state"]
            vals = []
            for n in names:
                if n not in state:
                    raise KuifjeError(f"hyper state leaves {n!r} unbound")
                raw = state[n]
                if type(raw) is list:
                    key = n, list, tuple(raw), tuple(map(type, raw))
                else:
                    key = n, type(raw), raw
                try:
                    hit = bound.get(key)
                except TypeError:  # an object, or an array holding one, lies
                    hit = None  # in no domain: _bind raises before storing it
                if hit is None:
                    hit = bound[key] = _bind(slots, "hyper", n, raw)
                vals.append(hit[1])
            if len(state) > len(names):
                for n in state:  # one of them is undeclared
                    _bind(slots, "hyper", n, state[n])
            inner_pairs.append((State(names, tuple(vals)), prob(cell["prob"])))
        pairs.append((Dist(inner_pairs), prob(group["weight"])))
    return Hyper(pairs)


# ---------------------------------------------------------------- commands


def _read(path):
    """The text of a program or prior file; a file that cannot be opened or
    is not UTF-8 text is bad input."""
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise KuifjeError(f"cannot read {path}: {exc}") from None


def _load_program(path):
    program = parse_program(_read(path))
    check_program(program)
    return program


def _wp_config(args):
    return WpConfig(
        loop_bound=args.loop_bound,
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
    names = tuple(d.name for d in program.decls)
    if args.format == "json":
        print(_hyper_json(hyper, names))
    else:
        for inner, w in hyper.entries:
            print(f"{_frac_table(w)}:")
            for v, p in inner.entries:
                print(f"  {_state_line(names, v)} : {_frac_table(p)}")
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
    """(label, pairs) for each prior `check` values: `pairs` holds
    (declared index, positive integer weight) in state order, the prior
    giving each state its weight over their sum."""
    space = executable.space
    if args.prior:
        index = space.index
        prior = load_prior(args.prior, executable.decls)
        yield args.prior, sorted((index(v), w) for v, w in prior.items())
        return
    spec = args.priors or "exhaustive"
    if spec == "exhaustive":
        for i, v in enumerate(space.rows):
            yield f"point {_state_line(space.names, v)}", [(i, 1)]
        return
    if spec.startswith("random:"):
        import random

        try:
            count, seed = map(int, spec.split(":")[1:])
        except ValueError:  # not two integers
            count = 0
        if count < 1:
            raise KuifjeError("want --priors random:COUNT:SEED")
        n = len(space)
        rng = random.Random(seed)
        for k in range(count):
            weights = random_weights(n, rng)
            yield f"random #{k}", [(i, w) for i, w in enumerate(weights) if w]
        return
    raise KuifjeError(f"bad --priors {spec!r}")


def _post_value(executable, post, ev):
    """`(pairs, total) -> value`: `post` on the hyper that running
    `executable` from the prior `pairs` over `total` gives, as the sum over
    trace classes (`Executable.outcomes()`) of `post`, on `ev` over the
    declared states, on the mass each class takes to each final's declared
    index.  A prior whose support holds a failing state is run by
    `executable.run`, which raises the first runtime error in the canonical
    order of the hyper."""
    classes = executable.outcomes()

    def value(pairs, total):
        buckets = {}
        for i, w in pairs:
            hit = classes[i]
            if hit is None:  # this state's run fails: `run` raises the error
                rows = executable.space.rows
                executable.run({rows[j]: v for j, v in pairs})
            c, f = hit
            bucket = buckets.get(c)
            if bucket is None:
                bucket = buckets[c] = {}
            bucket[f] = bucket.get(f, 0) + w
        return sum(
            ev.weighted_value(post, b.items(), total)
            for b in buckets.values()
        )

    return value


def cmd_check(args):
    program = _load_program(args.program)
    post = _resolve_post(program, args)
    engine = WpEngine(program, _wp_config(args))
    result = _wp_pre(engine, post)
    # the outcome table runs on the engine's executable, so it reuses the
    # steps wp's loop passes compiled (they record no top-level loop's outcomes)
    executable = engine.executable
    # the Canon's evaluator values both sides; a prior stays (state index,
    # weight) pairs, and no State, Dist or Hyper is built for it
    ev = engine.canon.evaluator
    post_value = _post_value(executable, post, ev)
    ok = bad = 0
    for label, pairs in _check_priors(args, executable):
        total = sum(w for _, w in pairs)
        lhs = ev.weighted_value(result.pre, pairs, total)
        rhs = post_value(pairs, total)
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
                doc = json.load(f, object_pairs_hook=_json_object)
                hyper = hyper_from_json(doc, program.decls)
        except (OSError, ValueError, TypeError) as exc:
            raise KuifjeError(f"cannot read hyper {args.hyper}: {exc}") from None
        except KeyError as exc:
            raise KuifjeError(f"hyper {args.hyper} lacks the field {exc}") from None
        value = eval_gain_hyper(g, hyper)
    elif args.prior:
        prior = _named(load_prior(args.prior, program.decls), program.decls)
        value = eval_gain(g, prior)
    else:
        raise KuifjeError("eval needs --prior or --hyper")
    if args.format == "json":
        print(json.dumps({"value": _frac_json(value)}, indent=2))
    else:
        print(_frac_table(value))
    return 0


# ---------------------------------------------------------------- wiring


def _count(text):
    """An option's iteration count: an integer, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {n}")
    return n


def _add_common(sub, loops=True, output=True):
    sub.add_argument("program", help="program file (.kuif)")
    if loops:  # `eval` runs no loop
        sub.add_argument(
            "--loop-bound",
            type=_count,
            default=DEFAULT_LOOP_BOUND,
            help="max loop iterations before giving up",
        )
    if output:  # `check` prints a table only
        sub.add_argument(
            "--format",
            choices=("table", "json"),
            default="table",
            help="output format",
        )


def _add_wp_flags(sub):
    sub.add_argument("--post", help="post-gain expression (overrides @post)")
    sub.add_argument(
        "--seed",
        type=int,
        help="ignored: loop annotations are decided exactly, with no random "
        "priors",
    )
    sub.add_argument(
        "--no-simplify",
        action="store_true",
        help="skip pruning in the final flattening only, which then keeps "
        "every dominated atom and can grow exponentially with the observation "
        "branches; loop unfolding, --unsound-no-branch-leak and --show-trace "
        "still prune",
    )
    sub.add_argument(
        "--force-unfold",
        action="store_true",
        help="ignore loop annotations and unfold loops",
    )
    sub.add_argument(
        "--unfold-depth", type=_count, default=None, help="exact unfolding depth"
    )
    sub.add_argument(
        "--unsound-no-branch-leak", action="store_true", help=argparse.SUPPRESS
    )


@functools.cache  # parse_args never changes the parser, so one serves every call
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
    _add_common(p_check, output=False)
    _add_wp_flags(p_check)
    # no argparse default: argparse would take `--priors exhaustive` for an
    # absent `--priors` and let it pass beside `--prior`
    priors = p_check.add_mutually_exclusive_group()
    priors.add_argument(
        "--priors",
        help="'exhaustive' (every point prior, the default) or 'random:COUNT:SEED'",
    )
    priors.add_argument("--prior", help="check a single prior instead")
    p_check.add_argument(
        "--verbose", action="store_true", help="print one line per prior"
    )
    p_check.set_defaults(fn=cmd_check)

    p_eval = subs.add_parser(
        "eval", help="evaluate a gain expression on a prior or saved hyper"
    )
    _add_common(p_eval, loops=False)
    p_eval.add_argument("--gain", required=True, help="gain expression")
    source = p_eval.add_mutually_exclusive_group()
    source.add_argument("--prior", help="prior (file or directive)")
    source.add_argument("--hyper", help="hyper JSON file (from `run --format json`)")
    p_eval.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: end quietly, as SIGPIPE would end a
        # process, and send what is still buffered to the null device so
        # the interpreter's last flush does not fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass  # an in-process stream with no descriptor
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141
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
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
