"""Seeded request lists for the three workloads, and the checks on their output.

Nothing here imports kuifje: the inputs are generated from the corpus text
alone, and outputs are checked against recorded references, against the
benchmark's own evaluation of the guessing gain, and against the independent
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(ROOT, "corpus")
REFERENCES = os.path.join(HERE, "references")
WORK = os.path.join(HERE, ".work")  # generated inputs, spans, bytecode

DEFAULT_SEED = 1
CHECK_PRIORS = 2  # N: random priors per `check` request
FORWARD_PRIORS = 3  # K: prior files per corpus program on `forward`

# Seconds of --seconds that buy one pass over each workload's request list: a
# run makes round(seconds / PASS_S) passes, so the list depends only on the
# workload, the seed and --seconds, never on the speed of the code under test.
# backward and check passes took about this long at the commit that introduced
# the benchmark; forward's take about 3.5 s, but each pass retains about 50 MB
# of memo, so a pass counts 7.5 s and a 30 s run stays near 200 MB.
PASS_S = {"backward": 11.0, "check": 15.0, "forward": 7.5}

WORKLOADS = tuple(PASS_S)

_DECL = re.compile(
    r"^(hidden|visible)\s+(\w+)\s*:\s*"
    r"(bool|int\[(-?\d+)\.\.(-?\d+)\]|array\[(\d+)\]\s+of\s+int\[(-?\d+)\.\.(-?\d+)\])\s*$"
)


def corpus_programs():
    return sorted(f for f in os.listdir(CORPUS) if f.endswith(".kuif"))


def read_program(name):
    with open(os.path.join(CORPUS, name)) as f:
        return f.read()


def declarations(src):
    """[(name, values)] for each declaration, in order; values in domain order."""
    out = []
    for line in src.splitlines():
        m = _DECL.match(line.split("#", 1)[0].strip())
        if not m:
            continue
        name, typ = m.group(2), m.group(3)
        if typ == "bool":
            values = [False, True]
        elif typ.startswith("int"):
            values = list(range(int(m.group(4)), int(m.group(5)) + 1))
        else:
            elem = range(int(m.group(7)), int(m.group(8)) + 1)
            values = list(itertools.product(elem, repeat=int(m.group(6))))
        out.append((name, values))
    if not out:
        raise ValueError("no declarations found")
    return out


def guess_gain(decls):
    """One-try guessing gain on the first scalar variable, and that variable."""
    for name, values in decls:
        if isinstance(values[0], tuple):
            continue
        if isinstance(values[0], bool):
            return f"[{name}] MAX [not {name}]", name
        return f"MAX w in {values[0]}..{values[-1]}: [{name} = w]", name
    raise ValueError("program has no scalar variable")


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "[" + ",".join(map(str, v)) + "]"
    return str(v)


def prior_text(decls, rng):
    """A full-support prior over the declared space: weights 1..16, normalised."""
    names = [n for n, _ in decls]
    states = list(itertools.product(*(vals for _, vals in decls)))
    weights = [rng.randint(1, 16) for _ in states]
    total = sum(weights)
    lines = []
    for state, w in zip(states, weights):
        binds = " ".join(f"{n}={_fmt(v)}" for n, v in zip(names, state))
        lines.append(f"{binds} : {Fraction(w, total)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- requests


def _request(key, argv, **extra):
    return dict(key=key, argv=argv, **extra)


def _base_requests(workload, workdir, rng):
    """One pass, without per-pass seeds.  Writes forward's priors."""
    out = []
    for name in corpus_programs():
        src = read_program(name)
        path = os.path.join("corpus", name)
        if workload == "backward" and "@post" in src:
            out.append(_request(f"wp {name}", ["wp", path]))
            if "invariant" in src:
                out.append(
                    _request(f"wp {name} --force-unfold", ["wp", path, "--force-unfold"])
                )
        elif workload == "check" and "@post" in src:
            out.append(_request(f"check {name}", ["check", path]))
        elif workload == "forward":
            decls = declarations(src)
            gain, var = guess_gain(decls)
            stem = name[: -len(".kuif")]
            for k in range(FORWARD_PRIORS):
                prior = os.path.join(workdir, f"{stem}.{k}.prior")
                with open(prior, "w") as f:
                    f.write(prior_text(decls, rng))
                hyper = os.path.join(workdir, f"{stem}.{k}.hyper.json")
                out.append(
                    _request(
                        f"run {name} #{k}",
                        ["run", path, "--prior", prior, "--format", "json"],
                        save=hyper,
                        prior=prior,
                    )
                )
                out.append(
                    _request(
                        f"eval {name} #{k}",
                        ["eval", path, "--gain", gain, "--hyper", hyper],
                        run_key=f"run {name} #{k}",
                        var=var,
                    )
                )
    return out


def passes_for(workload, seconds):
    return max(1, round(seconds / PASS_S[workload]))


def build(workload, seed, passes, workdir):
    """The timed request list: `passes` passes over the workload, in corpus order.

    backward and check draw a fresh --seed / random-prior seed per request and
    pass.  forward writes FORWARD_PRIORS prior files per program into workdir
    once, and repeats the same requests in every pass.
    """
    if workload not in PASS_S:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    base = _base_requests(workload, workdir, rng)
    timed = []
    for p in range(passes):
        for r in base:
            r = dict(r, argv=list(r["argv"]), pass_no=p)
            if workload == "backward":
                r["argv"] += ["--seed", str(rng.randrange(1, 10**6))]
            elif workload == "check":
                s = rng.randrange(1, 10**6)
                r["argv"] += ["--priors", f"random:{CHECK_PRIORS}:{s}"]
            timed.append(r)
    return timed


def warmup_request(workload):
    """The untimed request that ends set-up: the smallest program, checked."""
    path = os.path.join("corpus", "branch_assign.kuif")
    if workload == "backward":
        return _request("warmup wp branch_assign.kuif", ["wp", path, "--seed", "1"])
    if workload == "check":
        return _request(
            "warmup check branch_assign.kuif",
            ["check", path, "--priors", "random:1:1"],
        )
    return _request(
        "warmup run branch_assign.kuif",
        ["run", path, "--prior", "uniform", "--format", "json"],
    )


# The hash-seed slice: cheap requests whose output depends on set and dict
# order inside the analyser (loop-head grouping, DNF canonicalisation,
# posterior grouping).
SLICE = {
    "backward": ("wp reveal_mod4_small.kuif", "wp search_early_exit.kuif"),
    "check": ("check reveal_mod4_small.kuif", "check threshold_print.kuif"),
    "forward": ("run compose_leaks_small.kuif #0", "run mark_slot.kuif #0"),
}


def slice_of(requests, workload):
    keys = SLICE[workload]
    seen, out = set(), []
    for r in requests:
        if r["key"] in keys and r["key"] not in seen:
            seen.add(r["key"])
            out.append(r)
    return out


# ---------------------------------------------------------------- checks


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def reference_path(workload):
    return os.path.join(REFERENCES, f"{workload}.json")


def load_references(workload):
    try:
        with open(reference_path(workload)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_reference(result, refs):
    """Empty string if exit code and stdout digest match the reference."""
    ref = refs.get(result["key"])
    if ref is None:
        return "no reference"
    if result["exit"] != ref["exit"]:
        return f"exit {result['exit']}, reference {ref['exit']}"
    if result["digest"] != ref["digest"]:
        return "stdout differs from reference"
    return ""


def guess_value(hyper_doc, var):
    """One-try guessing value of `var` on a hyper JSON document."""
    total = Fraction(0)
    for group in hyper_doc["hyper"]:
        buckets = {}
        for cell in group["inner"]:
            v = cell["state"][var]
            buckets[v] = buckets.get(v, Fraction(0)) + Fraction(cell["prob"])
        total += Fraction(group["weight"]) * max(buckets.values())
    return total


def _json_hyper_key(doc):
    """Order-free form of a hyper over (H, L): {frozenset of cells: weight}."""
    out = {}
    for group in doc["hyper"]:
        cells = frozenset(
            ((c["state"]["H"], c["state"]["L"]), Fraction(c["prob"]))
            for c in group["inner"]
        )
        out[cells] = Fraction(group["weight"])
    return out


ORACLE_STEPS = {
    "reveal_mod8.kuif": "branch_reveal_6bit",
    "reveal_low_bits.kuif": "mask_low2_6bit",
}


def _oracles():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "oracles", os.path.join(ROOT, "tests", "oracles.py")
    )
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def oracle_check(program, prior_file, hyper_doc, eval_value):
    """Compare a 6-bit reveal program's run and eval with tests/oracles.py."""
    oracles = _oracles()
    marginal = {}
    with open(prior_file) as f:
        for line in f:
            binds, _, prob = line.rpartition(":")
            h = int(binds.split()[0].partition("=")[2])
            marginal[h] = marginal.get(h, Fraction(0)) + Fraction(prob.strip())
    hyper = oracles.trace_hyper(marginal, getattr(oracles, ORACLE_STEPS[program]))
    want = {
        frozenset(post.items()): weight for weight, post in hyper.values()
    }
    if _json_hyper_key(hyper_doc) != want:
        return "run hyper differs from the oracle"
    vuln = oracles.bayes_vulnerability(hyper, project=lambda s: s[0])
    if eval_value != vuln:
        return f"eval gives {eval_value}, oracle {vuln}"
    return ""


def check_forward_pair(run_result, eval_result, run_stdout, eval_stdout, var):
    """Checks that hold for every seed: eval agrees with the run's hyper."""
    if run_result["exit"] != 0:
        return f"run exited {run_result['exit']}", None, None
    if eval_result["exit"] != 0:
        return f"eval exited {eval_result['exit']}", None, None
    doc = json.loads(run_stdout)
    weights = sum(Fraction(g["weight"]) for g in doc["hyper"])
    if weights != 1 or any(
        sum(Fraction(c["prob"]) for c in g["inner"]) != 1 for g in doc["hyper"]
    ):
        return "run hyper is not normalised", doc, None
    value = Fraction(eval_stdout.strip())
    want = guess_value(doc, var)
    if value != want:
        return f"eval gives {value}, the hyper gives {want}", doc, value
    return "", doc, value
