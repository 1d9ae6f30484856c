"""kuifje benchmark: three seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload backward --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table
    python3 perfbench/run.py --record                  # re-record references

Each workload runs as one closed-loop client in a process of its own (see
client.py); set-up is measured in further fresh processes that also replay a
slice of the request list under other PYTHONHASHSEED values.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  See
README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402

CLIENT = os.path.join(wl.HERE, "client.py")
MAIN_HASH_SEED = "0"
SETUP_HASH_SEEDS = ("1", "2", "3")  # one fresh set-up process each
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics as (span, field); each is reported per pass of the list.
LAYERS = (
    ("cli", "self_s"),
    ("cli.load_prior", "busy_s"),
    ("cli.load_prior", "entries"),
    ("cli.hyper_from_json", "busy_s"),
    ("lang.parse_program", "busy_s"),
    ("lang.check_program", "busy_s"),
    ("lang.parse_gain", "busy_s"),
    ("core.all_states", "calls"),
    ("core.all_states", "busy_s"),
    ("core.all_states", "states"),
    ("core.Dist", "calls"),
    ("core.Dist", "busy_s"),
    ("core.Dist", "entries"),
    ("core.Hyper", "calls"),
    ("core.Hyper", "busy_s"),
    ("semantics.run", "calls"),
    ("semantics.run", "busy_s"),
    ("semantics.run", "self_s"),
    ("semantics.run", "prior_support"),
    ("semantics.run", "posteriors"),
    ("gain.eval_gain", "calls"),
    ("gain.eval_gain", "busy_s"),
    ("gain.eval_gain_hyper", "calls"),
    ("gain.eval_gain_hyper", "busy_s"),
    ("gain.simplify", "calls"),
    ("gain.simplify", "busy_s"),
    ("gain.simplify", "atoms_out"),
    ("gain.normalize", "calls"),
    ("gain.normalize", "busy_s"),
    ("gain.semantic_eq", "calls"),
    ("gain.semantic_eq", "busy_s"),
    ("gain.semantic_eq", "states"),
    ("wp.wp_program", "calls"),
    ("wp.wp_program", "busy_s"),
    ("wp.wp_program", "self_s"),
    ("wp.wp_program", "pre_atoms"),
)
RENAMED = {("wp.wp_program", "pre_atoms"): "wp.pre_atoms"}


def layer_name(span, field):
    return RENAMED.get((span, field), f"{span}.{field}")


# ---------------------------------------------------------------- statistics


def hd_quantile(samples, q, steps=16):
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) density integrated over each sample's 1/n slot.
    Requests of similar cost that swap places from run to run hardly move it,
    where a single order statistic would jump between them.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    total = weighted = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for j in range(steps):  # midpoint rule on [i/n, (i+1)/n]
            t = (i + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
        total += w
        weighted += w * x
    return weighted / total


def tail(samples, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (Harrell-Davis estimate there, percentile, samples beyond,
    sample count), or None when there are too few samples for the rule.
    """
    n = len(samples)
    if n <= beyond:
        return None
    q = (n - beyond) / n
    return hd_quantile(samples, q), 100.0 * q, beyond, n


def list_wall_s(results, column=4):
    """Time to complete one pass of the list: the sum over its distinct
    requests of each request's median latency across the passes.  Column 4
    holds reference seconds, column 5 measured seconds."""
    by_key = {}
    for r in results:
        by_key.setdefault(r[0], []).append(r[column])
    return sum(statistics.median(v) for v in by_key.values())


def end_to_end(setups, client):
    lat = [r[4] for r in client["results"]]
    t = tail(lat)
    if t is None:
        raise SystemExit("too few requests for req_tail_ms; raise --seconds")
    attempted = len(lat)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": list_wall_s(client["results"]),
        "req_p50_ms": 1000 * hd_quantile(lat, 0.5),
        "req_tail_ms": 1000 * t[0],
        "peak_rss_mb": client["peak_rss_mb"],
        "failed_frac": len(client["failures"]) / attempted,
    }, t


def per_layer(traced, untraced, passes):
    layers = traced["layers"]
    out = {}
    for span, field in LAYERS:
        value = layers.get(span, {}).get(field, 0) / passes
        if field.endswith("_s"):
            value *= traced["scale"]  # span times are measured seconds
        out[layer_name(span, field)] = value
    base = list_wall_s(untraced["results"])
    out["trace.overhead_frac"] = list_wall_s(traced["results"]) / base - 1
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------- processes


def client(workload, seed, passes, workdir, mode, trace, hash_seed):
    os.makedirs(workdir, exist_ok=True)
    # Bytecode is cached under WORK whatever the caller's environment says,
    # so set-up time means the same thing on every machine.
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPYCACHEPREFIX=os.path.join(wl.WORK, "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, CLIENT, workload, str(seed), str(passes), workdir, mode]
    proc = subprocess.run(
        argv + [str(int(trace))],
        cwd=wl.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} {mode} client exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hash_seed_failures(setup_runs, main):
    """Slice requests whose digest differs between PYTHONHASHSEED values."""
    first = {}
    for r in main["results"]:
        first.setdefault(r[0], r[3])
    bad = {}
    for run in setup_runs:
        for key, dig in run["slice"].items():
            if first.get(key) != dig:
                bad[key] = [-1, key, "stdout depends on PYTHONHASHSEED"]
    return list(bad.values())


def run_workload(workload, seed, seconds, trace, workdir):
    """One run: set-up processes, then the timed client(s).  Returns
    (metrics, attempted, failures, human-readable lines)."""
    passes = wl.passes_for(workload, seconds)
    setup_runs = [
        client(workload, seed, passes, os.path.join(workdir, f"setup{h}"), "setup", 0, h)
        for h in SETUP_HASH_SEEDS
    ]
    timed_passes = math.ceil(passes / 2) if trace else passes
    main = client(
        workload, seed, timed_passes, os.path.join(workdir, "main"), "run", 0,
        MAIN_HASH_SEED,
    )
    runs = [main]
    setups = [r["setup_s"] for r in setup_runs] + [main["setup_s"]]
    failures = main["failures"] + hash_seed_failures(setup_runs, main)
    failures += [[-1, name, "left wrapped by an untraced run"] for name in main["wrapped"]]
    main["failures"] = failures
    e2e, t = end_to_end(setups, main)
    lines = [
        f"{workload}: {passes} pass(es) of the request list, seed {seed}; "
        f"measured wall {list_wall_s(main['results'], 5):.4f} s at "
        f"{main['scale']:.3f} reference s per s"
    ]
    for name, value in e2e.items():
        line = f"  {name:<14} {value:14.4f} {END_TO_END.get(name, 'ratio')}"
        if name == "req_tail_ms":
            line += f"  (p{t[1]:.1f}: {t[2]} of {t[3]} samples beyond it)"
        lines.append(line)
    for _i, key, why in failures:
        lines.append(f"  FAILED {key}: {why}")
    if trace:
        traced = client(
            workload, seed, timed_passes, os.path.join(workdir, "traced"), "run", 1,
            MAIN_HASH_SEED,
        )
        runs.append(traced)
        failures = failures + traced["failures"]
        metrics = per_layer(traced, main, timed_passes)
        busy = traced["layers"]["cli"]["busy_s"] * traced["scale"] / timed_passes
        for name, value in metrics.items():
            share = f"  {value / busy:6.1%} of cli busy" if name.endswith("_s") else ""
            lines.append(f"  {name:<32} {value:14.4f} {unit_of(name)}{share}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        metrics = {
            k: {"value": v, "unit": END_TO_END[k]}
            for k, v in e2e.items()
            if k in END_TO_END
        }
    attempted = sum(len(r["results"]) for r in runs)
    return metrics, attempted, failures, lines


def record(workdir):
    """Write references from one default-seed pass of every workload."""
    os.makedirs(wl.REFERENCES, exist_ok=True)
    for workload in wl.WORKLOADS:
        res = client(
            workload, wl.DEFAULT_SEED, 1, os.path.join(workdir, workload), "run", 0,
            MAIN_HASH_SEED,
        )
        refs = {r[0]: {"exit": r[2], "digest": r[3]} for r in res["results"]}
        key, code, dig = res["warmup"]
        refs[key] = {"exit": code, "digest": dig}
        with open(wl.reference_path(workload), "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"{workload}: {len(refs)} references")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-record references")
    args = ap.parse_args(argv)

    for need in (os.path.join("src", "kuifje", "cli.py"), "corpus", "tests"):
        if not os.path.exists(os.path.join(wl.ROOT, need)):
            print(f"error: {need} not found under {wl.ROOT}", file=sys.stderr)
            return 2

    workdir = os.path.join(wl.WORK, f"run-{os.getpid()}")
    try:
        if args.record:
            record(workdir)
            return 0
        names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            m, a, f, lines = run_workload(
                name, args.seed, args.seconds, args.trace, os.path.join(workdir, name)
            )
            print("\n".join(lines), flush=True)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += len(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
