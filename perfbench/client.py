"""One closed-loop client: set up, then send each request when the last returns.

Run by run.py in a process of its own, so that import time, set-up and
ru_maxrss belong to this workload alone:

    python3 perfbench/client.py WORKLOAD SEED PASSES WORKDIR MODE TRACE

MODE is `setup` (set up, then run the hash-seed slice untimed) or `run` (set
up, then the timed request list).  The result is one JSON line on stdout.
Every time is reported both as measured and rescaled to the reference speed
of speed.py.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads as wl  # noqa: E402
from speed import SpeedMeter  # noqa: E402


def call(main, argv):
    """One request through kuifje.cli.main: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed request, not a crash
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def execute(main, requests, meter, tracer=None):
    """Send each request in turn.  Returns one result dict per request."""
    results = []
    for i, r in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        (code, stdout), raw, ref = meter.measure(call, main, r["argv"])
        res = dict(key=r["key"], pass_no=r.get("pass_no", 0), exit=code)
        res.update(seconds=ref, raw_seconds=raw, digest=wl.digest(stdout))
        if "save" in r:
            with open(r["save"], "w") as f:
                f.write(stdout)
            stdout = None  # the file holds it; keep RSS to kuifje's own
        res["stdout"] = stdout
        results.append(res)
    return results


def rows(results):
    """The compact form run.py reads: [key, pass, exit, digest, ref s, raw s]."""
    return [
        [r["key"], r["pass_no"], r["exit"], r["digest"], r["seconds"], r["raw_seconds"]]
        for r in results
    ]


def _read(path):
    with open(path) as f:
        return f.read()


def check(workload, requests, results, refs):
    """[(index, reason)] for every result that misses a check."""
    bad = []
    by_key = {}
    for i, (r, res) in enumerate(zip(requests, results)):
        first = by_key.setdefault(res["key"], res["digest"])
        if first != res["digest"]:
            bad.append((i, "output differs between passes"))
            continue
        if refs is not None:
            why = wl.check_reference(res, refs)
            if why:
                bad.append((i, why))
                continue
        if workload == "check" and (
            res["exit"] != 0 or not res["stdout"].endswith(", 0 disagree\n")
        ):
            bad.append((i, "check did not print 0 disagree with exit 0"))
        elif res["exit"] != 0:
            bad.append((i, f"exit {res['exit']}"))
    if workload == "forward":
        bad += _check_forward(requests, results)
    return bad


def _check_forward(requests, results):
    bad = []
    last_run = {}
    checked = set()
    for i, (r, res) in enumerate(zip(requests, results)):
        if "save" in r:
            last_run[r["key"]] = i
            continue
        if r["key"] in checked or "run_key" not in r:
            continue  # passes repeat the same bytes; check each pair once
        checked.add(r["key"])
        j = last_run[r["run_key"]]
        program = os.path.basename(r["argv"][1])
        why, doc, value = wl.check_forward_pair(
            results[j], res, _read(requests[j]["save"]), res["stdout"], r["var"]
        )
        if not why and program in wl.ORACLE_STEPS:
            why = wl.oracle_check(program, requests[j]["prior"], doc, value)
        if why:
            bad.append((i, why))
    return bad


def main():
    workload, seed, passes, workdir, mode, trace = sys.argv[1:7]
    seed, passes, trace = int(seed), int(passes), trace == "1"
    meter = SpeedMeter().start()

    sys.path.insert(0, os.path.join(wl.ROOT, "src"))
    os.environ["QIF_COLOR"] = "0"
    from kuifje.cli import main as cli_main

    requests = wl.build(workload, seed, passes, workdir)
    warm = wl.warmup_request(workload)
    warm_res = execute(cli_main, [warm], meter)
    now = time.perf_counter()
    setup_raw = now - T0 - meter.spent
    out = {"setup_s": setup_raw * meter.scale(T0, now), "setup_raw_s": setup_raw}
    if mode == "setup":
        sl = wl.slice_of(requests, workload)
        out["slice"] = {r["key"]: r["digest"] for r in execute(cli_main, sl, meter)}
        meter.stop()
        print(json.dumps(out))
        return

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.span("cli", cli_main)

    start = time.perf_counter()
    results = execute(cli_main, requests, meter, tracer)
    end = time.perf_counter()
    meter.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["scale"] = meter.scale(start, end)

    if tracer is not None:
        tracer.uninstall()
        from spans import aggregate

        out["layers"] = aggregate(tracer.spans)
        tracer.write(os.path.join(wl.WORK, f"spans-{workload}.jsonl"))
    else:
        from spans import wrapped_attributes

        out["wrapped"] = wrapped_attributes()

    # backward and check print the same bytes for every seed; forward's
    # output depends on its seeded priors, so its references hold for one seed
    refs = None
    if workload != "forward" or seed == wl.DEFAULT_SEED:
        refs = wl.load_references(workload)  # {} when none are recorded
    failures = check(workload, [warm], warm_res, refs)
    failures = [(-1, why) for _, why in failures]
    failures += check(workload, requests, results, refs)
    out["failures"] = [
        [i, requests[i]["key"] if i >= 0 else warm["key"], why] for i, why in failures
    ]
    out["results"] = rows(results)
    out["warmup"] = [warm["key"], warm_res[0]["exit"], warm_res[0]["digest"]]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
