"""Spans around the calls between kuifje's modules, recorded from outside.

`Tracer.install()` replaces each name a caller module imported (for example
`kuifje.cli.eval_gain` or `kuifje.wp.semantic_eq`) and a few methods with
wrappers that record a span: name, start, end, parent span, request id and a
count read from the call's arguments or result.  `uninstall()` puts every
original back.  Spans stay in memory until `write()` at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MARK = "__perfbench_span__"


def _n_entries(args, kwargs, result):
    return len(result)


def _n_self_entries(args, kwargs, result):
    return len(args[0])


def _n_prior(args, kwargs, result):
    return len(args[1])


def _n_atoms(args, kwargs, result):
    return len(result.atoms)


def _n_pre_atoms(args, kwargs, result):
    return len(result.nf.atoms)


def _n_states(args, kwargs, result):
    states = kwargs.get("states")
    return len(states) if states is not None else 0


# (module, attribute, span name, {counter: fn(args, kwargs, result)}).
# An attribute "Class.method" wraps the method on the class itself.
TARGETS = (
    ("kuifje.cli", "load_prior", "cli.load_prior", {"entries": _n_entries}),
    ("kuifje.cli", "hyper_from_json", "cli.hyper_from_json", {}),
    ("kuifje.cli", "parse_program", "lang.parse_program", {}),
    ("kuifje.cli", "check_program", "lang.check_program", {}),
    ("kuifje.cli", "parse_gain", "lang.parse_gain", {}),
    ("kuifje.cli", "all_states", "core.all_states", {"states": _n_entries}),
    ("kuifje.wp", "all_states", "core.all_states", {"states": _n_entries}),
    ("kuifje.gain", "all_states", "core.all_states", {"states": _n_entries}),
    ("kuifje.core", "Dist.__init__", "core.Dist", {"entries": _n_self_entries}),
    ("kuifje.core", "Hyper.__init__", "core.Hyper", {}),
    (
        "kuifje.cli",
        "run_forward",
        "semantics.run",
        {"prior_support": _n_prior, "posteriors": _n_entries},
    ),
    ("kuifje.cli", "eval_gain", "gain.eval_gain", {}),
    ("kuifje.cli", "eval_gain_hyper", "gain.eval_gain_hyper", {}),
    ("kuifje.wp", "simplify", "gain.simplify", {"atoms_out": _n_atoms}),
    ("kuifje.wp", "normalize", "gain.normalize", {}),
    ("kuifje.wp", "semantic_eq", "gain.semantic_eq", {"states": _n_states}),
    ("kuifje.wp", "WpEngine.wp_program", "wp.wp_program", {"pre_atoms": _n_pre_atoms}),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id, counts]
        self.request = None
        self._stack = []
        self._saved = []

    def span(self, name, fn, counters=None):
        """fn wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack
        counters = counters or {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counters:
                rec[5] = {k: f(args, kwargs, result) for k, f in counters.items()}
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        for module, attr, name, counters in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, counters))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def wrapped_attributes():
    """Every kuifje module or class attribute that is currently a span wrapper."""
    import sys

    found = []
    for modname, module in list(sys.modules.items()):
        if modname != "kuifje" and not modname.startswith("kuifje."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__ == modname:
                for meth, inner in vars(value).items():
                    if hasattr(inner, MARK):
                        found.append(f"{modname}.{attr}.{meth}")
    return found


def aggregate(spans):
    """Per span name: calls, busy_s, self_s and summed counters.

    busy_s counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice.  self_s is a span's duration minus
    the time its child spans cover (children never overlap: one thread).
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out = {}
    for i, (name, start, end, parent, _req, counts) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["busy_s"] += end - start
        for k, v in (counts or {}).items():
            agg[k] = agg.get(k, 0) + v
    return out
