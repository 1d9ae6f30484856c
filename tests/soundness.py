"""Shared soundness battery: pre-gain on the prior equals post-gain on the hyper.

Used by both the wp unit tests and the acceptance suite.  The engines and
backwards results are cached per corpus program so one pytest session pays
for each analysis exactly once, forward runs reuse the engine's executable,
whose loops the analysis already ran, and pre- and post-gains are valued by
one evaluator per program, which evaluates each atom on each state once.
"""

import glob
import os
import random

from kuifje.core import Dist, point
from kuifje.gain import GainEvaluator
from kuifje.lang import check_program, parse_program
from kuifje.wp import WpEngine

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

_programs = {}
_engines = {}
_nfs = {}
_evaluators = {}


def program(name):
    if name not in _programs:
        with open(os.path.join(CORPUS, name)) as f:
            p = parse_program(f.read())
        check_program(p)
        _programs[name] = p
    return _programs[name]


def corpus_names():
    return sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(CORPUS, "*.kuif"))
    )


def with_post():
    return [n for n in corpus_names() if program(n).post is not None]


def engine(name):
    """The WpEngine of a corpus program, built once per session."""
    if name not in _engines:
        _engines[name] = WpEngine(program(name))
    return _engines[name]


def wp_nf(name):
    """(engine, normal form) for a corpus program, computed once per session."""
    if name not in _nfs:
        _nfs[name] = engine(name).wp_program().nf
    return engine(name), _nfs[name]


def evaluator(name):
    """One GainEvaluator over a corpus program's declared space, per session."""
    if name not in _evaluators:
        _evaluators[name] = GainEvaluator(engine(name).executable.space.states())
    return _evaluators[name]


def priors_for(states, n_random, seed):
    """Every point prior, then n_random seeded random rational priors."""
    states = sorted(states)
    out = [point(s) for s in states]
    rng = random.Random(seed)
    for _ in range(n_random):
        w = [rng.randint(0, 16) for _ in states]
        if not any(w):
            w[rng.randrange(len(states))] = 1
        out.append(Dist.from_weights(dict(zip(states, w))))
    return out


def check_soundness(name, n_random=100, seed=20260816):
    """Exact agreement of backwards and forwards analysis on many priors.

    Returns the number of priors checked; raises AssertionError carrying the
    offending prior on the first mismatch.
    """
    p = program(name)
    engine, nf = wp_nf(name)
    pre = nf.as_gain()
    ev = evaluator(name)
    checked = 0
    for prior in priors_for(ev.states, n_random, seed):
        lhs = ev.value(pre, prior)
        rhs = ev.hyper_value(p.post, engine.executable.run(prior))
        assert lhs == rhs, (
            f"{name}: pre-gain gives {lhs} on {prior!r} "
            f"but the forward run is worth {rhs}"
        )
        checked += 1
    return checked
