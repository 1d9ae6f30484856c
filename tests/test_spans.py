"""The benchmark's span counters keep their meaning across the package.

`perfbench/spans.py` reads `len()` of what `kuifje.cli.load_prior` returns
and of the prior `kuifje.cli.run_forward` is given, and benchmark records
compare those counts as equal from one change to the next: both must stay
the number of distinct states the prior gives a nonzero probability.
"""

import os
import sys

from conftest import ROOT

sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402
from kuifje.cli import main  # noqa: E402

PROGRAM = """\
hidden x : int[0..3]
hidden b : bool
print x mod 2
"""

# five lines, four distinct states, one of them with probability 0
PRIOR = """\
x=0 b=false : 1/4
x=1 b=true : 1/8
x=2 b=false : 0
x=1 b=true : 1/8
x=3 b=true : 1/2
"""


def test_prior_counts_are_distinct_states_with_positive_probability(
    tmp_path, capsys
):
    program = tmp_path / "p.kuif"
    program.write_text(PROGRAM)
    prior = tmp_path / "p.prior"
    prior.write_text(PRIOR)
    hyper = tmp_path / "out.json"
    tracer = spans.Tracer()
    tracer.install()
    try:
        run = ["run", str(program), "--prior", str(prior), "--format", "json"]
        assert main(run) == 0
        hyper.write_text(capsys.readouterr().out)
        gain = "MAX w in 0..3: [x = w]"
        assert main(["eval", str(program), "--gain", gain, "--hyper", str(hyper)]) == 0
        assert capsys.readouterr().out == "3/4\n"
    finally:
        tracer.uninstall()
    assert spans.wrapped_attributes() == []
    layers = spans.aggregate(tracer.spans)
    assert layers["cli.load_prior"]["calls"] == 1
    assert layers["cli.load_prior"]["entries"] == 3
    assert layers["semantics.run"]["calls"] == 1
    assert layers["semantics.run"]["prior_support"] == 3
    assert layers["semantics.run"]["posteriors"] == 2
    assert layers["cli.hyper_from_json"]["calls"] == 1
