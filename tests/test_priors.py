"""The prior-file reader and `Dist`'s validation against a reference.

`reference_prior` reads priors as the package did before it read each
binding and probability text once: the two must give the same weights and
denominator, or raise the same error with the same message.  The one
allowed difference is new: a line that binds a variable twice is rejected,
where the reference kept the last value.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_prior as ref
from kuifje.cli import _named, _prior_lines, load_prior, main
from kuifje.core import Dist, Hyper, State
from kuifje.errors import KuifjeError
from kuifje.lang import check_program, parse_program

PROGRAM = parse_program(
    "hidden b : bool; hidden x : int[0..3]; hidden A : array[2] of int[0..1]; skip"
)
check_program(PROGRAM)
DECLS = PROGRAM.decls

GOOD = {
    "b": ["true", "false"],
    "x": ["0", "1", "2", "3", "+2", "03"],
    "A": ["[0,0]", "[0,1]", "[1,0]", "[1,1]", "[1,+0]"],
}
# each is outside its domain, or not a value at all
BAD = ["4", "-1", "true", "[0,1,1]", "[]", "[0,2]", "zz", "[0,x]", "1.5", "", "["]

SPACES = st.sampled_from(["", " ", "  ", "\t", " \t "])
GAPS = st.sampled_from([" ", "  ", "\t", " \t "])


def _decimal(q):
    """q as a decimal text, or None if that needs more than six places."""
    scale = 10**6
    if scale % q.denominator:
        return None
    digits = q.numerator * (scale // q.denominator)
    whole, frac = divmod(digits, scale)
    return f"{whole}.{frac:06d}".rstrip("0").rstrip(".")


@st.composite
def prob_texts(draw, q):
    forms = [f"{q.numerator}/{q.denominator}", str(q)]
    k = draw(st.integers(2, 3))
    forms.append(f"{q.numerator * k}/{q.denominator * k}")
    if _decimal(q) is not None:
        forms.append(_decimal(q))
    return draw(st.sampled_from(forms))


@st.composite
def lines(draw, q):
    """One `bindings : probability` line, perhaps with one fault in it."""
    pieces = [f"{n}={draw(st.sampled_from(GOOD[n]))}" for n in ("b", "x", "A")]
    fault = draw(
        st.sampled_from(
            [None] * 8
            + ["drop", "twice", "undeclared", "value", "no-eq", "no-colon",
               "negative", "bad-prob"]
        )
    )
    if fault == "drop":
        pieces.pop(draw(st.integers(0, len(pieces) - 1)))
    elif fault == "twice":
        n = draw(st.sampled_from(["b", "x", "A"]))
        pieces.append(f"{n}={draw(st.sampled_from(GOOD[n]))}")
    elif fault == "undeclared":
        pieces.append(f"zz={draw(st.sampled_from(BAD))}")
    elif fault == "value":
        i = draw(st.integers(0, len(pieces) - 1))
        pieces[i] = pieces[i].partition("=")[0] + "=" + draw(st.sampled_from(BAD))
    elif fault == "no-eq":
        pieces.insert(draw(st.integers(0, len(pieces))), "x")
    pieces = draw(st.permutations(pieces))
    prob = draw(prob_texts(q))
    if fault == "negative":
        prob = "-" + prob
    elif fault == "bad-prob":
        prob = draw(st.sampled_from(["abc", "1/0", "", "1/2/3", "0x1"]))
    colon = "" if fault == "no-colon" else ":"
    line = (
        draw(SPACES)
        + draw(GAPS).join(pieces)
        + draw(SPACES)
        + colon
        + draw(SPACES)
        + prob
        + draw(SPACES)
    )
    if draw(st.booleans()):
        line += draw(st.sampled_from(["# note", "#: x=1 : 1", "#"]))
    return line


@st.composite
def prior_texts(draw):
    """A prior file: lines whose probabilities sum to 1 unless a weight is
    off, among comments and blank lines.  States may repeat."""
    weights = draw(st.lists(st.integers(0, 6), min_size=1, max_size=6))
    total = sum(weights) or 1
    if draw(st.integers(0, 5)) == 0:
        weights[0] += 1  # the sum is no longer 1
    out = []
    for w in weights:
        out.extend(draw(st.lists(st.sampled_from(["", "   ", "# comment"]), max_size=1)))
        out.append(draw(lines(Fraction(w, total))))
    return "\n".join(out) + draw(st.sampled_from(["", "\n"]))


def _outcome(read, text):
    try:
        return read(text)
    except KuifjeError as exc:
        return type(exc), str(exc)


def _canonical(dist):
    return dist.weights, dist.den


def _new(text):
    return _canonical(_named(_prior_lines(text, DECLS), DECLS))


def _binds_twice(text, name):
    for raw in text.splitlines():
        left = raw.partition("#")[0].rpartition(":")[0]
        if sum(p.startswith(name + "=") for p in left.split()) > 1:
            return True
    return False


@settings(max_examples=400, derandomize=True, deadline=None)
@given(prior_texts())
def test_prior_reader_matches_reference(text):
    new = _outcome(_new, text)
    old = _outcome(lambda t: ref.prior_from_lines(t, DECLS), text)
    if new != old and new[0] is KuifjeError and new[1].endswith(" twice"):
        name = new[1].split()[-2]
        assert new[1] == f"prior line binds {name} twice"
        assert _binds_twice(text, name)
        return
    assert new == old


@pytest.mark.parametrize(
    "text, message",
    [
        ("x=1 x=2 b=true A=[0,0] : 1", "prior line binds x twice"),
        ("b=true x=1 A=[0,0] b=false : 1", "prior line binds b twice"),
        # a fault the reference reports first keeps its message
        ("x=1 x=9 b=true A=[0,0] : 1", "prior value x=9 is outside its domain"),
        ("x=1 x=2 b=true : 1", "prior line binds x twice"),
    ],
)
def test_prior_line_binding_a_variable_twice(text, message):
    with pytest.raises(KuifjeError) as exc:
        _prior_lines(text, DECLS)
    assert str(exc.value) == message


PROBS = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.integers(-1, 2),
    st.sampled_from(["1/2", "0.25", "1", "-0.5", 0.5, 0.25]),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), PROBS), max_size=6), st.booleans())
def test_dist_validation_matches_reference(pairs, close):
    if close and pairs:
        # make the probabilities sum to 1 by adjusting the last one
        rest = sum(Fraction(p) for _, p in pairs[:-1])
        pairs[-1] = (pairs[-1][0], 1 - rest)
    pairs = [(State(("x",), (e,)), p) for e, p in pairs]
    new = _outcome(lambda ps: _canonical(Dist(ps)), pairs)
    assert new == _outcome(ref.canonical, pairs)


S = [State(("x",), (v,)) for v in range(3)]
D1 = Dist([(S[0], Fraction(1, 2)), (S[1], Fraction(1, 2))])
D2 = Dist([(S[2], 1)])


@pytest.mark.parametrize(
    "pairs",
    [
        [(D1, Fraction(1, 3)), (D2, Fraction(2, 3))],
        [(D1, Fraction(1, 3)), (D1, Fraction(1, 6)), (D2, "1/2")],
        [(D1, Fraction(1, 3)), (D2, Fraction(1, 3))],
        [(D1, Fraction(-1, 3)), (D2, Fraction(4, 3))],
        [(D1, 0), (D2, 1)],
    ],
)
def test_hyper_validation_matches_reference(pairs):
    new = _outcome(lambda ps: _canonical(Hyper(ps)), pairs)
    outer = ("outer weight {p}", "outer weights")
    assert new == _outcome(lambda ps: ref.canonical(ps, *outer), pairs)


def test_product_prior_reads_array_values(tmp_path):
    # the commas inside `[0,1]` separate its elements, not the marginal's
    # entries: the product equals the same prior written line by line
    product = "product b:{true:1} x:{3:1} A:{[0,1]:1/2,[1,1]:1/2}"
    lines = tmp_path / "prior.txt"
    lines.write_text("b=true x=3 A=[0,1] : 1/2\nb=true x=3 A=[1,1] : 1/2\n")
    assert load_prior(product, DECLS) == load_prior(str(lines), DECLS)


def test_unclosed_array_in_a_product_prior_exits_2(tmp_path, capsys):
    # the comma inside an unclosed `[0,1` splits the entry: `[0` is no value
    program = tmp_path / "p.kuif"
    program.write_text("hidden A : array[2] of int[0..2]; hidden n : int[0..1]; skip")
    good = "product A:{[0,1]:1/2,[2,2]:1/2} n:uniform"
    assert main(["run", str(program), "--prior", good]) == 0
    assert "A=[2,2] n=1 : 1/4" in capsys.readouterr().out
    bad = "product A:{[0,1:1/2} n:uniform"
    assert main(["run", str(program), "--prior", bad]) == 2
    assert capsys.readouterr().err == "error: bad value '[0' in prior\n"
