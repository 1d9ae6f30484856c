"""The prior-file readers and `Dist`'s validation against a reference.

`reference_prior` reads priors as the package did before it read each
binding and probability text once: the prior readers must give the same
weights and denominator, or raise the same error with the same message.
The one allowed difference is new: a line that binds a variable twice is
rejected, where the reference kept the last value.  A prior text is read by
columns (`cli._prior_columns`) where its layout is regular and line by line
(`cli._prior_lines`) otherwise; the texts drawn here reach both.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_prior as ref
from kuifje.cli import _prior_columns, _prior_lines, _prior_text, load_prior, main
from kuifje.core import Dist, Hyper, State
from kuifje.errors import KuifjeError
from kuifje.lang import check_program, parse_program

PROGRAM = parse_program(
    "hidden b : bool; hidden x : int[0..3]; hidden A : array[2] of int[0..1]; skip"
)
check_program(PROGRAM)
DECLS = PROGRAM.decls
NAMES = tuple(d.name for d in DECLS)

GOOD = {
    "b": ["true", "false"],
    "x": ["0", "1", "2", "3", "+2", "03"],
    "A": ["[0,0]", "[0,1]", "[1,0]", "[1,1]", "[1,+0]"],
}
# another spelling of the same value
ALIAS = {
    "2": "+2", "+2": "2", "3": "03", "03": "3", "[1,0]": "[1,+0]", "[1,+0]": "[1,0]"
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
def line_texts(draw):
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


@st.composite
def column_texts(draw, binding_faults=True):
    """A prior file in the regular layout: no comments, one binding column
    order for every line, and whitespace around each `:`.  A weight may be
    zero or negative, and the sum off; a state may be split over two lines,
    written alike or not.  With `binding_faults`, one binding may lie
    outside its domain or name an undeclared variable."""
    order = draw(st.permutations(["b", "x", "A"]))
    weights = draw(st.lists(st.integers(0, 6), min_size=1, max_size=6))
    total = sum(weights) or 1
    faults = ["off", "negative", "repeat", "repeat"]
    if binding_faults:
        faults += ["value", "undeclared"]
    fault = draw(st.sampled_from([None] * 4 + faults))
    if fault == "off":
        weights[0] += 1
    rows = []
    for w in weights:
        pieces = [f"{n}={draw(st.sampled_from(GOOD[n]))}" for n in order]
        rows.append([pieces, Fraction(w, total)])
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(order) - 1))
    if fault == "repeat":  # the state of row i, again, with part of its weight
        q = rows[i][1] * Fraction(draw(st.integers(0, 2)), 2)
        rows[i][1] -= q
        pieces = []
        for piece in rows[i][0]:
            name, _, value = piece.partition("=")
            if value in ALIAS and draw(st.booleans()):
                value = ALIAS[value]
            pieces.append(f"{name}={value}")
        rows.insert(draw(st.integers(0, len(rows))), [pieces, q])
    elif fault == "value":
        rows[i][0][j] = f"{order[j]}={draw(st.sampled_from(BAD))}"
    elif fault == "undeclared":
        rows[i][0][j] = f"zz={draw(st.sampled_from(GOOD[order[j]]))}"
    lines = []
    for r, (pieces, q) in enumerate(rows):
        prob = draw(prob_texts(q))
        if fault == "negative" and r == i:
            prob = "-" + prob
        colon = draw(GAPS) + ":" + draw(GAPS)
        pieces = draw(GAPS).join(pieces)
        lines.append(draw(SPACES) + pieces + colon + prob + draw(SPACES))
        lines.extend(draw(st.lists(st.sampled_from(["", "  "]), max_size=1)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def prior_texts():
    return st.one_of(line_texts(), column_texts())


def _outcome(read, text):
    try:
        return read(text)
    except KuifjeError as exc:
        return type(exc), str(exc)


def _canonical(dist):
    return dist.weights, dist.den


def _table(table):
    """A weight table in the reference's form: (State, weight) pairs in
    state order, and their sum."""
    pairs = tuple(sorted((State(NAMES, v), w) for v, w in table.items()))
    return pairs, sum(table.values())


def _new(text):
    return _table(_prior_text(text, DECLS))


def _reference(text):
    return ref.prior_from_lines(text, DECLS)


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
    old = _outcome(_reference, text)
    if new != old and new[0] is KuifjeError and new[1].endswith(" twice"):
        name = new[1].split()[-2]
        assert new[1] == f"prior line binds {name} twice"
        assert _binds_twice(text, name)
        return
    assert new == old


@settings(max_examples=300, derandomize=True, deadline=None)
@given(column_texts(binding_faults=False))
def test_column_reader_reads_the_regular_layout(text):
    # the column reader reads such a text itself, a fault in its weights
    # included, and refuses none of it
    new = _outcome(lambda t: _table(_prior_columns(t, DECLS)), text)
    assert new == _outcome(_reference, text)


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


RUN_PROGRAM = """\
hidden b : bool
hidden x : int[0..3]
hidden A : array[2] of int[0..1]
if b then A[0] := x mod 2 else skip fi;
print (x + A[0] + A[1]) mod 3
"""


def _run_json(capsys, program, text, path):
    path.write_text(text)
    assert main(["run", str(program), "--prior", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out


def test_run_output_ignores_line_and_column_order(tmp_path, capsys):
    # `run` reads the prior as a weight table in line order; its output is
    # the same bytes whatever the order of the lines or binding columns
    program = tmp_path / "p.kuif"
    program.write_text(RUN_PROGRAM)
    rng = random.Random(7)
    values = {"b": GOOD["b"][:2], "x": GOOD["x"][:4], "A": GOOD["A"][:4]}
    rows = [(b, x, a) for b in values["b"] for x in values["x"] for a in values["A"]]
    weights = [rng.randint(0, 9) for _ in rows]
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]

    def text(order, lines):
        return "".join(
            " ".join(f"{n}={row['bxA'.index(n)]}" for n in order) + f" : {p}\n"
            for row, p in lines
        )

    lines = list(zip(rows, probs))
    want = _run_json(capsys, program, text("bxA", lines), tmp_path / "a.prior")
    reverse = text("bxA", lines[::-1])
    assert _run_json(capsys, program, reverse, tmp_path / "b.prior") == want
    assert _run_json(capsys, program, text("Abx", lines), tmp_path / "c.prior") == want
    # the line reader's layout gives the same bytes too
    mixed = text("xAb", lines[:5]) + text("bxA", lines[5:]).replace(" : ", ": ")
    assert _prior_columns(mixed, DECLS) is None
    assert _run_json(capsys, program, mixed, tmp_path / "d.prior") == want
