"""The declared space as indices (`core.Space`) against an explicit listing.

For drawn declarations of one to four variables (booleans, integer ranges
with negative bounds, arrays of booleans and of integers) a values tuple's
index is its position in `all_states`, which is itself checked against a
listing built here, position by position; decoding an index gives its
State back; and every closed-form mask of the declared-space evaluator,
scalar and array element, is the one the explicit-state evaluator builds
from the same rows in one pass.
"""

from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from kuifje.core import ArrayDomain, BoolDomain, IntRange, Space, State, all_states
from kuifje.gain import GainEvaluator

MAX_STATES = 4096


@st.composite
def int_ranges(draw):
    lo = draw(st.integers(-4, 3))
    return IntRange(lo, lo + draw(st.integers(0, 4)))


scalars = st.one_of(st.just(BoolDomain()), int_ranges())
arrays = st.builds(ArrayDomain, st.integers(1, 3), scalars)
declarations = st.lists(st.one_of(scalars, arrays), min_size=1, max_size=4).filter(
    lambda doms: prod(d.size for d in doms) <= MAX_STATES
)


def _listed(domains):
    # every values tuple, the first domain varying slowest, built by hand
    rows = [()]
    for dom in domains:
        rows = [vals + (v,) for vals in rows for v in dom.values()]
    return rows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(declarations)
def test_the_declared_index_is_the_listing_position(domains):
    names = tuple(f"v{k}" for k in range(len(domains)))
    space = Space(names, domains)
    rows = _listed(domains)
    states = all_states(names, domains)
    assert len(space) == len(rows) == len(states)
    assert [s.values for s in states] == rows == space.rows
    for i, values in enumerate(rows):
        assert space.index(values) == i
        assert space.state(i) == State(names, values)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(declarations)
def test_closed_form_masks_are_the_listed_ones(domains):
    names = tuple(f"v{k}" for k in range(len(domains)))
    space = Space(names, domains)
    closed, listed = GainEvaluator(space), GainEvaluator(all_states(names, domains))
    for k, dom in enumerate(domains):
        elements = range(dom.length) if isinstance(dom, ArrayDomain) else [None]
        for j in [None, *elements]:
            # the same levels, in the same order of first arrival
            assert list(closed._table(k, j).items()) == list(
                listed._table(k, j).items()
            ), (k, j)
