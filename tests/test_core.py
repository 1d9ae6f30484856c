"""Distributions, hypers, and their canonical forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kuifje.core import (
    ArrayDomain,
    BoolDomain,
    Dist,
    Hyper,
    IntRange,
    State,
    all_states,
    avg,
    expectation,
    point,
    uniform,
    unit,
)
from kuifje.errors import NegativeProbability, SumNotOne

S = [State(("x",), (i,)) for i in range(4)]
H = Fraction(1, 2)
Q = Fraction(1, 4)


# ---- domains


def test_int_range_values():
    assert IntRange(0, 3).values() == (0, 1, 2, 3)
    assert IntRange(2, 2).values() == (2,)
    assert IntRange(0, 3).contains(3)
    assert not IntRange(0, 3).contains(4)
    assert not IntRange(0, 3).contains(True)


def test_int_range_empty_rejected():
    with pytest.raises(ValueError):
        IntRange(3, 1)


def test_bool_domain():
    assert BoolDomain().values() == (False, True)
    assert BoolDomain().contains(True)
    assert not BoolDomain().contains(1)


def test_array_domain():
    d = ArrayDomain(2, IntRange(0, 1))
    assert d.values() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert d.contains((1, 0))
    assert not d.contains((1, 2))
    assert not d.contains((1,))


def test_all_states_order():
    sts = all_states(("a", "x"), [BoolDomain(), IntRange(0, 1)])
    assert [s.bindings() for s in sts] == [
        {"a": False, "x": 0},
        {"a": False, "x": 1},
        {"a": True, "x": 0},
        {"a": True, "x": 1},
    ]


# ---- states


def test_state_get_set():
    s = State(("a", "x"), (True, 3))
    assert s.get("x") == 3
    t = s.set("x", 1)
    assert t.get("x") == 1 and s.get("x") == 3
    assert t.get("a") is True


def test_state_repr():
    s = State(("a", "A"), (True, (0, 1)))
    assert repr(s) == "{a=true A=[0,1]}"


def test_state_ordering_is_total():
    sts = all_states(("x",), [IntRange(0, 3)])
    assert sorted(sts) == list(sts)
    # a declaration mixing int, array and bool sorts into enumeration order
    mixed = all_states(
        ("x", "A", "b"),
        [IntRange(-1, 1), ArrayDomain(2, IntRange(0, 2)), BoolDomain()],
    )
    shuffled = list(mixed)
    random.Random(7).shuffle(shuffled)
    assert sorted(shuffled) == mixed
    assert all(s < t and s <= t and not t <= s for s, t in zip(mixed, mixed[1:]))


# ---- distributions


def test_dist_merges_duplicates_and_prunes_zeros():
    d = Dist([(S[0], Q), (S[0], Q), (S[1], H), (S[2], Fraction(0))])
    assert d.entries == ((S[0], H), (S[1], H))


def test_dist_sum_checked():
    with pytest.raises(SumNotOne):
        Dist([(S[0], Q)])
    with pytest.raises(NegativeProbability):
        Dist([(S[0], Fraction(3, 2)), (S[1], Fraction(-1, 2))])


def test_dist_entries_sorted():
    d = Dist([(S[2], H), (S[0], H)])
    assert d.entries == ((S[0], H), (S[2], H))


def test_point_uniform_expectation():
    assert point(S[1]).prob(S[1]) == 1
    u = uniform(S)
    assert u.prob(S[3]) == Q
    assert expectation(u, lambda s: s.get("x")) == Fraction(3, 2)


def test_dist_map_merges_collisions():
    u = uniform(S)
    halved = u.map(lambda s: s.set("x", s.get("x") // 2))
    assert halved.prob(State(("x",), (0,))) == H
    assert halved.prob(State(("x",), (1,))) == H


# ---- hypers


def test_hyper_merges_equal_inners():
    h = Hyper([(point(S[0]), H), (point(S[0]), Q), (point(S[1]), Q)])
    assert h.weight(point(S[0])) == Fraction(3, 4)
    assert len(h) == 2


def test_hyper_prunes_zero_weight():
    h = Hyper([(point(S[0]), Fraction(1)), (point(S[1]), Fraction(0))])
    assert len(h) == 1


def test_unit_avg_roundtrip():
    u = uniform(S)
    assert avg(unit(u)) == u


def test_avg_mixes():
    h = Hyper([(point(S[0]), H), (point(S[1]), H)])
    assert avg(h) == Dist([(S[0], H), (S[1], H)])


def test_hyper_orders_deterministically():
    a = Hyper([(point(S[0]), H), (point(S[1]), H)])
    b = Hyper([(point(S[1]), H), (point(S[0]), H)])
    assert a.entries == b.entries


def test_hyper_orders_inners_by_their_probabilities():
    halves = Dist([(S[0], H), (S[1], H)])
    thirds = Dist([(S[0], Fraction(1, 3)), (S[1], Fraction(2, 3))])
    for pairs in ([(halves, H), (thirds, H)], [(thirds, H), (halves, H)]):
        # 1/3 < 1/2 on S[0]; the reduced weights, (1, 1) and (1, 2), would
        # put the halves first
        assert Hyper(pairs).inners() == (thirds, halves)


def test_equal_dists_from_different_denominators_are_equal():
    thirds = Dist([(S[0], Fraction(1, 3)), (S[1], Fraction(2, 3))])
    sixths = Dist(
        [(S[1], Fraction(4, 6)), (S[0], Fraction(1, 6)), (S[0], Fraction(1, 6))]
    )
    mixed = avg(Hyper([(point(S[0]), Fraction(1, 4)), (uniform(S[:2]), H),
                       (point(S[1]), Fraction(1, 4))]))
    doubled = uniform(S).map(lambda s: S[0] if s.get("x") < 2 else S[1])
    assert sixths == thirds and hash(sixths) == hash(thirds)
    assert mixed == doubled == uniform(S[:2])
    assert hash(mixed) == hash(doubled) == hash(uniform(S[:2]))
    h1 = Hyper([(thirds, Fraction(2, 6)), (point(S[2]), Fraction(4, 6))])
    h2 = Hyper([(point(S[2]), Fraction(2, 3)), (sixths, Fraction(1, 3))])
    assert h1 == h2 and hash(h1) == hash(h2)
    assert len({thirds, sixths}) == 1


# ---- algebraic laws on random data

weights4 = st.lists(
    st.integers(min_value=0, max_value=9), min_size=4, max_size=4
).filter(lambda w: sum(w) > 0)


def _dist_of(w):
    total = sum(w)
    return Dist([(s, Fraction(k, total)) for s, k in zip(S, w)])


@given(weights4)
def test_map_identity(w):
    d = _dist_of(w)
    assert d.map(lambda s: s) == d


@given(weights4)
def test_map_composition(w):
    d = _dist_of(w)
    f = lambda s: s.set("x", min(s.get("x") + 1, 3))
    g = lambda s: s.set("x", s.get("x") // 2)
    assert d.map(f).map(g) == d.map(lambda s: g(f(s)))


@given(weights4, weights4)
def test_avg_of_two_point_hyper(w1, w2):
    d1, d2 = _dist_of(w1), _dist_of(w2)
    h = Hyper([(d1, H), (d2, H)])
    mixed = avg(h)
    for s in S:
        assert mixed.prob(s) == H * d1.prob(s) + H * d2.prob(s)


@given(weights4)
def test_dist_from_reversed_entries_is_equal(w):
    d1 = _dist_of(w)
    d2 = Dist(list(reversed(list(d1.entries))))
    assert d1 == d2
