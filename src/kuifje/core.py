"""Exact probability kernel: states, distributions, hyper-distributions.

Probabilities are exact, never floats.  A Dist holds positive integer weights
in one canonical form (see `Dist`), so two pipelines that produce the same
distribution produce equal values.  A Hyper is a Dist whose elements are
Dists.  `Dist(pairs)` and `Hyper(pairs)` validate outside probabilities;
`Dist.from_weights` takes the package's own integer weights, exact by
construction, and validates nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import itemgetter

from .errors import NegativeProbability, SumNotOne

ZERO = Fraction(0)
_first = itemgetter(0)


def _fmt_value(v):
    """Render a state-space value the way the surface language writes it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "[" + ",".join(_fmt_value(x) for x in v) + "]"
    return str(v)


# --- declared domains ---------------------------------------------------------
#
# A domain lists its values in order (`values()`); `position(v)` is v's place
# in that list, in closed form.


class BoolDomain:
    """The two-element domain of booleans."""

    size = 2

    def values(self):
        return (False, True)

    def position(self, v):
        return int(v)

    def contains(self, v):
        return isinstance(v, bool)

    def __repr__(self):
        return "bool"

    def __eq__(self, other):
        return isinstance(other, BoolDomain)

    def __hash__(self):
        return hash("bool")


class IntRange:
    """Inclusive integer interval lo..hi."""

    def __init__(self, lo, hi):
        if hi < lo:
            raise ValueError(f"empty integer range {lo}..{hi}")
        self.lo = lo
        self.hi = hi
        self.size = hi - lo + 1

    def values(self):
        return tuple(range(self.lo, self.hi + 1))

    def position(self, v):
        return v - self.lo

    def contains(self, v):
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi

    def __repr__(self):
        return f"int[{self.lo}..{self.hi}]"

    def __eq__(self, other):
        return isinstance(other, IntRange) and (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash(("int", self.lo, self.hi))


class ArrayDomain:
    """Fixed-length arrays over a scalar element domain; values are tuples."""

    def __init__(self, length, element):
        if length <= 0:
            raise ValueError("array length must be positive")
        self.length = length
        self.element = element
        self.size = element.size**length

    def values(self):
        out = [()]
        for _ in range(self.length):
            out = [rest + (v,) for rest in out for v in self.element.values()]
        return tuple(out)

    def position(self, v):
        # the elements' positions as digits, the first the most significant
        p, element = 0, self.element
        for x in v:
            p = p * element.size + element.position(x)
        return p

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == self.length
            and all(self.element.contains(x) for x in v)
        )

    def __repr__(self):
        return f"array[{self.length}] of {self.element!r}"

    def __eq__(self, other):
        return (
            isinstance(other, ArrayDomain)
            and self.length == other.length
            and self.element == other.element
        )

    def __hash__(self):
        return hash(("array", self.length, self.element))


# --- program states -----------------------------------------------------------


class State:
    """An immutable variable store with a total order and cached hash.

    States of one declaration compare by their values tuple: each position
    holds one domain's values, so the order is lexicographic, the order in
    which `all_states` enumerates them.

    `get`, `set` and `bindings` are the by-name view for library callers
    and tests; the executor reads and writes the values tuple by position.
    """

    __slots__ = ("names", "values", "_hash")

    def __init__(self, names, values):
        self.names = names
        self.values = values
        self._hash = hash(values)

    def get(self, name):
        """The value bound to `name`."""
        return self.values[self.names.index(name)]

    def set(self, name, value):
        """A new State with `name` bound to `value` and the rest unchanged."""
        i = self.names.index(name)
        vals = self.values[:i] + (value,) + self.values[i + 1 :]
        return State(self.names, vals)

    def bindings(self):
        return dict(zip(self.names, self.values))

    def __eq__(self, other):
        return isinstance(other, State) and self.values == other.values

    def __lt__(self, other):
        return self.values < other.values

    def __le__(self, other):
        return self.values <= other.values

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = " ".join(f"{n}={_fmt_value(v)}" for n, v in zip(self.names, self.values))
        return "{" + inner + "}"


class Space:
    """The declared state space as indices.

    Its rows are the values tuples over the parallel name/domain lists in
    `all_states` order, the order of `itertools.product` over the domains'
    values, so the first domain varies slowest and index order is values
    order.  A values tuple's index is the mixed-radix number of its
    per-domain positions: the k-th digit has radix `domains[k].size` and
    weight `strides[k]`, the product of the later domains' sizes.  `index`
    computes it in closed form, so no {values: index} dict is needed;
    `rows` is listed on first read, and a State is built only by `state`
    and `states`, for a caller that wants one.
    """

    def __init__(self, names, domains):
        self.names = tuple(names)
        self.domains = tuple(domains)
        strides, stride = [], 1
        for dom in reversed(self.domains):
            strides.append(stride)
            stride *= dom.size
        self.strides = tuple(reversed(strides))
        self.size = stride

    def __len__(self):
        return self.size

    @cached_property
    def rows(self):
        """Every values tuple, in index order."""
        return list(product(*[dom.values() for dom in self.domains]))

    def index(self, values):
        """The index of a values tuple laid out as the declarations."""
        i = 0
        for dom, v in zip(self.domains, values):
            i = i * dom.size + dom.position(v)
        return i

    def state(self, i):
        """The State at index i."""
        return State(self.names, self.rows[i])

    def states(self):
        """Every State, in index order."""
        names = self.names
        return [State(names, vals) for vals in self.rows]


def all_states(names, domains):
    """Every State over the given parallel name/domain lists, in order."""
    return Space(names, domains).states()


# --- distributions ------------------------------------------------------------


class Dist:
    """A finite discrete distribution with exact rational probabilities.

    Stored as `weights`, (element, positive int) pairs sorted by element with
    gcd 1, and `den`, their sum: element e has probability w/den.  Equal
    distributions therefore have equal `weights`, which equality and hashing
    read.  `entries` is the same distribution as (element, Fraction) pairs.
    """

    __slots__ = ("weights", "den", "_entries", "_hash")

    def __init__(self, pairs):
        self._check(pairs, "probability {p} for {elem!r}", "probabilities")

    @classmethod
    def from_weights(cls, weights):
        """The distribution giving each element of `{element: int}` its weight
        over their sum.  Weights are non-negative and not all zero; zero
        weights are dropped."""
        self = object.__new__(cls)
        self._canon({e: w for e, w in weights.items() if w})
        return self

    def _check(self, pairs, negative, what):
        """Validate outside (element, probability) pairs and canonicalize.

        Each probability is converted once; the sum is checked on integers
        over the lcm of the denominators."""
        parts = []
        for elem, p in pairs:
            if type(p) is not Fraction:
                p = Fraction(p)
            n = p.numerator
            if n < 0:
                raise NegativeProbability(negative.format(p=p, elem=elem))
            if n:
                parts.append((elem, n, p.denominator))
        den = lcm(*{d for _, _, d in parts})
        acc = {}
        for elem, n, d in parts:
            acc[elem] = acc.get(elem, 0) + n * (den // d)
        total = sum(acc.values())
        if total != den:
            raise SumNotOne(f"{what} sum to {Fraction(total, den)}, not 1")
        self._canon(acc)

    def _canon(self, acc):
        """Set the canonical form from `{element: positive int}`."""
        g = gcd(*acc.values())
        # the elements are distinct, so they alone order the pairs
        self.weights = tuple(sorted([(e, w // g) for e, w in acc.items()], key=_first))
        self.den = sum(acc.values()) // g
        self._entries = None
        self._hash = hash(self.weights)

    @property
    def entries(self):
        """(element, Fraction probability) pairs, built on first use."""
        if self._entries is None:
            den = self.den
            self._entries = tuple((e, Fraction(w, den)) for e, w in self.weights)
        return self._entries

    def support(self):
        return tuple(e for e, _ in self.weights)

    def prob(self, elem):
        for e, w in self.weights:
            if e == elem:
                return Fraction(w, self.den)
        return ZERO

    def expectation(self, f):
        return sum((w * f(e) for e, w in self.weights), ZERO) / self.den

    def map(self, f):
        """Push the distribution forward through f (merging collisions)."""
        acc = {}
        for e, w in self.weights:
            k = f(e)
            acc[k] = acc.get(k, 0) + w
        return Dist.from_weights(acc)

    def __eq__(self, other):
        return isinstance(other, Dist) and self.weights == other.weights

    def __lt__(self, other):
        """The order of `entries`, compared without building Fractions."""
        for (e, w), (f, v) in zip(self.weights, other.weights):
            if e != f:
                return e < f
            if w * other.den != v * self.den:
                return w * other.den < v * self.den
        return len(self.weights) < len(other.weights)

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.weights)

    def __repr__(self):
        inner = ", ".join(f"{e!r}: {p}" for e, p in self.entries)
        return "Dist({" + inner + "})"


def point(elem):
    """The distribution putting all mass on one element."""
    return Dist.from_weights({elem: 1})


def uniform(elements):
    elements = list(elements)
    p = Fraction(1, len(elements))
    return Dist([(e, p) for e in elements])


def expectation(dist, f):
    return dist.expectation(f)


# --- hyper-distributions ------------------------------------------------------


class Hyper(Dist):
    """A distribution over distributions (an observer's knowledge state).

    Its elements are the inner Dists, ordered as their `entries` are, and its
    weights are their outer weights.
    """

    __slots__ = ()

    def __init__(self, pairs):
        self._check(pairs, "outer weight {p}", "outer weights")

    inners = Dist.support
    weight = Dist.prob

    def avg(self):
        """Flatten back to a single distribution (the observer forgets)."""
        den = lcm(*(d.den for d, _ in self.weights))
        acc = {}
        for d, w in self.weights:
            k = w * (den // d.den)
            for e, v in d.weights:
                acc[e] = acc.get(e, 0) + k * v
        return Dist.from_weights(acc)

    def __repr__(self):
        inner = ", ".join(f"{w} @ {d!r}" for d, w in self.entries)
        return "Hyper(" + inner + ")"


def unit(dist):
    """Embed a distribution as the trivial (no-knowledge-gained) hyper."""
    return Hyper.from_weights({dist: 1})


def avg(hyper):
    return hyper.avg()
