"""Exact probability kernel: states, distributions, hyper-distributions.

All probabilities are `fractions.Fraction` values, never floats.  A Dist is a
finite probability distribution in canonical form (entries sorted, zero
probabilities pruned, probabilities summing to exactly one).  A Hyper is a
distribution over distributions, again canonical: equal inner distributions
are merged by adding their outer weights.

Canonical form gives structural equality the right meaning: two pipelines
that produce the same knowledge state produce equal Hyper values.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NegativeProbability, SumNotOne

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _fmt_value(v):
    """Render a state-space value the way the surface language writes it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "[" + ",".join(_fmt_value(x) for x in v) + "]"
    return str(v)


# --- declared domains ---------------------------------------------------------


class BoolDomain:
    """The two-element domain of booleans."""

    size = 2

    def values(self):
        return (False, True)

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
    """

    __slots__ = ("names", "values", "_hash")

    def __init__(self, names, values):
        self.names = names
        self.values = values
        self._hash = hash(values)

    def get(self, name):
        return self.values[self.names.index(name)]

    def set(self, name, value):
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


def all_states(names, domains):
    """Every State over the given parallel name/domain lists, in order."""
    names = tuple(names)
    states = [()]
    for dom in domains:
        states = [vals + (v,) for vals in states for v in dom.values()]
    return [State(names, vals) for vals in states]


# --- distributions ------------------------------------------------------------


class Dist:
    """A finite discrete distribution with exact rational probabilities."""

    __slots__ = ("entries", "_hash")

    def __init__(self, pairs, _canonical=False):
        if _canonical:
            self.entries = pairs
        else:
            acc = {}
            for elem, p in pairs:
                p = Fraction(p)
                if p < 0:
                    raise NegativeProbability(f"probability {p} for {elem!r}")
                if p == 0:
                    continue
                acc[elem] = acc.get(elem, ZERO) + p
            total = sum(acc.values(), ZERO)
            if total != 1:
                raise SumNotOne(f"probabilities sum to {total}, not 1")
            self.entries = tuple(sorted(acc.items()))
        self._hash = hash(self.entries)

    def support(self):
        return tuple(e for e, _ in self.entries)

    def prob(self, elem):
        for e, p in self.entries:
            if e == elem:
                return p
        return ZERO

    def expectation(self, f):
        return sum((p * f(e) for e, p in self.entries), ZERO)

    def map(self, f):
        """Push the distribution forward through f (merging collisions).

        The entries are already exact, positive, and sum to one, and merging
        preserves all three, so this skips the validating constructor.
        """
        acc = {}
        for e, p in self.entries:
            k = f(e)
            q = acc.get(k)
            acc[k] = p if q is None else q + p
        return Dist(tuple(sorted(acc.items())), _canonical=True)

    def __eq__(self, other):
        return isinstance(other, Dist) and self.entries == other.entries

    def __lt__(self, other):
        return self.entries < other.entries

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        inner = ", ".join(f"{e!r}: {p}" for e, p in self.entries)
        return "Dist({" + inner + "})"


def dist_from_entries(pairs):
    """Canonicalize (element, probability) pairs into a Dist."""
    return Dist(pairs)


def point(elem):
    """The distribution putting all mass on one element."""
    return Dist(((elem, ONE),), _canonical=True)


def uniform(elements):
    elements = list(elements)
    p = Fraction(1, len(elements))
    return Dist([(e, p) for e in elements])


def expectation(dist, f):
    return dist.expectation(f)


# --- hyper-distributions ------------------------------------------------------


class Hyper:
    """A distribution over distributions (an observer's knowledge state)."""

    __slots__ = ("entries", "_hash")

    def __init__(self, pairs, _canonical=False):
        if _canonical:
            self.entries = pairs
        else:
            acc = {}
            for inner, w in pairs:
                w = Fraction(w)
                if w < 0:
                    raise NegativeProbability(f"outer weight {w}")
                if w == 0:
                    continue
                acc[inner] = acc.get(inner, ZERO) + w
            total = sum(acc.values(), ZERO)
            if total != 1:
                raise SumNotOne(f"outer weights sum to {total}, not 1")
            self.entries = tuple(sorted(acc.items(), key=lambda kv: kv[0].entries))
        self._hash = hash(self.entries)

    def inners(self):
        return tuple(d for d, _ in self.entries)

    def weight(self, inner):
        for d, w in self.entries:
            if d == inner:
                return w
        return ZERO

    def expectation(self, f):
        """Average f over the inner distributions."""
        return sum((w * f(d) for d, w in self.entries), ZERO)

    def avg(self):
        """Flatten back to a single distribution (the observer forgets)."""
        acc = {}
        for inner, w in self.entries:
            for e, p in inner.entries:
                acc[e] = acc.get(e, ZERO) + w * p
        return Dist(tuple(sorted(acc.items())), _canonical=True)

    def __eq__(self, other):
        return isinstance(other, Hyper) and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        inner = ", ".join(f"{w} @ {d!r}" for d, w in self.entries)
        return "Hyper(" + inner + ")"


def hyper_reduce(pairs):
    """Canonicalize (inner distribution, outer weight) pairs into a Hyper."""
    return Hyper(pairs)


def _hyper_merge(pairs):
    """Trusted hyper_reduce for interpreter-internal pairs.

    Callers guarantee exact positive weights summing to one (channel splits
    and Markov pushes preserve mass), so only merging and the canonical sort
    remain.
    """
    acc = {}
    for inner, w in pairs:
        q = acc.get(inner)
        acc[inner] = w if q is None else q + w
    return Hyper(
        tuple(sorted(acc.items(), key=lambda kv: kv[0].entries)), _canonical=True
    )


def unit(dist):
    """Embed a distribution as the trivial (no-knowledge-gained) hyper."""
    return Hyper(((dist, ONE),), _canonical=True)


def avg(hyper):
    return hyper.avg()
