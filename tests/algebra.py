"""Seeded random-expression battery for the gain-algebra laws.

Shared between the unit tests and the acceptance suite.  Expressions are
drawn from a fixed pool over a two-variable state space (one bool, one small
int), combined to a bounded depth, and every algebraic law is decided
semantically, on every distribution over that space.
"""

import random
from fractions import Fraction

from kuifje.gain import Canon, semantic_eq, semantic_le, simplify
from kuifje.lang import (
    GAnd,
    GMax,
    GPlus,
    RatLit,
    parse_expr,
    parse_gain,
    parse_program,
)

_SRC = "hidden a : bool\nhidden x : int[0..3]\nskip"

DECLS = parse_program(_SRC).decls

ZERO = parse_gain("0")

ATOM_POOL = [
    "[a]",
    "[not a]",
    "[x = 0]",
    "[x = 1]",
    "[x >= 2]",
    "[x < 3]",
    "[a or x = 0]",
    "[x != 1]",
    "1/2 * [a]",
    "1/3",
    "x",
    "max(x, 1)",
    "x * [not a]",
    "2 * [x = 2]",
    "0",
    "1",
    "[a and x < 2]",
]

SCALAR_POOL = ["x", "max(x, 1)", "[a]", "2", "[x < 2]"]

QUANT_POOL = [
    "MAX w in 0..2: [x = w]",
    "MAX w in 1..2: w AND [x >= w]",
    "MAX w in {0, 3}: [x = w] PLUS [a]",
]

_PARSED_ATOMS = [parse_gain(t) for t in ATOM_POOL]
_PARSED_SCALARS = [parse_expr(t) for t in SCALAR_POOL] + [
    RatLit(Fraction(1, 2))
]
_PARSED_QUANTS = [parse_gain(t) for t in QUANT_POOL]


def rand_gain(rng, depth):
    """A random gain expression of the given maximum combinator depth."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return rng.choice(_PARSED_QUANTS)
        return rng.choice(_PARSED_ATOMS)
    roll = rng.random()
    if roll < 0.4:
        return GMax(rand_gain(rng, depth - 1), rand_gain(rng, depth - 1))
    if roll < 0.8:
        return GPlus(rand_gain(rng, depth - 1), rand_gain(rng, depth - 1))
    return GAnd(rng.choice(_PARSED_SCALARS), rand_gain(rng, depth - 1))


def run_battery(cases=60, base_seed=20260816):
    """Check every law on `cases` random expression triples.

    Returns (checks, violations): the number of individual law instances
    tried, and a list of (law, description) pairs for any that failed.
    """
    rng = random.Random(base_seed)
    canon = Canon(DECLS)
    checks = 0
    violations = []

    def eq(law, g1, g2):
        nonlocal checks
        checks += 1
        res = semantic_eq(g1, g2, DECLS)
        if not res:
            violations.append((law, res.describe()))

    def le(law, g1, g2):
        nonlocal checks
        checks += 1
        res = semantic_le(g1, g2, DECLS)
        if not res:
            violations.append((law, res.describe()))

    for _ in range(cases):
        g = rand_gain(rng, 2)
        h = rand_gain(rng, 2)
        k = rand_gain(rng, 1)
        s = rng.choice(_PARSED_SCALARS)

        eq("MAX commutes", GMax(g, h), GMax(h, g))
        eq("MAX associates", GMax(g, GMax(h, k)), GMax(GMax(g, h), k))
        eq("MAX unit 0", GMax(g, ZERO), g)
        eq("PLUS commutes", GPlus(g, h), GPlus(h, g))
        eq("PLUS associates", GPlus(g, GPlus(h, k)), GPlus(GPlus(g, h), k))
        eq("PLUS unit 0", GPlus(g, ZERO), g)
        le("PLUS monotone", g, GPlus(g, h))
        eq(
            "PLUS distributes over MAX",
            GPlus(GMax(g, h), k),
            GMax(GPlus(g, k), GPlus(h, k)),
        )
        le(
            "MAX sub-distributes over PLUS",
            GMax(g, GPlus(h, k)),
            GPlus(GMax(g, h), GMax(g, k)),
        )
        eq(
            "AND distributes over MAX",
            GAnd(s, GMax(g, h)),
            GMax(GAnd(s, g), GAnd(s, h)),
        )
        eq(
            "AND distributes over PLUS",
            GAnd(s, GPlus(g, h)),
            GPlus(GAnd(s, g), GAnd(s, h)),
        )
        eq(
            "normal form preserves meaning",
            g,
            simplify(g, DECLS, canon).as_gain(),
        )

    return checks, violations
