"""Reference prior-file reader, kept only to test the prior file readers
(`cli._prior_columns` and `cli._prior_lines`, whose weight tables are named
as States) and `Dist`'s validation against.

`prior_from_lines` reads a prior as the package did before it read each
binding and probability text once per file: each line is bound through a
fresh dict, each probability is parsed into a `Fraction`, and `canonical`
sums the `Fraction`s before it scales them to integer weights.  It returns
the canonical `(weights, den)` of the prior, or raises the error the package
raised, with the same message.
"""

from fractions import Fraction
from math import gcd, lcm

from kuifje.core import State
from kuifje.errors import KuifjeError, NegativeProbability, SumNotOne


def canonical(pairs, negative="probability {p} for {elem!r}", what="probabilities"):
    """`(weights, den)` of validated (element, probability) pairs."""
    acc = {}
    for elem, p in pairs:
        p = Fraction(p)
        if p < 0:
            raise NegativeProbability(negative.format(p=p, elem=elem))
        if p:
            acc[elem] = acc.get(elem, Fraction(0)) + p
    total = sum(acc.values(), Fraction(0))
    if total != 1:
        raise SumNotOne(f"{what} sum to {total}, not 1")
    den = lcm(*(p.denominator for p in acc.values()))
    ints = {e: p.numerator * (den // p.denominator) for e, p in acc.items()}
    g = gcd(*ints.values())
    return tuple(sorted((e, w // g) for e, w in ints.items())), sum(ints.values()) // g


def _parse_value(text):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        if not body:
            return ()
        return tuple(_parse_value(part) for part in body.split(","))
    try:
        return int(text)
    except ValueError:
        raise KuifjeError(f"bad value {text!r} in prior") from None


def _prob(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise KuifjeError(f"bad probability {text!r}") from None


def _parse_bindings(text, decls):
    by_name = {d.name: d for d in decls}
    got = {}
    for piece in text.split():
        if "=" not in piece:
            raise KuifjeError(f"bad binding {piece!r} in prior (want name=value)")
        name, _, val = piece.partition("=")
        if name not in by_name:
            raise KuifjeError(f"prior binds undeclared variable {name!r}")
        v = _parse_value(val)
        if not by_name[name].domain.contains(v):
            raise KuifjeError(f"prior value {name}={val} is outside its domain")
        got[name] = v
    missing = [d.name for d in decls if d.name not in got]
    if missing:
        raise KuifjeError(f"prior line leaves {', '.join(missing)} unbound")
    names = tuple(d.name for d in decls)
    return State(names, tuple(got[n] for n in names))


def prior_from_lines(text, decls):
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise KuifjeError(f"bad prior line {line!r} (want bindings : prob)")
        left, _, prob = line.rpartition(":")
        pairs.append((_parse_bindings(left, decls), _prob(prob.strip())))
    if not pairs:
        raise KuifjeError("prior file/directive contains no entries")
    return canonical(pairs)
