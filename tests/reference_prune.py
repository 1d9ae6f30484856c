"""Reference dominance pruning, kept only to test `Canon.prune` against.

`reference_prune` values each atom as one `GainEvaluator` column over the
declared states, where `Canon.prune` reads level sets from its masks and
factor columns; it finds dominated vectors by comparing every pair, with no
scan by descending sum, and keeps the smallest rendering among equal vectors
by comparing renderings, where `Canon.prune` sorts by rendering first.  It
borrows only the Canon's declarations and renderings.
"""

from operator import le

from kuifje.core import all_states
from kuifje.gain import GainEvaluator


def atom_values(canon, atom, states=None):
    """The atom's value on each declared state, as the column of a new
    `GainEvaluator` over them; an integral value as an int, which compares
    faster and equal."""
    if states is None:
        states = all_states(canon.names, list(canon.domains.values()))
    values = GainEvaluator(states).column(canon.atom_expr(atom))
    return tuple(x.numerator if x.denominator == 1 else x for x in values)


def reference_prune(canon, atoms, values=None):
    """`Canon.prune`'s result, found the slow way; values(atom), if given,
    replaces `atom_values` (a test may memoise it across calls)."""
    render = canon.atom_render
    if values is None:
        states = all_states(canon.names, list(canon.domains.values()))
        values = lambda a: atom_values(canon, a, states)  # noqa: E731
    atoms = list({id(a): a for a in atoms}.values())
    best = {}  # vector -> the atom with the smallest rendering, first seen on ties
    for a in atoms:
        v = values(a)
        if any(v) and (v not in best or render(a) < render(best[v])):
            best[v] = a
    kept = [
        a
        for v, a in best.items()
        if not any(w is not v and all(map(le, v, w)) for w in best)
    ]
    return sorted(kept, key=render)
