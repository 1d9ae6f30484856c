"""Reference dominance pruning, kept only to test `Canon.prune` against.

`reference_prune` finds dominated vectors by comparing every pair, with no
scan by descending sum as `Canon.prune` makes, and keeps the smallest
rendering among equal vectors by comparing renderings, where `Canon.prune`
sorts by rendering first.  It borrows only the Canon's atom vectors and
renderings.
"""

from math import lcm


def reference_prune(canon, atoms):
    render = canon.atom_render
    atoms = list({id(a): a for a in atoms}.values())
    vectors = [canon.atom_vector(a) for a in atoms]
    den = lcm(*(d for d, _ in vectors))
    best = {}  # vector -> the atom with the smallest rendering, first seen on ties
    for a, (d, v) in zip(atoms, vectors):
        v = tuple(x * (den // d) for x in v)
        if any(v) and (v not in best or render(a) < render(best[v])):
            best[v] = a
    kept = [
        a
        for v, a in best.items()
        if not any(w != v and all(x <= y for x, y in zip(v, w)) for w in best)
    ]
    return sorted(kept, key=render)
