"""Reference dominance pruning, kept only to test `Canon.prune` against.

`reference_prune` finds equal vectors by hashing them and dominated ones by
comparing every pair: none of the grouping by sum and first nonzero
position, or the scan by descending sum, that `Canon.prune` uses to avoid
both.  It borrows only the Canon's atom vectors and renderings.
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
