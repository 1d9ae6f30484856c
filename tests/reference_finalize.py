"""Reference term merging, kept only to test `Canon._finalize` against.

`reference_finalize` is the merge `Canon` used before it merged on
`(pred, factors)` keys and sorted by kept factor renderings: it builds a
new `_Term` at every step, sorts every bucket of one coefficient and
factor list by predicate rendering, scans it for disjoint predicates even
when it holds one term, and renders each term's factors again for every
comparison.  It borrows the Canon's minimiser, predicate masks and
renderings, whose memos hold the same values whoever asks, and returns
the atom as a tuple of terms without interning it.
"""

from kuifje.gain import FALSE_DNF, TRUE_DNF, ZERO, _Term
from kuifje.lang import expr_to_source


def reference_finalize(canon, terms):
    # minimize predicates, dropping unsatisfiable terms
    live = []
    for t in terms:
        if t.coeff == 0:
            continue
        pred = t.pred
        if pred is not None:
            pred = canon.minimize(pred)
            if pred == FALSE_DNF:
                continue
            if pred == TRUE_DNF:
                pred = None
        live.append(_Term(t.coeff, pred, t.factors))
    # merge identical (pred, factors)
    merged = {}
    for t in live:
        k = (t.pred, t.factors)
        merged[k] = merged.get(k, ZERO) + t.coeff
    live = [
        _Term(c, pred, factors) for (pred, factors), c in merged.items() if c != 0
    ]
    # merge guarded copies of the same quantity over disjoint predicates:
    # c*[p]*F + c*[q]*F with p, q disjoint becomes c*[p or q]*F
    buckets = {}
    for t in live:
        buckets.setdefault((t.coeff, t.factors), []).append(t)
    out = []
    for (coeff, factors), group in sorted(
        buckets.items(),
        key=lambda kv: (tuple(map(expr_to_source, kv[0][1])), kv[0][0]),
    ):
        group.sort(key=lambda t: "" if t.pred is None else canon.pred_render(t.pred))
        acc = []
        for t in group:
            if t.pred is None:
                acc.append(t)
                continue
            for i, u in enumerate(acc):
                if u.pred is not None and canon.preds_disjoint(u.pred, t.pred):
                    pred = canon.minimize(u.pred | t.pred)
                    if pred == TRUE_DNF:
                        pred = None
                    acc[i] = _Term(coeff, pred, factors)
                    break
            else:
                acc.append(t)
        out.extend(acc)

    def term_key(t):
        return (
            tuple(expr_to_source(f) for f in t.factors),
            "" if t.pred is None else canon.pred_render(t.pred),
            t.coeff,
        )

    return tuple(sorted(out, key=term_key))
