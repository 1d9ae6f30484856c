"""Reference DNF minimisation, kept only to test `Canon._minimize` against.

`ReferenceMinimizer` is the minimisation `Canon` used before it worked on
cached conjunction masks: every candidate deletion is a new frozenset whose
states are found by ANDing its literals' masks again, and each literal's
mask comes from its own walk of the literal, state by state, with the
reference evaluator's `truth` under the literal's polarity.  It borrows only
the Canon's state list and renderings, and keeps its own memos, so it leaves
the Canon's caches as it found them.
"""

from kuifje.gain import FALSE_DNF, TRUE_DNF
from reference_eval import truth


class ReferenceMinimizer:
    def __init__(self, canon):
        self.canon = canon
        self.full = canon.full
        self._lits = {}
        self._models = {}

    def lit_models(self, lit):
        mask = self._lits.get(lit)
        if mask is None:
            neg, atom = lit
            states = self.canon.evaluator.states
            bits = "".join("1" if truth(atom, s, neg=neg) else "0" for s in states)
            mask = self._lits[lit] = int(bits[::-1] or "0", 2)
        return mask

    def models(self, dnf):
        out = self._models.get(dnf)
        if out is None:
            out = 0
            for conj in dnf:
                acc = self.full
                for lit in conj:
                    acc &= self.lit_models(lit)
                    if not acc:
                        break
                out |= acc
            self._models[dnf] = out
        return out

    def minimize(self, dnf):
        canon = self.canon
        if dnf in (TRUE_DNF, FALSE_DNF):
            return dnf
        target = self.models(dnf)
        if not target:
            return FALSE_DNF
        if target == self.full:
            return TRUE_DNF

        def conj_key(conj):
            return tuple(sorted(canon.lit_render(lit) for lit in conj))

        conjs = sorted(set(dnf), key=conj_key)
        conjs = [c for c in conjs if self.models(frozenset({c}))]
        # absorption: a superset conjunction is redundant next to its subset
        kept = []
        for c in conjs:
            if any(other < c for other in conjs if other != c):
                continue
            kept.append(c)
        conjs = kept

        changed = True
        while changed:
            changed = False
            # greedy literal deletion, in deterministic order
            for i, conj in enumerate(list(conjs)):
                for lit in sorted(conj, key=canon.lit_render):
                    slim = conj - {lit}
                    cand = frozenset(conjs[:i] + [slim] + conjs[i + 1 :])
                    if self.models(cand) == target:
                        conjs[i] = slim
                        conj = slim
                        changed = True
            # greedy disjunct deletion
            for i in range(len(conjs) - 1, -1, -1):
                cand = frozenset(conjs[:i] + conjs[i + 1 :])
                if cand and self.models(cand) == target:
                    del conjs[i]
                    changed = True
        result = frozenset(conjs)
        if result == frozenset({frozenset()}):
            return TRUE_DNF
        return result
