"""The enumerated posetal product, kept as a differential oracle.

These are the posetal table builders the library used before it grew
the product from the root triple: every pair of configurations is
searched for history isomorphisms, and the transfer and sub-triple
tables test each candidate for membership in the enumerated space.
They are slow on purpose and independent of the library's extension
test, its buckets and its hp quotient, and they read the configurations
and action tables of ``table_oracle``, not the library's configuration
graph; ``tests/test_posetal.py`` compares the library's product with
them, and ``kleene_oracle`` runs its reference fixpoints over them.
:func:`triple_demands` applies the library's ``_engine.demand`` to
every triple of such triple-keyed tables.
"""

from functools import lru_cache

from pomcheck._engine import demand
from table_oracle import action_table, configurations

ROOT_TRIPLE = (frozenset(), frozenset(), frozenset())


def history_isos(es1, c, es2, d):
    """All label- and order-preserving bijections between two histories.

    Partial bijections grow by one event of ``c`` at a time, in event
    order, on an explicit stack.
    """
    if len(c) != len(d):
        return []
    left = sorted(c)
    right = sorted(d)
    isos = []
    stack = [()]
    while stack:
        pairs = stack.pop()
        if len(pairs) == len(left):
            isos.append(frozenset(pairs))
            continue
        e = left[len(pairs)]
        used = {b for _, b in pairs}
        for f in right:
            if f in used or es1.labels[e] != es2.labels[f]:
                continue
            # order-preserving both ways over already-mapped events
            if all((a in es1.causes[e]) == (b in es2.causes[f])
                   and (e in es1.causes[a]) == (f in es2.causes[b])
                   for a, b in pairs):
                stack.append(pairs + ((e, f),))
    return isos


@lru_cache(maxsize=None)
def triple_space(es1, es2) -> frozenset:
    """The posetal product of the two structures' configuration spaces."""
    triples = set()
    configs2 = configurations(es2)
    for c in configurations(es1):
        for d in configs2:
            for f in history_isos(es1, c, es2, d):
                triples.add((c, f, d))
    return frozenset(triples)


def sub_triples(es1, es2):
    """Immediate pointwise-sub-triple table for downward-closure pruning.

    Removing one pair (e, f(e)) with e maximal in C keeps us inside the
    posetal product (isomorphisms preserve maximality), and iterating
    one-pair removals reaches every pointwise-smaller triple.
    """
    space = triple_space(es1, es2)
    table = {}
    for (c, f, d) in space:
        subs = []
        for e, g in f:
            if any(e in es1.causes[x] for x in c):
                continue  # e not maximal in c
            sub = (c - {e}, frozenset((a, b) for a, b in f if a != e), d - {g})
            if sub in space:
                subs.append(sub)
        table[(c, f, d)] = tuple(subs)
    return table


def triple_transitions(es1, es2):
    """Per-triple action-transfer candidate tables.

    For each triple T = (C, f, D) and each single-event extension
    C -a-> C', the table lists the triples (C', f[e -> e'], D') in the
    posetal product with D -a-> D' matching the same action; and the
    symmetric table for extensions of D.
    """
    space = triple_space(es1, es2)
    tab1 = action_table(es1)
    tab2 = action_table(es2)
    fwd = {}
    bwd = {}
    for (c, f, d) in space:
        fw = []
        for lab, e, c2 in tab1[c]:
            cands = []
            for lab2, g, d2 in tab2[d]:
                if lab2 != lab:
                    continue
                f2 = f | {(e, g)}
                if (c2, f2, d2) in space:
                    cands.append((c2, f2, d2))
            fw.append((lab, tuple(cands)))
        bw = []
        for lab, g, d2 in tab2[d]:
            cands = []
            for lab2, e, c2 in tab1[c]:
                if lab2 != lab:
                    continue
                f2 = f | {(e, g)}
                if (c2, f2, d2) in space:
                    cands.append((c2, f2, d2))
            bw.append((lab, tuple(cands)))
        fwd[(c, f, d)] = tuple(fw)
        bwd[(c, f, d)] = tuple(bw)
    return fwd, bwd


def split(obligations):
    """``(label, candidates)`` obligations as the ``(labels, groups)``
    pair that ``_engine.demand`` reads."""
    return tuple(zip(*obligations)) or ((), ())


def triple_demands(fwd, bwd, es1, es2, acts, pre) -> dict:
    """The ``_engine.demand`` of every triple of a posetal product.

    ``fwd`` and ``bwd`` are the product's transfer tables; ``acts``
    (``None`` for none) restricts the observed actions.
    """
    div1, div2 = es1.divergent_configs, es2.divergent_configs
    return {
        t: demand(split(fw), split(bwd[t]), t[0] in div1, t[2] in div2,
                  acts, pre)
        for t, fw in fwd.items()
    }
