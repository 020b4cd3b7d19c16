"""The posetal product grown from the root against the enumerated one.

The library grows the product from the root triple in one pass, and
decides hp over the product quotiented by relevant events.  Its tables
must equal those of the configs x configs enumeration in
``posetal_oracle``, and its hp answers those of rounds over the full
enumerated product.
"""

from collections import Counter

import pytest

import posetal_oracle as oracle
from conftest import f1_terms
from pomcheck import _engine
from pomcheck import prebisim as pb
from pomcheck.equiv import RelationKind, bisim, verdict
from pomcheck.estructure import compiled
from pomcheck.grammar import parse_term
from pomcheck.pomset import singleton
from pomcheck.testgen import random_tree

HP, HHP = RelationKind.HP, RelationKind.HHP


def _random_pairs():
    """Seeded random pairs, and each of their trees against itself."""
    pairs = []
    for i in range(300):
        p = compiled(random_tree(f"L{i}", 7, ("a", "b")))
        q = compiled(random_tree(f"R{i}", 7, ("a", "b")))
        pairs += [(p, q), (p, p), (q, q)]
    return pairs


def _f1_pairs(labels):
    procs = [compiled(parse_term(text)) for text in f1_terms(labels)]
    return [(p, q) for p in procs for q in procs]


FAMILIES = {
    "random": _random_pairs,
    **{f"f1-{m}": (lambda m=m: _f1_pairs(m))
       for m in ("abcde", "aabbc", "aaabb", "aaabbb")},
}


def _obligations(table):
    """Each obligation's label, in order, with its candidates as a multiset."""
    return [(lab, Counter(cands)) for lab, cands in table]


def _full_ranks(es1, es2, tables, restriction, pre):
    """hp ranks from rounds over the full enumerated product's tables."""
    acts = None
    if restriction is not None:
        acts = {u.label_multiset()[0] for u in restriction}
    fwd, bwd = tables
    demands = _engine.triple_demands(fwd, bwd, es1, es2, acts, pre)

    def labelled(obligations):
        return tuple((singleton(lab), cands) for lab, cands in obligations)

    root = _engine.ROOT_TRIPLE
    return _engine.Ranks(_engine._rounds(demands), root, labelled(fwd[root]),
                         labelled(bwd[root]), len(demands))


@pytest.mark.parametrize("family", FAMILIES)
def test_product_tables_match_enumeration(family):
    for p, q in FAMILIES[family]():
        es1, es2 = p.structure, q.structure
        space = oracle.triple_space(es1, es2)
        assert _engine.triple_space(es1, es2) == space
        fwd, bwd = _engine.triple_transitions(es1, es2)
        ofwd, obwd = oracle.triple_transitions(es1, es2)
        subs = _engine.sub_triples(es1, es2)
        osubs = oracle.sub_triples(es1, es2)
        assert fwd.keys() == bwd.keys() == subs.keys() == space
        for t in space:
            assert _obligations(fwd[t]) == _obligations(ofwd[t])
            assert _obligations(bwd[t]) == _obligations(obwd[t])
            assert set(subs[t]) == set(osubs[t])


@pytest.mark.parametrize("family", FAMILIES)
def test_hp_quotient_matches_full_product(family):
    for p, q in FAMILIES[family]():
        es1, es2 = p.structure, q.structure
        tables = oracle.triple_transitions(es1, es2)
        pmax = pb.dominating_restriction(p, q, HP)
        queries = [
            (None, False, bisim(p, q, HP, want_witness=True)),
            (None, True, pb.prebisim(p, q, HP, want_witness=True)),
            (pmax, True, pb.fin_preorder(p, q, HP, want_witness=True)),
        ]
        for restriction, pre, got in queries:
            full = _full_ranks(es1, es2, tables, restriction, pre)
            assert got == verdict(full, True, restriction)
            r = _engine.ranks(p, q, HP, restriction, pre)
            assert r.size <= full.size
            assert r.depth == full.depth
            for n in range(4):
                assert r.holds_at(n) == full.holds_at(n)
        full = _full_ranks(es1, es2, tables, pmax, True)
        assert _engine.stable_depth(p, q, HP, pmax) == full.depth
        full = _full_ranks(es1, es2, tables, None, True)
        for n in range(4):
            assert pb.level_approx(p, q, HP, n) == full.holds_at(n)


@pytest.mark.parametrize("labels,triples,hp_nodes", [
    ("aaabb", 293, 162),
    ("aaabbb", 1400, 526),
    ("aaaabbb", 8270, 1808),
])
def test_f1_self_product_sizes(labels, triples, hp_nodes):
    q_text = f1_terms(labels)[1]
    p, q = compiled(parse_term(q_text)), compiled(parse_term(q_text))
    assert len(_engine.triple_space(p.structure, q.structure)) == triples
    assert _engine.ranks(p, q, HP).size == hp_nodes
    assert _engine.ranks(p, q, HHP).size == triples
    assert bisim(p, q, HP).related
    assert bisim(p, q, HHP).related
