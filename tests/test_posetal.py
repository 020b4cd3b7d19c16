"""The posetal product grown from the root against the enumerated one.

The library grows the product from the root triple in one pass, and
decides hp over the product quotiented by relevant events.  Its tables
must equal those of the configs x configs enumeration in
``posetal_oracle``, and its hp answers those of rounds over the full
enumerated product.
"""

from collections import Counter

import pytest

import kleene_oracle
import posetal_oracle as oracle
import table_oracle
from conftest import f1_terms
from pomcheck import _engine
from pomcheck import prebisim as pb
from pomcheck.equiv import RelationKind, bisim, verdict
from pomcheck.estructure import (
    EMPTY_CONFIG,
    PrimeEventStructure,
    ProcessState,
    compiled,
)
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
    demands = oracle.triple_demands(fwd, bwd, es1, es2, acts, pre)

    def labelled(obligations):
        return tuple((singleton(lab), cands) for lab, cands in obligations)

    root = oracle.ROOT_TRIPLE
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
            assert got == verdict(full, True)
            r = _engine.ranks(p, q, HP, restriction, pre)
            assert r.size <= full.size
            assert r.depth == full.depth
            for n in range(4):
                assert r.holds_at(n) == full.holds_at(n)
        full = _full_ranks(es1, es2, tables, pmax, True)
        assert _engine.stable_depth(p, q, HP) == full.depth
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


def _hand_built(spec, stride, offset):
    """A structure of branches in mutual conflict, one per ``spec`` entry.

    An entry is ``(labels, divergent)``: a branch of events t, u, v and
    optionally w, labelled by ``labels``, with t below u and v and u
    below w; ``divergent`` lists configurations of the branch as index
    tuples.  The k-th event made gets id ``(stride * k) % 1009 +
    offset``, so ids are scattered, their order is not the order the
    events were made in, and a cause can sit above its effect in
    position order.
    """
    labels, causes, divergent, cones = {}, {}, [], []
    k = 0
    for labs, div in spec:
        ids = [(stride * (k + i)) % 1009 + offset for i in range(len(labs))]
        k += len(labs)
        labels.update(zip(ids, labs))
        causes[ids[1]] = causes[ids[2]] = {ids[0]}
        if len(ids) > 3:
            causes[ids[3]] = {ids[0], ids[1]}
        divergent += [frozenset(ids[i] for i in c) for c in div]
        cones.append(ids)
    conflicts = {e: {x for cone in cones if e not in cone for x in cone}
                 for e in labels}
    return PrimeEventStructure(labels, labels, causes, conflicts, divergent)


def _spec(short, also_divergent):
    return [("abb" if i == short else "abba" if i % 4 else "abbc",
             [(0, 1)] * (i % 5 == 0) + [(0, 1, 2, 3)] * (i == also_divergent))
            for i in range(17)]


def _node_key(es1, es2, t, hereditary, rel1, rel2):
    """The product node of the full triple ``t``, packed as the library packs it."""
    def mask(es, events):
        return sum(1 << es.events.index(e) for e in events)

    c, f, d = t
    width = len(es2.events).bit_length()
    iso = 0
    for a, b in f:
        if hereditary or a in rel1[c] or b in rel2[d]:
            iso |= es2.events.index(b) + 1 << width * es1.events.index(a)
    return mask(es1, c), iso, mask(es2, d)


def test_positions_are_not_events():
    left = _hand_built(_spec(None, None), 37, 3)
    copy = _hand_built(_spec(None, None), 53, 11)
    other = _hand_built(_spec(3, 10), 41, 7)
    other_copy = _hand_built(_spec(3, 10), 59, 5)
    assert len(left.events) == 68 and len(other.events) == 67
    assert left.events != tuple(range(68))
    quotient_sizes = []
    for es1, es2 in [(left, copy), (left, other), (other, left),
                     (other, other_copy)]:
        space = oracle.triple_space(es1, es2)
        assert _engine.triple_space(es1, es2) == space
        ofwd, obwd = oracle.triple_transitions(es1, es2)
        fwd, bwd = _engine.triple_transitions(es1, es2)
        subs, osubs = _engine.sub_triples(es1, es2), oracle.sub_triples(es1, es2)
        for t in space:
            assert _obligations(fwd[t]) == _obligations(ofwd[t])
            assert _obligations(bwd[t]) == _obligations(obwd[t])
            assert set(subs[t]) == set(osubs[t])
        rel1, rel2 = table_oracle.relevant(es1), table_oracle.relevant(es2)
        p, q = ProcessState(es1, EMPTY_CONFIG), ProcessState(es2, EMPTY_CONFIG)
        for kind in (HP, HHP):
            hereditary = kind is HHP
            nodes = _engine._posetal_product(es1, es2, hereditary)[0]
            node = {n: i for i, n in enumerate(nodes)}
            keys = {t: _node_key(es1, es2, t, hereditary, rel1, rel2)
                    for t in space}
            assert set(keys.values()) == set(nodes)
            if not hereditary:
                quotient_sizes.append((len(nodes), len(space)))
            pmax = pb.dominating_restriction(p, q, kind)
            queries = [
                (None, False, bisim(p, q, kind, want_witness=True)),
                (None, True, pb.prebisim(p, q, kind, want_witness=True)),
                (pmax, True, pb.fin_preorder(p, q, kind, want_witness=True)),
            ]
            for restriction, pre, got in queries:
                acts = None
                if restriction is not None:
                    acts = {u.label_multiset()[0] for u in restriction}
                demands = oracle.triple_demands(ofwd, obwd, es1, es2, acts, pre)
                rank = kleene_oracle.rescan_rounds(
                    demands, ofwd if hereditary else None)
                r = _engine.ranks(p, q, kind, restriction, pre)
                assert r.size == len(nodes)
                for t in space:
                    assert r.rank.get(node[keys[t]]) == rank.get(t)
                root = oracle.ROOT_TRIPLE
                full = _engine.Ranks(
                    rank, root,
                    tuple((singleton(lab), c) for lab, c in ofwd[root]),
                    tuple((singleton(lab), c) for lab, c in obwd[root]),
                    len(space))
                assert got == verdict(full, True)
                assert r.depth == full.depth
    # the hp quotient merges some triples
    assert any(n < size for n, size in quotient_sizes)
