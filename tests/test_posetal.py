"""The posetal product grown from the root against the enumerated one.

The library grows the product from the root triple in one pass, and
decides hp over the product quotiented by relevant events, and hp and
hhp over one node per orbit under swaps of twin events.  Its full
tables must equal those of the configs x configs enumeration in
``posetal_oracle``, and its answers and every node's rank those of
rounds over the full enumerated product.
"""

import random
from collections import Counter

import pytest

import kleene_oracle
import posetal_oracle as oracle
import table_oracle
from conftest import f1_terms
from pomcheck import _engine
from pomcheck import estructure as es_mod
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


def _actions(es1, es2):
    """Every label of both structures, as singleton pomsets: the hp/hhp
    dominating set, which the action tables must list (every event of
    these structures is enabled in some configuration)."""
    return {singleton(lab) for es in (es1, es2) for lab in es.labels.values()}


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
        assert pmax == _actions(es1, es2)
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


@pytest.mark.parametrize("labels,triples,orbits", [
    ("aaabb", 293, 23),
    ("aaabbb", 1400, 30),
    ("aaaabbb", 8270, 38),
    ("aaaabbbb", 50795, 47),
])
def test_f1_self_product_sizes(labels, triples, orbits):
    # the full product keeps every triple; hp and hhp build one node per
    # orbit under swaps of twin events
    q_text = f1_terms(labels)[1]
    p, q = compiled(parse_term(q_text)), compiled(parse_term(q_text))
    assert len(_engine.triple_space(p.structure, q.structure)) == triples
    assert _engine.ranks(p, q, HP).size == orbits
    assert _engine.ranks(p, q, HHP).size == orbits
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
            nodes = _engine._posetal_product(es1, es2, hereditary,
                                             orbits=False)[0]
            keys = {t: _node_key(es1, es2, t, hereditary, rel1, rel2)
                    for t in space}
            assert set(keys.values()) == set(nodes)
            if not hereditary:
                quotient_sizes.append((len(nodes), len(space)))
            orbit = _orbit_nodes(es1, es2, hereditary, space)
            pmax = pb.dominating_restriction(p, q, kind)
            assert pmax == _actions(es1, es2)
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
                assert r.size == len(set(orbit.values()))
                for t in space:
                    assert r.rank.get(orbit[t]) == rank.get(t)
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


# ---------------------------------------------------------------------------
# orbits under swaps of twin events
# ---------------------------------------------------------------------------


def _twin_partition(es):
    """Each event's twin class, read from the set views: events with one
    label, one set of causes, of conflicts and of events above are
    twins, unless swapping some twin pair moves a divergent configuration
    out of the divergent set, in which case every event is its own
    class."""
    above = {e: frozenset(x for x in es.events if e in es.causes[x])
             for e in es.events}
    cls = {e: (es.labels[e], es.causes[e], es.conflicts[e], above[e])
           for e in es.events}
    div = es.divergent_configs
    for e in es.events:
        for g in es.events:
            if e != g and cls[e] == cls[g]:
                swap = {e: g, g: e}
                if {frozenset(swap.get(x, x) for x in c) for c in div} != div:
                    return {e: e for e in es.events}
    return cls


def _same_partition(es, cls):
    """Whether the library's twin table groups ``es``'s events as ``cls``
    and names each class by its least position."""
    table = es_mod._twin_classes(es)
    if not table:
        return len(set(cls.values())) == len(es.events)
    if any(table[a] != a or a > i for i, a in enumerate(table)):
        return False
    pairs = {(i, j) for i, e in enumerate(es.events)
             for j, g in enumerate(es.events) if cls[e] == cls[g]}
    return pairs == {(i, j) for i, a in enumerate(table)
                     for j, b in enumerate(table) if a == b}


def _orbit_nodes(es1, es2, hereditary, space):
    """Each full triple of ``space`` -> the library's node for its orbit.

    Two triples lie in one orbit when their configurations hold as many
    events of each twin class, and their isomorphisms (restricted for hp
    to the pairs with a relevant side) as many pairs of each pair of
    classes.  Asserts that the library's product has one node per orbit
    and a node for every orbit.
    """
    cls1, cls2 = _twin_partition(es1), _twin_partition(es2)
    assert _same_partition(es1, cls1) and _same_partition(es2, cls2)
    rel1, rel2 = table_oracle.relevant(es1), table_oracle.relevant(es2)

    def key(c, f, d):
        if not hereditary:
            f = [(a, b) for a, b in f if a in rel1[c] or b in rel2[d]]
        return (frozenset(Counter(cls1[e] for e in c).items()),
                frozenset(Counter((cls1[a], cls2[b]) for a, b in f).items()),
                frozenset(Counter(cls2[g] for g in d).items()))

    width = len(es2.events).bit_length()
    reps = {}
    for n, (c, f, d) in enumerate(
            _engine._posetal_product(es1, es2, hereditary)[0]):
        left = [i for i in range(len(es1.events)) if c >> i & 1]
        slots = [(i, f >> width * i & (1 << width) - 1) for i in left]
        pairs = [(es1.events[i], es2.events[s - 1]) for i, s in slots if s]
        right = [es2.events[j] for j in range(len(es2.events)) if d >> j & 1]
        reps[key(frozenset(es1.events[i] for i in left), pairs,
                 frozenset(right))] = n
        assert len(reps) == n + 1  # one node per orbit
    orbit = {t: reps[key(*t)] for t in space}
    assert len(set(orbit.values())) == len(reps)
    return orbit


# two x<y chains, which a history isomorphism may swap although their
# events are not twins, beside twin a's: the hp key must forget the
# pairs a node drops
SWAPPED_CHAINS = ("pomset{x1:x; y1:y; x2:x; y2:y; x1<y1; x2<y2}:0 + {a,a}:0",
                  "pomset{x1:x; y1:y; x2:x; y2:y; x1<y1; x2<y2}:W + {a,a}:0")
# the cause of e maps into the class {b1, b2}, whose mask is g's cause
# mask: the images cover half of that class, so e must not match g
SPLIT_CLASS = ("pomset{x:b; y:b; e:c; x<e}:0",
               "pomset{b1:b; b2:b; g:c; b1<g; b2<g}:0")


def _repeated_label_pairs():
    """F1 pairs over label multisets with twins, pairs of the
    ``SWAPPED_CHAINS`` and of the ``SPLIT_CLASS`` processes, and seeded
    random pairs whose prefixes are mostly steps with repeated labels."""
    pairs = [pq for m in ("aab", "aabbc", "aaabb") for pq in _f1_pairs(m)]
    for texts in (SWAPPED_CHAINS, SPLIT_CLASS):
        procs = [compiled(parse_term(text)) for text in texts]
        pairs += [(p, q) for p in procs for q in procs]
    for i in range(60):
        p, q = (compiled(random_tree(f"{side}{i}", 6, ("a", "a", "b"),
                                     max_prefix_events=3))
                for side in "LR")
        pairs += [(p, q), (p, p)]
    return pairs


def _assert_orbit_ranks(p, q, rng):
    """hp and hhp, bisim and pre, with no restriction, the dominating one
    and three random ones: every full triple's rank (rounds over the
    enumerated product) is the rank of its orbit's node, and depth, root
    level and witness agree."""
    es1, es2 = p.structure, q.structure
    space = oracle.triple_space(es1, es2)
    fwd, bwd = oracle.triple_transitions(es1, es2)
    acts = sorted({lab for es in (es1, es2) for lab in es.labels.values()})
    restrictions = [None, set(acts)] + [
        set(rng.sample(acts, rng.randint(0, len(acts)))) for _ in range(3)]
    for kind in (HP, HHP):
        hereditary = kind is HHP
        orbit = _orbit_nodes(es1, es2, hereditary, space)
        for pre in (False, True):
            for labels in restrictions:
                restriction = (None if labels is None
                               else {singleton(lab) for lab in labels})
                demands = oracle.triple_demands(fwd, bwd, es1, es2, labels,
                                                pre)
                rank = kleene_oracle.rescan_rounds(
                    demands, fwd if hereditary else None)
                r = _engine.ranks(p, q, kind, restriction, pre)
                for t in space:
                    assert r.rank.get(orbit[t]) == rank.get(t)
                root = oracle.ROOT_TRIPLE
                full = _engine.Ranks(
                    rank, root,
                    tuple((singleton(lab), c) for lab, c in fwd[root]),
                    tuple((singleton(lab), c) for lab, c in bwd[root]),
                    len(space))
                assert r.depth == full.depth
                assert r.level == full.level
                assert verdict(r, True) == verdict(full, True)
    return len(space)


def test_ranks_are_constant_on_twin_orbits():
    rng = random.Random(7)
    reduced = 0
    for p, q in _repeated_label_pairs():
        size = _assert_orbit_ranks(p, q, rng)
        if _engine.ranks(p, q, HHP).size < size:
            reduced += 1
    assert reduced >= 50  # the corpus exercises the reduction


def _listings(es1, es2, hereditary):
    """The candidate listings of the product's groups, both directions.

    Asserts that no group lists a node twice and that the root has one
    forward (backward) obligation per twin class of the left (right)
    structure's initially enabled events."""
    nodes, fwd, bwd = _engine._posetal_product(es1, es2, hereditary)
    for (labels, groups), es in ((fwd[0], es1), (bwd[0], es2)):
        cls = _twin_partition(es)
        initial = {cls[e] for e in es.events if not es.causes[e]}
        assert len(labels) == len(groups) == len(initial)
    listed = 0
    for _, groups in fwd + bwd:
        for cands in groups:
            assert len(set(cands)) == len(cands)
            listed += len(cands)
    return listed


def test_each_orbit_is_listed_once():
    for p, q in _repeated_label_pairs():
        for hereditary in (False, True):
            _listings(p.structure, q.structure, hereditary)
    q_text = f1_terms("aaaabbbb")[1]
    p, q = compiled(parse_term(q_text)), compiled(parse_term(q_text))
    for hereditary in (False, True):
        assert _listings(p.structure, q.structure, hereditary) <= 148


def test_twin_free_products_are_unreduced():
    for family in ("f1-abcde", "random"):
        for p, q in FAMILIES[family]()[:60]:
            es1, es2 = p.structure, q.structure
            if es_mod._twin_classes(es1) or es_mod._twin_classes(es2):
                continue
            for hereditary in (False, True):
                assert (_engine._posetal_product(es1, es2, hereditary)
                        == _engine._posetal_product(es1, es2, hereditary,
                                                    orbits=False))


def test_divergence_that_breaks_a_twin_swap_keeps_the_full_product():
    rng = random.Random(3)
    # u and v of the "abb" branch are twins; {t, u} diverges, {t, v} not
    broken = [_hand_built([("abb", [(0, 1)]), ("abba", [(0, 1)])], 37, 3),
              _hand_built([("abb", [(0, 1)]), ("abba", [(0, 1)])], 53, 11)]
    assert [es_mod._twin_classes(es) for es in broken] == [(), ()]
    es1, es2 = broken
    assert (len(_engine._posetal_product(es1, es2, True)[0])
            == len(_engine.triple_space(es1, es2)))
    _assert_orbit_ranks(ProcessState(es1, EMPTY_CONFIG),
                        ProcessState(es2, EMPTY_CONFIG), rng)
    # {t, u} and {t, v} both diverge: the swap keeps divergence
    symmetric = [
        _hand_built([("abb", [(0, 1), (0, 2)]), ("abba", [(0, 1)])], 41, 7),
        _hand_built([("abb", [(0, 1), (0, 2)]), ("abba", [(0, 1)])], 59, 5)]
    assert all(es_mod._twin_classes(es) for es in symmetric)
    es1, es2 = symmetric
    assert (len(_engine._posetal_product(es1, es2, True)[0])
            < len(_engine.triple_space(es1, es2)))
    _assert_orbit_ranks(ProcessState(es1, EMPTY_CONFIG),
                        ProcessState(es2, EMPTY_CONFIG), rng)
