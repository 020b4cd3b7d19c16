"""The pair engine on int transition tables against the frozenset-keyed
pair path it replaced (``tests/pair_oracle.py``).

For the pomset and step kinds, every rank map's level, depth, size and
multiset of ranks, the root's obligations, and the verdicts, levels and
witnesses of ``bisim``, ``prebisim`` and ``fin_preorder`` and the depth
of ``stable_depth`` must equal the oracle's, on compiled structures,
tree-native sides, mixed tree-and-structure sides and non-root states.
The dominating restriction holds every label of both sides, so
``fin_preorder`` must equal ``prebisim``.
"""

import random
from collections import Counter

import pytest

import pair_oracle as oracle
from conftest import chain_tree, f1_terms
from pomcheck import _engine
from pomcheck import estructure as es_mod
from pomcheck import prebisim as pb
from pomcheck.equiv import RelationKind, bisim, verdict
from pomcheck.estructure import ProcessState, compiled, configurations
from pomcheck.grammar import parse_term
from pomcheck.synctree import subtrees
from pomcheck.testgen import distinguishing_tree, random_tree

PAIR_KINDS = (RelationKind.POMSET, RelationKind.STEP)


def _random_pairs():
    """900 seeded random pairs: each pair, and each tree against itself."""
    pairs = []
    for i in range(300):
        p = random_tree(f"L{i}", 7, ("a", "b"))
        q = random_tree(f"R{i}", 7, ("a", "b"))
        pairs += [(p, q), (p, p), (q, q)]
    return pairs


def _f1_pairs():
    pairs = []
    for labels in ("abcd", "aabbc"):
        trees = [parse_term(text) for text in f1_terms(labels)]
        pairs += [(p, q) for p in trees for q in trees]
    return pairs


def _chain_pairs():
    long, short = chain_tree(12), chain_tree(11)
    return [(long, short), (short, long), (long, long)]


def _compiled(pairs):
    return [(compiled(p), compiled(q)) for p, q in pairs]


def _mixed(pairs):
    """Each pair with one side compiled and the other a tree, both ways."""
    out = []
    for p, q in pairs:
        out += [(p, compiled(q)), (compiled(p), q)]
    return out


def _non_root(pairs, rng):
    """Pairs of states below the roots: a random configuration of each
    compiled side, a random subtree of each tree side."""
    out = []
    for p, q in pairs:
        sides = []
        for t in (p, q):
            es_state = compiled(t)
            configs = sorted(configurations(es_state.structure), key=sorted)
            sides.append((ProcessState(es_state.structure, rng.choice(configs)),
                          rng.choice(sorted(subtrees(t), key=repr))))
        (pe, pt), (qe, qt) = sides
        out += [(pe, qe), (pt, qt), (pt, qe)]
    return out


FAMILIES = {
    "random": lambda: _compiled(_random_pairs()),
    "f1": lambda: _compiled(_f1_pairs()),
    "chains": lambda: _compiled(_chain_pairs()),
    "tree-native": lambda: _random_pairs()[:300] + _f1_pairs(),
    "mixed": lambda: _mixed(_random_pairs()[:150] + _f1_pairs()
                            + _chain_pairs()),
    "non-root": lambda: _non_root(_random_pairs()[:150] + _f1_pairs(),
                                  random.Random("pair-engine-non-root")),
}


def _root_obligations(r):
    """The root's obligations by label, each with its candidates' ranks."""
    return [Counter((u, tuple(sorted(r.rank.get(c, 0) for c in cands)))
                    for u, cands in obligations)
            for obligations in (r.fwd, r.bwd)]


def _same_ranks(got, want):
    assert got.level == want.level
    assert got.depth == want.depth
    assert got.size == want.size
    assert Counter(got.rank.values()) == Counter(want.rank.values())
    assert _root_obligations(got) == _root_obligations(want)


@pytest.mark.parametrize("family", FAMILIES)
def test_pair_engine_matches_frozenset_oracle(family):
    rng = random.Random(f"pair-engine-{family}")
    for p, q in FAMILIES[family]():
        for kind in PAIR_KINDS:
            step = kind is RelationKind.STEP
            pmax = oracle.sort_pomsets(p, step) | oracle.sort_pomsets(q, step)
            assert pb.dominating_restriction(p, q, kind) == pmax
            some = frozenset(u for u in sorted(pmax) if rng.random() < 0.6)
            for restriction in (None, pmax, some):
                for pre in (False, True):
                    _same_ranks(_engine.ranks(p, q, kind, restriction, pre),
                                oracle.pair_ranks(p, q, step, restriction, pre))

            want_bisim = verdict(oracle.pair_ranks(p, q, step, None, False),
                                 True)
            want_pre = verdict(oracle.pair_ranks(p, q, step, None, True), True)
            want_fin = verdict(oracle.pair_ranks(p, q, step, pmax, True),
                               True)
            assert bisim(p, q, kind, want_witness=True) == want_bisim
            assert pb.prebisim(p, q, kind, want_witness=True) == want_pre
            fin = pb.fin_preorder(p, q, kind, want_witness=True)
            assert fin == want_fin == want_pre
            assert _engine.stable_depth(p, q, kind) == \
                oracle.pair_ranks(p, q, step, pmax, True, everywhere=True).depth


@pytest.mark.parametrize("family", ["random", "f1"])
def test_dominating_restriction_drops_nothing(family):
    # the rank map under the dominating set is the unrestricted one,
    # node for node, for every kind; fin_preorder is prebisim
    pairs = FAMILIES[family]()
    if family == "random":
        pairs = pairs[:120]
    for p, q in pairs:
        for kind in RelationKind:
            pmax = pb.dominating_restriction(p, q, kind)
            assert _engine.ranks(p, q, kind, pmax, True).rank == \
                _engine.ranks(p, q, kind, None, True).rank
            assert pb.fin_preorder(p, q, kind, want_witness=True) == \
                pb.prebisim(p, q, kind, want_witness=True)


def test_tree_native_fin_preorder_builds_each_table_once(monkeypatch):
    # one tree table per side, as for prebisim: the dominating set,
    # which would read both tables again, is not built
    left = parse_term("{a,b}:(c:0) + a:W")
    right = parse_term("{a,b}:(c:W) + a:0")
    built, build = [], es_mod.tree_table

    def counted(t, step_only):
        built.append(t)
        return build(t, step_only)

    monkeypatch.setattr(es_mod, "tree_table", counted)
    for kind in PAIR_KINDS:
        for query in (pb.prebisim, pb.fin_preorder):
            built.clear()
            query(left, right, kind, want_witness=True)
            assert built == [left, right]


def test_tree_native_distinguishing_tree_builds_seven_tables(monkeypatch):
    # the left tree's table is built for its failing level, its
    # characteristic tree and the re-verification, the right tree's for
    # the level and the re-verification, the candidate's for both
    # re-verifications; no dominating set reads both sides again
    left = parse_term("{a,b}:(c:0) + a:W")
    right = parse_term("{a,b}:(c:W) + a:0")
    built, build = [], es_mod.tree_table

    def counted(t, step_only):
        built.append(t)
        return build(t, step_only)

    monkeypatch.setattr(es_mod, "tree_table", counted)
    for kind in PAIR_KINDS:
        built.clear()
        t = distinguishing_tree(left, right, kind)
        assert t is not None
        assert len(built) == 7
        assert sum(b is left for b in built) == 3
        assert sum(b is right for b in built) == 2


def test_negative_finitary_via_trees_ranks_each_pair_once(monkeypatch):
    # the failing level is passed to the tree builder, not computed again
    left = parse_term("{a,b}:(c:0) + a:W")
    right = parse_term("{a,b}:(c:W) + a:0")
    calls, ranks = [], pb.ranks

    def counted(*args):
        calls.append(args[:2])
        return ranks(*args)

    monkeypatch.setattr(pb, "ranks", counted)
    for kind in PAIR_KINDS:
        calls.clear()
        v = pb.finitary_via_trees(left, right, kind)
        assert not v.related and v.witness.kind == "tree"
        assert len(calls) == 3 and calls[0] == (left, right)


def test_tree_table_lists_each_summand_once():
    # a repeated summand is one transition, as in tree_transitions
    t = parse_term("a:(b:0) + a:(b:0) + {a,b}:0 + pomset{e0:a; e1:b; e0<e1}:0")
    assert len(t.summands) == 4
    for kind in PAIR_KINDS:
        table, root = _engine.table_of(t, kind)
        assert root == 0 and table.states[0] == t
        assert set(table.states) == subtrees(t)
        got = Counter((table.pomsets[u], table.states[y])
                      for u, ys in table.rows[0].items() for y in ys)
        assert got == Counter(_engine.successors(t, kind is RelationKind.STEP))
