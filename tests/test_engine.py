"""The rank-map engine against the reference Kleene iteration.

Every public answer read from the engine (verdicts, levels, witnesses,
approximants, stratifications, the finitary preorder and the depth the
tree enumeration uses) must equal the answer of the object-level
fixpoint loops in ``kleene_oracle``, and every rank map of the round
loop must equal that of the re-scanning loop kept there.
"""

import random

import pytest

import kleene_oracle as oracle
from conftest import f1_terms, tree_corpus
from pomcheck import _engine
from pomcheck import prebisim as pb
from pomcheck.equiv import RelationKind, bisim
from pomcheck.estructure import PrimeEventStructure, ProcessState, compiled
from pomcheck.grammar import parse_term
from pomcheck.pomset import singleton, step_of
from pomcheck.prebisim import OMEGA, StratParams
from pomcheck.synctree import SyncTree, prefix
from pomcheck.testgen import random_tree

ALL_KINDS = list(RelationKind)
PAIR_KINDS = (RelationKind.POMSET, RelationKind.STEP)
A = singleton("a")
AB = step_of("ab")


def _wrap(t, depth, shared):
    """``t`` under ``depth`` prefixes, each node also offering ``shared``."""
    for i in range(depth):
        t = SyncTree([(A if i % 2 else AB, t), (A, shared)])
    return t


def _tree_pairs(seed, count, budget, max_events):
    """Random pairs, the same pairs pushed one to three levels down, the
    choice a:t1 + a:t2 against a:(t1 + t2), and pairs that differ in
    divergence only."""
    lefts = tree_corpus(seed + "-L", count, budget, max_events)
    rights = tree_corpus(seed + "-R", count, budget, max_events)
    pairs = list(zip(lefts, rights))
    for i, (t1, t2) in enumerate(pairs[: count // 2]):
        depth = 1 + i % 3
        pairs.append((_wrap(t1, depth, t2), _wrap(t2, depth, t2)))
        joined = SyncTree(t1.summands + t2.summands,
                          t1.divergent or t2.divergent)
        pairs.append((SyncTree([(A, t1), (A, t2)]), prefix(A, joined)))
    for t in lefts[: count // 2]:
        pairs += [(t, t), (t, t.with_omega()), (t.with_omega(), t)]
    return pairs


def _processes(pairs, tree_native):
    if tree_native:
        return pairs
    return [(compiled(t1), compiled(t2)) for t1, t2 in pairs]


CASES = [(kind, False) for kind in ALL_KINDS] + \
    [(kind, True) for kind in PAIR_KINDS]
CASE_IDS = [f"{k.value}{'-tree' if tn else ''}" for k, tn in CASES]


@pytest.mark.parametrize("kind,tree_native", CASES, ids=CASE_IDS)
def test_bisim_and_prebisim_match_oracle(kind, tree_native):
    pairs = _processes(_tree_pairs("engine-bp", 24, 5, 5), tree_native)
    levels_seen = set()
    for p, q in pairs:
        related, witness, level = oracle.bisim(p, q, kind)
        for want in (False, True):
            v = bisim(p, q, kind, want_witness=want)
            assert v.related == related
            assert v.level == (OMEGA if related else level)
            assert v.witness == (witness if want else None)
        levels_seen.add(level)

        v = pb.prebisim(p, q, kind, want_witness=True)
        n = oracle.first_failing_level(p, q, kind)
        assert v.related == (n is None)
        assert v.level == (OMEGA if n is None else n)
        if n is not None:
            assert v.witness == oracle.failure_witness(p, q, kind)
        assert pb.first_failing_level(p, q, kind) == n
        for m in range(5):
            assert pb.level_approx(p, q, kind, m) == \
                oracle.member_at(p, q, kind, m)
        assert pb.level_approx(p, q, kind, OMEGA) == (n is None)
        levels_seen.add(n)
    # the corpus reaches past the first round
    assert len(levels_seen - {None}) >= 2


@pytest.mark.parametrize("kind,tree_native", CASES, ids=CASE_IDS)
def test_strat_and_fin_preorder_match_oracle(kind, tree_native):
    rng = random.Random(f"engine-strat-{kind.value}")
    pairs = _processes(_tree_pairs("engine-st", 16, 5, 5), tree_native)
    for p, q in pairs:
        pmax = pb.dominating_restriction(p, q, kind)
        v = pb.fin_preorder(p, q, kind, want_witness=True)
        n = oracle.first_failing_level(p, q, kind, pmax)
        assert v.related == (n is None)
        assert v.level == (OMEGA if n is None else n)
        if n is not None:
            assert v.witness == oracle.failure_witness(p, q, kind, pmax)

        ordered = sorted(pmax)
        for _ in range(3):
            restriction = frozenset(u for u in ordered if rng.random() < 0.6)
            for level in (0, 1, 2, 3, OMEGA):
                params = StratParams(restriction, level)
                assert pb.strat(p, q, kind, params) == \
                    oracle.member_at(p, q, kind, level, restriction)
            assert pb.first_failing_level(p, q, kind, restriction) == \
                oracle.first_failing_level(p, q, kind, restriction)


@pytest.mark.parametrize("kind,tree_native", CASES, ids=CASE_IDS)
def test_finitary_via_trees_depth_matches_oracle(kind, tree_native):
    pairs = _processes(_tree_pairs("engine-fvt", 8, 4, 3), tree_native)
    for p, q in pairs:
        pmax = pb.dominating_restriction(p, q, kind)
        levels, _ = oracle.levels(p, q, kind, pmax)
        assert _engine.stable_depth(p, q, kind) + 1 == len(levels)
        if kind.posetal or tree_native:
            continue
        got = pb.finitary_via_trees(p, q, kind, max_trees=60)
        ref = pb.finitary_via_trees(p, q, kind, max_depth=len(levels),
                                    max_trees=60)
        assert (got.related, got.definitive) == (ref.related, ref.definitive)


def _flat_sum(*summands):
    """Root state of a sum of causally flat summands.

    A summand is ``(labels, conflicts)``: one event per label, pairs of
    positions in conflict, all other events of the summand concurrent.
    Events of distinct summands are in conflict.
    """
    labels, conflicts, cones = {}, {}, []
    for labs, inner in summands:
        base = len(labels)
        cone = [base + i for i in range(len(labs))]
        for e, lab in zip(cone, labs):
            labels[e], conflicts[e] = lab, set()
        for i, j in inner:
            conflicts[base + i].add(base + j)
            conflicts[base + j].add(base + i)
        cones.append(cone)
    for cone in cones:
        for other in cones:
            if other is not cone:
                for e in cone:
                    conflicts[e].update(other)
    es = PrimeEventStructure(labels, labels, {}, conflicts, ())
    return ProcessState(es, frozenset())


def test_hhp_downward_closure_matches_oracle():
    # the absorption law: (a | (b + c)) + (a | b) + ((a + c) | b) and the
    # same sum without (a | b) are hp-bisimilar but not hhp-bisimilar
    outer, middle, inner = ("abc", [(1, 2)]), ("ab", []), ("acb", [(0, 1)])
    p, q = _flat_sum(outer, middle, inner), _flat_sum(outer, inner)
    assert bisim(p, q, RelationKind.HP).related
    assert not bisim(p, q, RelationKind.HHP).related
    for kind in (RelationKind.HP, RelationKind.HHP):
        for x, y in ((p, q), (q, p)):
            related, witness, level = oracle.bisim(x, y, kind)
            v = bisim(x, y, kind, want_witness=True)
            assert (v.related, v.witness) == (related, witness)
            assert v.level == (OMEGA if related else level)
            v = pb.prebisim(x, y, kind, want_witness=True)
            n = oracle.first_failing_level(x, y, kind)
            assert v.level == (OMEGA if n is None else n)
            if n is not None:
                assert v.witness == oracle.failure_witness(x, y, kind)
            for m in range(5):
                assert pb.level_approx(x, y, kind, m) == \
                    oracle.member_at(x, y, kind, m)


def _checked_rounds(monkeypatch):
    """Check the whole rank map of every ``_engine._rounds`` call.

    Returns the list of calls made, each as whether it had extensions.
    """
    calls = []
    rounds = _engine._rounds

    def checked(demands, extensions=None):
        rank = rounds(demands, extensions)
        assert rank == oracle.rescan_rounds(demands, extensions)
        calls.append(extensions is not None)
        return rank

    monkeypatch.setattr(_engine, "_rounds", checked)
    return calls


def _random_trees():
    """900 seeded random pairs: each pair, and each tree against itself."""
    pairs = []
    for i in range(300):
        p = random_tree(f"L{i}", 7, ("a", "b"))
        q = random_tree(f"R{i}", 7, ("a", "b"))
        pairs += [(p, q), (p, p), (q, q)]
    return pairs


def _f1_trees(labels):
    trees = [parse_term(text) for text in f1_terms(labels)]
    return [(p, q) for p in trees for q in trees]


ROUND_FAMILIES = {
    "random": _random_trees,
    **{f"f1-{m}": (lambda m=m: _f1_trees(m))
       for m in ("abcde", "aabbc", "aaabb")},
}


@pytest.mark.parametrize("family", ROUND_FAMILIES)
@pytest.mark.parametrize("kind,tree_native", CASES, ids=CASE_IDS)
def test_rank_maps_match_rescan_oracle(monkeypatch, kind, tree_native, family):
    calls = _checked_rounds(monkeypatch)
    for p, q in _processes(ROUND_FAMILIES[family](), tree_native):
        bisim(p, q, kind, want_witness=True)
        pb.prebisim(p, q, kind, want_witness=True)
        pb.fin_preorder(p, q, kind, want_witness=True)
        _engine.stable_depth(p, q, kind)
    assert calls
    assert all(calls) == any(calls) == (kind is RelationKind.HHP)


def _chain(length):
    """Node 0 fails at once; node i > 0 asks for node i - 1."""
    return {i: [[i - 1]] if i else None for i in range(length)}


def _closure_chain(length):
    """Node 0 fails at once, each other node keeps itself, and each node
    extends into the next, so the closure removes all of them in round 1;
    one more node asks for the last of them."""
    demands = {i: [[i]] if i else None for i in range(length)}
    demands[length] = [[length - 1, length - 1]]
    extensions = {i: [("a", (i + 1,))] for i in range(length - 1)}
    extensions[length - 1] = extensions[length] = []
    return demands, extensions


def _random_demands(rng):
    """Small demand dicts with every shape the functional can give."""
    nodes = range(rng.randint(1, 12))
    demands = {}
    for n in nodes:
        if rng.random() < 0.1:
            demands[n] = None
        else:
            demands[n] = [[rng.choice(nodes) for _ in range(rng.randint(0, 4))]
                          for _ in range(rng.randint(0, 3))]
    extensions = None
    if rng.random() < 0.5:
        extensions = {n: [("a", tuple(rng.choices(nodes, k=rng.randint(0, 2))))]
                      for n in nodes}
    return demands, extensions


def test_hand_made_rank_maps_match_rescan_oracle():
    cases = [
        # None demands and empty groups fail in round 1
        ({0: None, 1: [[]], 2: [[0], [3]], 3: [[2]], 4: [[1, 3]]}, None),
        # a candidate listed twice counts twice
        ({0: None, 1: [[0, 0]], 2: [[0, 0, 3], [1]], 3: [[3]]}, None),
        # self-loops keep a node alive unless another group empties
        ({0: [[0]], 1: [[1], [2]], 2: [[2, 1], []], 3: [[3, 2]]}, None),
        (_chain(60), None),
        _closure_chain(40),
    ]
    rng = random.Random("rounds-hand-made")
    cases += [_random_demands(rng) for _ in range(400)]
    for demands, extensions in cases:
        assert _engine._rounds(demands, extensions) == \
            oracle.rescan_rounds(demands, extensions)
    assert _engine._rounds(*cases[1]) == {0: 1, 1: 2, 2: 3}
    assert _engine._rounds(*cases[2]) == {2: 1, 1: 2}
    assert _engine._rounds(*cases[3]) == {i: i + 1 for i in range(60)}
    assert _engine._rounds(*cases[4]) == {**dict.fromkeys(range(40), 1), 40: 2}
