"""Tree enumeration, characteristic/distinguishing trees, random models."""

import itertools
import random

import pair_oracle
from conftest import f1_terms, tree_corpus
from pomcheck import prebisim as pb
from pomcheck import testgen
from pomcheck.equiv import RelationKind
from pomcheck.estructure import ProcessState, compiled, configurations
from pomcheck.grammar import format_tree, parse_term
from pomcheck.pomset import singleton, step_of
from pomcheck.synctree import NIL, OMEGA, SyncTree, prefix, tree_size
from pomcheck.testgen import (
    characteristic_tree,
    distinguishing_tree,
    enumerate_trees,
    random_tree,
    tree_as_process,
)

A = singleton("a")
B = singleton("b")
PAIR_KINDS = (RelationKind.POMSET, RelationKind.STEP)


class TestEnumerateTrees:
    def test_empty_alphabet(self):
        assert set(enumerate_trees((), 3, 3)) == {NIL, OMEGA}

    def test_singleton_alphabet_depth_one(self):
        got = set(enumerate_trees({A}, 1, 1))
        assert got == {
            NIL, OMEGA,
            prefix(A, NIL), prefix(A, OMEGA),
            prefix(A, NIL).with_omega(), prefix(A, OMEGA).with_omega(),
        }

    def test_count_recurrence(self):
        # width 1: count(d) = 2 * (1 + count(d - 1)), count(0) = 2
        expect = 2
        for d in range(4):
            got = len(list(enumerate_trees({A}, d, 1)))
            assert got == expect
            expect = 2 * (1 + expect)

    def test_no_duplicates_and_bounds(self):
        trees = list(enumerate_trees({A, B}, 2, 2))
        assert len(trees) == len(set(trees))
        for t in trees:
            assert t.depth <= 2
            for sub in {t} | {c for _, c in t.summands}:
                assert len(sub.summands) <= 2


class TestCharacteristicTree:
    def test_level_zero_is_omega(self):
        p = compiled(prefix(A))
        assert characteristic_tree(p, {A}, 0, RelationKind.POMSET) == OMEGA

    def test_deadlock_is_nil(self):
        p = compiled(NIL)
        for n in (1, 2, 5):
            assert characteristic_tree(p, {A}, n, RelationKind.POMSET) == NIL

    def test_out_of_restriction_initial_adds_divergence(self):
        p = compiled(prefix(B))
        chi = characteristic_tree(p, {A}, 2, RelationKind.POMSET)
        assert chi == OMEGA

    def test_matches_recursive_builder(self):
        # every kind, every level up to 4, root and non-root states,
        # compiled and tree-native, and the dominating and a random
        # restriction
        rng = random.Random("chi-recursive")
        for t in tree_corpus("chi-rec", 60, 8, 7):
            p = compiled(t)
            below = ProcessState(p.structure, rng.choice(
                sorted(configurations(p.structure), key=sorted)))
            for kind in RelationKind:
                states = [p, below] if kind.posetal else [p, below, t]
                pmax = pb.dominating_restriction(p, p, kind)
                some = {u for u in sorted(pmax) if rng.random() < 0.6}
                for state in states:
                    for restriction in (pmax, some):
                        for n in range(5):
                            assert characteristic_tree(
                                state, restriction, n, kind) == \
                                pair_oracle.characteristic_tree(
                                    state, restriction, n, kind)

    def test_contract_on_corpus(self):
        # chi <= p, and chi <= q iff p is below q in the stratified
        # approximant the tree was built for
        lefts = tree_corpus("chi-L", 10, 5, 5)
        rights = tree_corpus("chi-R", 10, 5, 5)
        for kind in PAIR_KINDS:
            for t1 in lefts[:6]:
                p = compiled(t1)
                pmax = pb.dominating_restriction(p, p, kind)
                for n in (1, 2, 3):
                    chi = characteristic_tree(p, pmax, n, kind)
                    ts = tree_as_process(chi, kind)
                    assert pb.prebisim(ts, p, kind).related
                    for t2 in rights[:6]:
                        q = compiled(t2)
                        assert pb.prebisim(ts, q, kind).related == pb.strat(
                            p, q, kind, pb.StratParams(pmax, n)
                        )


class TestDistinguishingTree:
    def test_none_on_reflexive_pair(self):
        p = compiled(prefix(A))
        for kind in RelationKind:
            assert distinguishing_tree(p, p, kind) is None

    def test_divergence_example(self):
        p, q = compiled(prefix(A)), compiled(prefix(A).with_omega())
        t = distinguishing_tree(p, q, RelationKind.POMSET)
        ts = tree_as_process(t, RelationKind.POMSET)
        assert pb.prebisim(ts, p, RelationKind.POMSET).related
        assert not pb.prebisim(ts, q, RelationKind.POMSET).related

    def test_step_example_has_step_prefix(self):
        p = compiled(prefix(step_of("ab")))
        q = compiled(SyncTree([(A, prefix(B)), (B, prefix(A))]))
        t = distinguishing_tree(p, q, RelationKind.STEP)
        assert step_of("ab") in {u for u, _ in t.summands}

    def test_verified_on_corpus(self):
        lefts = tree_corpus("dist-L", 10, 5, 5)
        rights = tree_corpus("dist-R", 10, 5, 5)
        for kind in RelationKind:
            for t1, t2 in zip(lefts, rights):
                p, q = compiled(t1), compiled(t2)
                t = distinguishing_tree(p, q, kind)
                fin = pb.fin_preorder(p, q, kind)
                assert (t is None) == fin.related
                if t is not None:
                    ts = tree_as_process(t, kind)
                    assert pb.prebisim(ts, p, kind).related
                    assert not pb.prebisim(ts, q, kind).related

    def test_posetal_negatives_all_get_a_tree(self):
        """Every negative hp/hhp finitary preorder on the F1 pairs over
        abcd and aaabb and on 300 random pairs yields a re-verified tree
        (22 of these 510 negatives once raised: neither characteristic
        tree distinguished, and the left process's own tree does)."""
        pairs = [(parse_term(a), parse_term(b))
                 for labels in ("abcd", "aaabb")
                 for a in f1_terms(labels) for b in f1_terms(labels)]
        pairs += [(random_tree(f"L{i}", 7, ("a", "b")),
                   random_tree(f"R{i}", 7, ("a", "b"))) for i in range(300)]
        negatives = 0
        for t1, t2 in pairs:
            for kind in (RelationKind.HP, RelationKind.HHP):
                p, q = compiled(t1), compiled(t2)
                if pb.fin_preorder(p, q, kind).related:
                    continue
                negatives += 1
                t = distinguishing_tree(p, q, kind)
                ts = tree_as_process(t, kind)
                assert pb.prebisim(ts, p, kind).related
                assert not pb.prebisim(ts, q, kind).related
        assert negatives == 510

    def test_pomset_candidate_only_when_the_first_fails(self, monkeypatch):
        """hp/hhp make the pomset-kind failing level and its tree only
        when the first candidate fails re-verification, never build a
        dominating set, and return the tree the eager candidate list
        returned."""
        pairs = [(parse_term(a), parse_term(b))
                 for labels in ("abcd", "aaabb")
                 for a in f1_terms(labels) for b in f1_terms(labels)]
        pairs += [(random_tree(f"L{i}", 7, ("a", "b")),
                   random_tree(f"R{i}", 7, ("a", "b"))) for i in range(60)]
        calls = []

        def counted(fn):
            def call(*args):
                if RelationKind.POMSET in args:
                    calls.append(fn.__name__)
                return fn(*args)
            return call

        eager = []
        for t1, t2 in pairs:
            for kind in (RelationKind.HP, RelationKind.HHP):
                p, q = compiled(t1), compiled(t2)
                eager.append((p, q, kind, _eager_tree(p, q, kind)))
        monkeypatch.setattr(pb, "dominating_restriction",
                            counted(pb.dominating_restriction))
        monkeypatch.setattr(pb, "first_failing_level",
                            counted(pb.first_failing_level))
        monkeypatch.setattr(testgen, "characteristic_tree",
                            counted(characteristic_tree))
        lazy = 0
        for p, q, kind, (want, first_ok, m) in eager:
            calls.clear()
            assert distinguishing_tree(p, q, kind) == want
            if want is None or first_ok:
                assert calls == []
            else:
                lazy += 1
                assert calls == ["first_failing_level"] + \
                    ["characteristic_tree"] * (m is not None)
        assert 0 < lazy < sum(t is not None for *_, (t, _, _) in eager)


def _eager_tree(p, q, kind):
    """``(tree, whether the first candidate verified, pomset level)`` of
    the eager candidate list: every candidate built before any is
    verified."""
    pmax = pb.dominating_restriction(p, q, kind)
    n = pb.first_failing_level(p, q, kind, pmax)
    if n is None:
        return None, False, None
    candidates = [characteristic_tree(p, pmax, n, kind)]
    pmax_pom = pb.dominating_restriction(p, q, RelationKind.POMSET)
    m = pb.first_failing_level(p, q, RelationKind.POMSET, pmax_pom)
    if m is not None:
        candidates.append(
            characteristic_tree(p, pmax_pom, m, RelationKind.POMSET))
    candidates.append(p.structure.tree)
    for i, chi in enumerate(candidates):
        ts = tree_as_process(chi, kind)
        if pb.prebisim(ts, p, kind).related and \
                not pb.prebisim(ts, q, kind).related:
            return chi, i == 0, m
    raise AssertionError("no candidate distinguishes")


class TestRandomTree:
    def test_deterministic(self):
        t1 = random_tree(99, 6)
        t2 = random_tree(99, 6)
        assert t1 == t2 and format_tree(t1) == format_tree(t2)

    def test_budget_one_is_a_leaf(self):
        for seed in range(30):
            assert random_tree(seed, 1) in (NIL, OMEGA)

    def test_budget_respected(self):
        rng = random.Random(3)
        for _ in range(50):
            budget = rng.randint(1, 8)
            assert tree_size(random_tree(rng.random(), budget)) <= budget

    def test_alphabet_respected(self):
        for seed in range(20):
            t = random_tree(seed, 6, alphabet=("a",))
            stack = [t]
            while stack:
                node = stack.pop()
                for u, c in node.summands:
                    assert set(u.label_multiset()) <= {"a"}
                    stack.append(c)
