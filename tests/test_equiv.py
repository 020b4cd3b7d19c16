"""The four bisimulation fixpoints and witness extraction."""

import itertools

import pytest

from conftest import tree_corpus
from pomcheck.equiv import RelationKind, bisim
from pomcheck.errors import StructuralError
from pomcheck.estructure import action_transitions, compiled
from pomcheck.pomset import singleton, step_of
from pomcheck.synctree import NIL, SyncTree, prefix

A = singleton("a")
B = singleton("b")
ALL_KINDS = list(RelationKind)

CONCURRENT = prefix(step_of(["a", "b"]))
INTERLEAVED = SyncTree([(A, prefix(B)), (B, prefix(A))])


def test_nil_related_to_itself_all_kinds():
    p, q = compiled(NIL), compiled(NIL)
    for kind in ALL_KINDS:
        assert bisim(p, q, kind).related


def test_concurrency_vs_interleaving():
    p, q = compiled(CONCURRENT), compiled(INTERLEAVED)
    for kind in ALL_KINDS:
        assert not bisim(p, q, kind).related


def test_duplicate_summand_is_absorbed():
    p = compiled(SyncTree([(A, NIL), (A, NIL)]))
    q = compiled(prefix(A))
    for kind in ALL_KINDS:
        assert bisim(p, q, kind).related


def test_reflexive_and_symmetric_on_corpus():
    trees = tree_corpus("equiv-sym", 12, 5, 5)
    for kind in ALL_KINDS:
        for t in trees:
            assert bisim(compiled(t), compiled(t), kind).related
        for t1, t2 in itertools.combinations(trees, 2):
            p, q = compiled(t1), compiled(t2)
            assert bisim(p, q, kind).related == bisim(q, p, kind).related


def test_inclusion_chain_on_corpus():
    # hhp => hp => pomset => step
    trees = tree_corpus("equiv-chain", 14, 5, 5)
    for t1, t2 in itertools.combinations(trees, 2):
        p, q = compiled(t1), compiled(t2)
        verdicts = [bisim(p, q, kind).related for kind in
                    (RelationKind.HHP, RelationKind.HP,
                     RelationKind.POMSET, RelationKind.STEP)]
        for stronger, weaker in zip(verdicts, verdicts[1:]):
            assert not stronger or weaker


def test_agrees_with_naive_action_bisim_on_sequential_trees():
    # on trees with singleton prefixes only, all four kinds coincide with
    # plain strong bisimilarity of the single-action transition system
    def naive_strong_bisim(p, q):
        def states(s):
            seen = {s}
            stack = [s]
            while stack:
                for _, s2 in action_transitions(stack.pop()):
                    if s2 not in seen:
                        seen.add(s2)
                        stack.append(s2)
            return seen

        rel = {(x, y) for x in states(p) for y in states(q)}
        while True:
            keep = set()
            for x, y in rel:
                tx, ty = action_transitions(x), action_transitions(y)
                if all(any(a == b and (x2, y2) in rel for b, y2 in ty)
                       for a, x2 in tx) and \
                   all(any(b == a and (x2, y2) in rel for a, x2 in tx)
                       for b, y2 in ty):
                    keep.add((x, y))
            if keep == rel:
                break
            rel = keep
        return (p, q) in rel

    trees = [t for t in tree_corpus("equiv-naive", 40, 5, 4)
             if not t.divergent and all(
                 len(u) == 1 and not c.divergent and all(
                     len(v) == 1 and not d.divergent
                     for v, d in c.summands)
                 for u, c in t.summands)]
    pairs = list(itertools.combinations(trees, 2))[:60]
    for t1, t2 in pairs:
        p, q = compiled(t1), compiled(t2)
        expect = naive_strong_bisim(p, q)
        for kind in ALL_KINDS:
            assert bisim(p, q, kind).related == expect


def test_witness_for_step_failure():
    p, q = compiled(CONCURRENT), compiled(INTERLEAVED)
    v = bisim(p, q, RelationKind.STEP, want_witness=True)
    assert not v.related
    assert v.witness.kind == "pomset"
    assert v.witness.value == step_of(["a", "b"])
    assert isinstance(v.level, int) and v.level >= 1


def test_witness_for_hp_failure():
    p, q = compiled(CONCURRENT), compiled(INTERLEAVED)
    v = bisim(p, q, RelationKind.HP, want_witness=True)
    assert not v.related and v.witness is not None


def test_posetal_kinds_reject_trees():
    with pytest.raises(StructuralError):
        bisim(CONCURRENT, INTERLEAVED, RelationKind.HP)


def test_tree_native_pomset_kind_accepts_trees():
    assert bisim(prefix(A), prefix(A), RelationKind.POMSET).related
    assert not bisim(prefix(A), prefix(B), RelationKind.STEP).related
