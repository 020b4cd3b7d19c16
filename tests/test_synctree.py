"""Synchronization tree structure and queries."""

import random

import pytest

from conftest import chain_tree, nested_key, tree_corpus

from pomcheck.equiv import RelationKind, bisim
from pomcheck.errors import StructuralError
from pomcheck.grammar import format_pomset, format_tree, parse_term
from pomcheck.pomset import EMPTY_POMSET, chain_of, singleton, step_of
from pomcheck.testgen import random_tree
from pomcheck.synctree import (
    NIL,
    OMEGA,
    SyncTree,
    _compare_summands,
    _sorted_summands,
    prefix,
    subtrees,
    tree_size,
    tree_transitions,
)

A = singleton("a")
B = singleton("b")
AB = step_of(["a", "b"])


def test_constants():
    assert NIL.summands == () and not NIL.divergent
    assert OMEGA.summands == () and OMEGA.divergent
    assert NIL != OMEGA


def test_summand_normalization():
    t1 = SyncTree([(A, NIL), (B, OMEGA)])
    t2 = SyncTree([(B, OMEGA), (A, NIL)])
    assert t1 == t2 and hash(t1) == hash(t2)


def test_empty_prefix_rejected():
    with pytest.raises(StructuralError):
        SyncTree([(EMPTY_POMSET, NIL)])


def test_child_must_be_tree():
    with pytest.raises(StructuralError):
        SyncTree([(A, "not a tree")])


def test_prefix_must_be_pomset():
    for bad in ("a", ("a",)):
        with pytest.raises(StructuralError):
            SyncTree([(bad, NIL)])


def test_transitions_single_summand():
    # {a,b}:(c:0) has exactly one summand
    t = prefix(AB, prefix(singleton("c")))
    assert tree_transitions(t) == frozenset({(AB, prefix(singleton("c")))})


def test_divergence_flag():
    assert not NIL.divergent
    assert OMEGA.divergent
    assert prefix(A).with_omega().divergent
    assert not prefix(A).divergent


def test_sizes_and_depths():
    assert tree_size(NIL) == 1 and NIL.depth == 0
    two = SyncTree([(A, NIL), (B, NIL)])
    assert tree_size(two) == 3 and two.depth == 1
    nested = prefix(A, prefix(B))
    assert nested.size == 3 and nested.depth == 2


def test_event_count_counts_prefix_events():
    assert prefix(AB, prefix(chain_of("ab"))).event_count == 4
    assert OMEGA.event_count == 0


def test_measures_of_a_deep_chain():
    # fields built bottom-up: no recursion limit on deep trees
    t = NIL
    for _ in range(3000):
        t = prefix(A, t)
    assert t.depth == 3000
    assert tree_size(t) == t.size == 3001
    assert t.event_count == 3000


def test_subtrees():
    nested = prefix(A, prefix(B))
    assert subtrees(nested) == frozenset({nested, prefix(B), NIL})


def test_with_omega_is_idempotent():
    t = prefix(A).with_omega()
    assert t.with_omega() == t


def test_immutable():
    with pytest.raises(AttributeError):
        NIL.divergent = True


def test_deep_chain_subtrees_bisim_and_format():
    t = NIL
    for _ in range(3000):
        t = prefix(A, t)
    assert len(subtrees(t)) == 3001
    assert bisim(t, t, RelationKind.STEP).related
    text = format_tree(t)
    assert text == "a:(" * 2999 + "a:0" + ")" * 2999
    back = parse_term(text)  # at the default recursion limit
    assert back is not t
    assert back == t and hash(back) == hash(t)
    assert back != prefix(A, t) and back != OMEGA


def test_equality_compares_each_level():
    ab = SyncTree([(A, prefix(B)), (B, NIL)])
    assert ab == SyncTree([(B, NIL), (A, prefix(B))])
    assert ab != SyncTree([(A, prefix(B)), (B, OMEGA)])
    assert ab != SyncTree([(A, prefix(A)), (B, NIL)])
    assert ab != SyncTree([(A, prefix(B))])
    assert ab.with_omega() != ab
    assert (ab == "ab") is False


def _format_shuffled(t, rng):
    """``t`` as text, with summands and step labels in random order."""
    parts = []
    for pom, child in t.summands:
        labels = list(pom.label_multiset())
        rng.shuffle(labels)
        if not pom.is_step():
            head = format_pomset(pom)
        elif len(labels) == 1:
            head = labels[0]
        else:
            head = "{" + ",".join(labels) + "}"
        body = _format_shuffled(child, rng)
        parts.append(f"{head}:({body})" if child.summands else f"{head}:{body}")
    if t.divergent:
        parts.append("W")
    rng.shuffle(parts)
    return " + ".join(parts) or "0"


def test_hash_contract_on_random_trees():
    # equal trees hash equally however their summands were written
    rng = random.Random("hash-contract")
    trees = tree_corpus("hash-contract", 150, 10, 12, ("a", "b", "c"))
    for t in trees:
        for text in (format_tree(t), _format_shuffled(t, rng),
                     _format_shuffled(t, rng)):
            back = parse_term(text)
            assert back == t and hash(back) == hash(t), text
    texts = [format_tree(t) for t in trees]
    for t, s in zip(trees, texts):
        for u, v in zip(trees, texts):
            assert (t == u) == (s == v)


def test_hash_contract_on_a_very_deep_chain():
    t = chain_tree(20000)
    u = chain_tree(20000)
    assert t is not u
    assert hash(t) == hash(u) and t == u
    assert t != chain_tree(19999) and t != prefix(A, t)
    text = format_tree(t)
    assert text.count("(") == 19999
    back = parse_term(text)
    assert back == t and hash(back) == hash(t)
    assert back.depth == 20000 and back.size == 20001


def _summand_key(s):
    return (s[0].sort_key, nested_key(s[1]))


def _tuple_order(s, t):
    a, b = _summand_key(s), _summand_key(t)
    return (a > b) - (a < b)


def test_summand_order_is_the_nested_tuple_order():
    # one-event prefixes over two labels, so many summands tie on their
    # prefix and are ordered by their children
    assert not hasattr(NIL, "sort_key")
    summands = []
    for seed in range(200):
        t = random_tree(f"order-{seed}", 12, ("a", "b"), max_prefix_events=1)
        for s in subtrees(t):
            summands.extend(s.summands)
    rng = random.Random("summand-order")
    for _ in range(5000):
        s, t = rng.choice(summands), rng.choice(summands)
        assert _compare_summands(s, t) == _tuple_order(s, t)
        assert (s[1] == t[1]) == (nested_key(s[1]) == nested_key(t[1]))
    for _ in range(300):
        sample = rng.sample(summands, rng.randint(2, 12))
        want = sorted(sample, key=_summand_key)
        assert list(_sorted_summands(sample)) == want
        assert SyncTree(sample).summands == tuple(want)


def test_deep_siblings_sort_without_recursion():
    plain = chain_tree(3000)
    ending = OMEGA
    for _ in range(2999):
        ending = prefix(A, ending)
    ending = prefix(A, ending)
    assert _compare_summands((A, plain), (A, ending)) == -1
    assert _compare_summands((A, ending), (A, plain)) == 1
    assert _compare_summands((A, plain), (A, chain_tree(3000))) == 0
    t = SyncTree([(A, ending), (A, plain)])
    assert t.summands == ((A, plain), (A, ending))
    assert t == SyncTree([(A, plain), (A, ending)])
