"""Synchronization tree structure and queries."""

import sys

import pytest

from pomcheck.equiv import RelationKind, bisim
from pomcheck.errors import StructuralError
from pomcheck.grammar import format_tree, parse_term
from pomcheck.pomset import EMPTY_POMSET, chain_of, singleton, step_of
from pomcheck.synctree import (
    NIL,
    OMEGA,
    SyncTree,
    prefix,
    subtrees,
    tree_divergent,
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


def test_transitions_single_summand():
    # {a,b}:(c:0) has exactly one summand
    t = prefix(AB, prefix(singleton("c")))
    assert tree_transitions(t) == frozenset({(AB, prefix(singleton("c")))})


def test_divergence_flag():
    assert not tree_divergent(NIL)
    assert tree_divergent(OMEGA)
    assert tree_divergent(prefix(A).with_omega())
    assert not tree_divergent(prefix(A))


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
    # the parser still recurses once per nesting level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 3 * 3000)
    try:
        back = parse_term(text)
    finally:
        sys.setrecursionlimit(limit)
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
