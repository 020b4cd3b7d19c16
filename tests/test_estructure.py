"""Event-structure compilation, configurations and transitions."""

import random

from conftest import brute_force_configurations, tree_corpus
from pomcheck.estructure import (
    EMPTY_CONFIG,
    ProcessState,
    action_transitions,
    compile_tree,
    compiled,
    configurations,
    divergent,
    initials,
    pomset_transitions,
    sort,
    step_transitions,
)
from pomcheck.pomset import chain_of, singleton, step_of
from pomcheck.synctree import NIL, OMEGA, SyncTree, prefix

A = singleton("a")
B = singleton("b")
AB = step_of(["a", "b"])


def label_sets(es, configs):
    return {frozenset((es.labels[e], e) for e in c) for c in configs}


def config_label_multisets(es, configs):
    return {tuple(sorted(es.labels[e] for e in c)) for c in configs}


class TestCompileTree:
    def test_nil(self):
        es, root = compile_tree(NIL)
        assert es.events == ()
        assert root.config == EMPTY_CONFIG
        assert not divergent(root)

    def test_conflicting_copies(self):
        es, _ = compile_tree(SyncTree([(A, NIL), (A, NIL)]))
        assert sorted(es.labels.values()) == ["a", "a"]
        e, f = es.events
        assert f in es.conflicts[e] and e in es.conflicts[f]

    def test_step_prefix_configurations(self):
        es, _ = compile_tree(prefix(AB))
        assert config_label_multisets(es, configurations(es)) == {
            (), ("a",), ("b",), ("a", "b"),
        }

    def test_sequential_configurations(self):
        # a:(b:0): no configuration holds b alone
        es, _ = compile_tree(prefix(A, prefix(B)))
        assert config_label_multisets(es, configurations(es)) == {
            (), ("a",), ("a", "b"),
        }

    def test_prefix_causality(self):
        es, _ = compile_tree(prefix(A, prefix(B)))
        (b_ev,) = [e for e in es.events if es.labels[e] == "b"]
        (a_ev,) = [e for e in es.events if es.labels[e] == "a"]
        assert es.causes[b_ev] == frozenset({a_ev})

    def test_divergence_at_path_ends(self):
        es, root = compile_tree(prefix(A, OMEGA))
        assert not divergent(root)
        full = frozenset(es.events)
        assert divergent(ProcessState(es, full))

    def test_configurations_against_subset_oracle(self):
        for t in tree_corpus("estr-configs", 40, 6, 6):
            es = compiled(t).structure
            assert configurations(es) == brute_force_configurations(es)

    def test_conflict_heredity(self):
        # e # f and f causes g implies e # g by cone-vs-cone construction
        for t in tree_corpus("estr-heredity", 40, 6, 6):
            es = compiled(t).structure
            for e in es.events:
                for f in es.conflicts[e]:
                    for g in es.events:
                        if f in es.causes[g]:
                            assert g in es.conflicts[e]


class TestTransitions:
    def test_nil_has_none(self):
        assert pomset_transitions(compiled(NIL)) == frozenset()
        assert action_transitions(compiled(NIL)) == frozenset()

    def test_step_prefix_pomset_transitions(self):
        root = compiled(prefix(AB))
        assert {u for u, _ in pomset_transitions(root)} == {A, B, AB}

    def test_sequential_pomset_transitions(self):
        root = compiled(prefix(A, prefix(B)))
        assert {u for u, _ in pomset_transitions(root)} == {A, chain_of("ab")}

    def test_step_filter(self):
        root = compiled(prefix(A, prefix(B)))
        assert {u for u, _ in step_transitions(root)} == {A}
        root2 = compiled(prefix(AB))
        assert {u for u, _ in step_transitions(root2)} == {A, B, AB}

    def test_action_transitions(self):
        root = compiled(prefix(A, prefix(B)))
        assert {lab for lab, _ in action_transitions(root)} == {"a"}
        root2 = compiled(prefix(AB))
        assert {lab for lab, _ in action_transitions(root2)} == {"a", "b"}

    def test_transitions_are_config_extensions(self):
        for t in tree_corpus("estr-ext", 25, 6, 6):
            root = compiled(t)
            es = root.structure
            configs = configurations(es)
            for u, s2 in pomset_transitions(root):
                assert s2.config in configs
                assert root.config < s2.config
                assert len(u) == len(s2.config - root.config)


class TestQueries:
    def test_initials_of_nil(self):
        assert initials(compiled(NIL)) == frozenset()

    def test_sort_of_sequential(self):
        root = compiled(prefix(A, prefix(B)))
        assert sort(root) == {A, B, chain_of("ab")}

    def test_derivatives_of_missing_label(self):
        root = compiled(prefix(A))
        assert B not in initials(root)
        assert {s2 for u, s2 in pomset_transitions(root) if u == B} == set()

    def test_derivatives_follow_transitions(self):
        root = compiled(prefix(AB))
        (s2,) = {s2 for u, s2 in pomset_transitions(root) if u == A}
        assert {u for u, _ in pomset_transitions(s2)} == {B}

    def test_sort_finiteness(self):
        root = compiled(prefix(AB))
        assert len(sort(root)) == 3
