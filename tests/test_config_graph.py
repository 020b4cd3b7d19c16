"""The configuration graph of bitmasks against the frozenset layer it
replaced (``tests/table_oracle.py``).

Configurations, action transitions, step rows (as multisets) and each
configuration's relevant events must equal those of the old scans, on
compiled trees and on hand-built structures whose conflicts are not
cone against cone and whose event ids are not their positions; the
graph's rows must list their events in ascending order, as the old
scans did.
"""

import random
from collections import Counter

import pytest

import pair_oracle
import table_oracle as oracle
from conftest import chain_tree, f1_terms
from pomcheck import _engine
from pomcheck import estructure as es_mod
from pomcheck.estructure import PrimeEventStructure, ProcessState
from pomcheck.grammar import parse_term
from pomcheck.testgen import random_tree


def random_structure(rng, n, labels=("a", "b")):
    """A random prime event structure on ``n`` scattered event ids.

    Causality is a random closed order along a shuffled topological
    order; each conflict is drawn between two events with no common
    event above them and inherited upward, so it stays irreflexive and
    hereditary.  About a fifth of the configurations diverge.
    """
    ids = rng.sample(range(3, 1000), n)
    causes = {e: set() for e in ids}
    for i, e in enumerate(ids):
        for x in ids[:i]:
            if rng.random() < 0.2:
                causes[e] |= {x} | causes[x]
    up = {e: {e} | {x for x in ids if e in causes[x]} for e in ids}
    conflicts = {e: set() for e in ids}
    for _ in range(rng.randint(0, n)):
        x, y = rng.sample(ids, 2)
        if up[x] & up[y]:
            continue
        for x2 in up[x]:
            for y2 in up[y]:
                conflicts[x2].add(y2)
                conflicts[y2].add(x2)
    es = PrimeEventStructure(ids, {e: rng.choice(labels) for e in ids},
                             causes, conflicts, ())
    divergent = [c for c in sorted(oracle.configurations(es), key=sorted)
                 if rng.random() < 0.2]
    return PrimeEventStructure(ids, es.labels, causes, conflicts, divergent)


def _compiled(trees):
    return [es_mod.compile_tree(t)[0] for t in trees]


def _wide():
    return parse_term(" + ".join(f"a:(b{i}:0)" for i in range(300)))


def _random_structures():
    rng = random.Random("config-graph")
    return [random_structure(rng, rng.randint(2, 10)) for _ in range(300)]


FAMILIES = {
    "random": lambda: _compiled(
        random_tree(seed, size, ("a", "b", "c"), max_prefix_events=k)
        for size in range(2, 10) for seed in range(50) for k in (2, 3)),
    **{f"f1-{m}": (lambda m=m: _compiled(parse_term(text)
                                         for text in f1_terms(m)))
       for m in ("abcd", "aabbc", "aaabb")},
    "chain12": lambda: _compiled([chain_tree(12)]),
    "chain1200": lambda: _compiled([chain_tree(1200)]),
    "wide": lambda: _compiled([_wide()]),
    "hand-built": _random_structures,
}


def _events(es, mask):
    return frozenset(e for i, e in enumerate(es.events) if mask >> i & 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_graph_tables_match_oracle(family):
    for es in FAMILIES[family]():
        configs = oracle.configurations(es)
        assert es_mod.configurations(es) == configs
        sets = es_mod._config_sets(es)
        assert sets.keys() == es_mod._config_graph(es).keys()
        assert all(_events(es, c) == cset for c, cset in sets.items())
        for c, rows in oracle.action_table(es, configs).items():
            assert es_mod.action_transitions(ProcessState(es, c)) == \
                {(lab, ProcessState(es, d)) for lab, _, d in rows}
        steps = pair_oracle.decoded(es, es_mod._step_table(es))
        want = oracle.step_table(es, configs)
        assert steps.keys() == want.keys()
        for c, rows in want.items():
            assert Counter(steps[c]) == Counter(rows)
            # decoded with event ids that are not positions
            assert es_mod.step_transitions(ProcessState(es, c)) == \
                {(u, ProcessState(es, d)) for u, d in rows}
        masks = es_mod._event_masks(es)
        relevant = oracle.relevant(es, configs)
        for c, cset in sets.items():
            assert _events(es, _engine._relevant(masks.above, c)) == \
                relevant[cset]
        assert {_events(es, c) for c in masks.divergent} == \
            es.divergent_configs


def test_graph_rows_ascend_and_add_their_event():
    rng = random.Random("config-graph-rows")
    for es in [random_structure(rng, rng.randint(2, 12)) for _ in range(100)]:
        masks = es_mod._event_masks(es)
        for c, edges in es_mod._config_graph(es).items():
            positions = [i for _, i, _ in edges]
            assert positions == sorted(set(positions))
            for lab, i, d in edges:
                assert not c >> i & 1 and d == c | 1 << i
                assert lab == masks.labels[i] == es.labels[es.events[i]]


def test_conflicts_that_are_not_cones():
    # x is caused by a and conflicts with b alone: after b and a, every
    # cause of x is present, but x is not enabled
    es = PrimeEventStructure([7, 40, 12], {7: "a", 40: "b", 12: "x"},
                             {12: {7}}, {12: {40}, 40: {12}}, ())
    assert es_mod.configurations(es) == {
        frozenset(), frozenset({7}), frozenset({40}), frozenset({7, 40}),
        frozenset({7, 12}),
    }
    assert es_mod.action_transitions(
        ProcessState(es, frozenset({7, 40}))) == frozenset()
