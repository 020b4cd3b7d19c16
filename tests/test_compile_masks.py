"""The compile straight to masks and the key-built pomsets.

``compile_tree`` writes each event's masks in one pass; every field of
the structure it builds, its set views and its masks alike, must equal
those of the recursive set-based compile (``tests/table_oracle.py``),
whose sets the structure converts to masks by a separate route.  A
``Pomset`` whose key the kernel reads off the canonical order must
behave as one the oracle builds from its own canonical poset.
"""

import itertools
import random
import sys

import pytest

import table_oracle
from conftest import chain_tree, random_coded_input
from test_tables import CORPUS
from pomcheck import estructure as es_mod
from pomcheck.pomset import LabelledPoset, shape_pomset, step_of
from pomcheck.synctree import NIL, OMEGA, SyncTree, prefix
from pomcheck.testgen import random_pomset


def _closed_below(n, pairs):
    """Below-masks of the transitive closure of ``pairs`` on ``n`` events."""
    below = [0] * n
    for a, b in pairs:
        below[b] |= 1 << a
    for _ in range(n):
        for i in range(n):
            m = below[i]
            for j in range(n):
                if m >> j & 1:
                    below[i] |= below[j]
    return below


def _long_prefixes():
    """Prefixes of 11 and 12 events, whose canonical names sort as strings
    ``e0, e1, e10, e11, e2, ...``: a step, and two posets with chains."""
    twelve = step_of("abcdefghijkl")
    eleven = shape_pomset(list("abcdefghijk"), _closed_below(
        11, [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7), (6, 8), (9, 10)]))
    tangled = shape_pomset(list("aabbccddeeff"), _closed_below(
        12, [(0, 2), (1, 2), (2, 4), (3, 4), (5, 11), (6, 11), (7, 10),
             (8, 10), (9, 10)]))
    return twelve, eleven, tangled


def _long_prefix_trees():
    twelve, eleven, tangled = _long_prefixes()
    a, b = step_of("a"), step_of("ab")
    return [
        prefix(twelve),
        prefix(eleven, prefix(a)),
        prefix(tangled, SyncTree([(a, NIL), (b, OMEGA)])),
        SyncTree([(twelve, prefix(eleven)), (eleven, prefix(tangled, OMEGA)),
                  (a, prefix(twelve))], True),
    ]


def _wide_tree(rng, depth):
    """A node with 2-6 summands of small random prefixes, ``depth`` deep,
    so that most events conflict with most others."""
    if depth == 0:
        return OMEGA if rng.random() < 0.3 else NIL
    summands = [(random_pomset(rng, "abc", 3), _wide_tree(rng, depth - 1))
                for _ in range(rng.randint(2, 6))]
    return SyncTree(summands, rng.random() < 0.2)


def _wide_trees():
    rng = random.Random("wide-conflicts")
    return [_wide_tree(rng, depth) for depth in (1, 2, 3) for _ in range(15)]


FAMILIES = {
    **CORPUS,
    "long-prefixes": _long_prefix_trees(),
    "wide-conflicts": _wide_trees(),
    "chain1200": [chain_tree(1200)],
}


@pytest.fixture
def deep_recursion():
    """The recursive oracle compile descends once per tree level."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("family", FAMILIES)
def test_compile_matches_set_based_compile(family, deep_recursion):
    for t in FAMILIES[family]:
        got = es_mod.compile_tree(t)[0]
        want = table_oracle.compile_tree(t)
        for field in ("events", "labels", "causes", "conflicts",
                      "divergent_configs"):
            assert getattr(got, field) == getattr(want, field), field
        assert es_mod._event_masks(got) == es_mod._event_masks(want)


def test_long_prefix_tables_match_oracle():
    for t in _long_prefix_trees()[1:]:
        es = es_mod.compile_tree(t)[0]
        configs = table_oracle.configurations(es)
        assert es_mod.configurations(es) == configs
        for c, rows in table_oracle.action_table(es, configs).items():
            assert es_mod.action_transitions(es_mod.ProcessState(es, c)) == \
                {(lab, es_mod.ProcessState(es, d)) for lab, _, d in rows}


def _agree(key_built, eager):
    assert key_built == eager and eager == key_built
    assert hash(key_built) == hash(eager)
    assert key_built.sort_key == eager.sort_key
    assert len(key_built) == len(eager)
    assert key_built.is_step() == eager.is_step()
    assert key_built.canon == eager.canon


def test_key_built_steps_agree_with_eager_ones():
    for n in range(1, 7):
        for multiset in itertools.combinations_with_replacement("abc", n):
            u = step_of(multiset)
            assert u._canon is None
            names = [f"x{i}" for i in range(n)]
            lp = LabelledPoset(names, (), dict(zip(names, multiset)))
            _agree(u, table_oracle.canonicalize(lp))


def test_key_built_shapes_agree_with_eager_ones():
    rng = random.Random("key-built")
    for _ in range(1000):
        n = rng.randint(1, 8)
        codes, above = random_coded_input(rng, n, rng.randint(1, 3))
        labels = ["abc"[c] for c in codes]
        below = [0] * n
        for i, m in enumerate(above):
            for j in range(n):
                if m >> j & 1:
                    below[j] |= 1 << i
        u = shape_pomset(labels, below)
        assert u._canon is None
        names = [f"x{i}" for i in range(n)]
        lp = LabelledPoset(names, [(names[j], names[i]) for i in range(n)
                                   for j in range(n) if below[i] >> j & 1],
                           dict(zip(names, labels)))
        eager = table_oracle.canonicalize(lp)
        _agree(u, eager)
        assert table_oracle.canonicalize(u.canon) == u
