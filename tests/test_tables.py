"""The step and pomset tables, step canonical forms, the canonical-labelling
kernel and the compile, each against the algorithm it replaced
(``tests/table_oracle.py``)."""

import itertools
import random
from collections import Counter

import pytest

import pair_oracle
import table_oracle
import pomcheck
from conftest import chain_tree, closed_orders, f1_terms, random_coded_input
from pomcheck import _canon_py
from pomcheck import estructure as es_mod
from pomcheck.grammar import parse_term
from pomcheck.pomset import (
    LabelledPoset,
    canonicalize,
    shape_pomset,
    step_of,
)
from pomcheck.testgen import random_tree


CORPUS = {
    "random": [random_tree(seed, size, ("a", "b", "c"), max_prefix_events=k)
               for size in range(2, 10) for seed in range(50) for k in (2, 3)],
    "f1-abcd": [parse_term(text) for text in f1_terms("abcd")],
    "f1-aabbc": [parse_term(text) for text in f1_terms("aabbc")],
    "chain12": [chain_tree(12)],
    "conflicting-steps": [parse_term("{a,b}:0 + {a,c}:0")],
}


def _rows(rows):
    """A table row as a multiset of (pomset key, canonical poset, target)."""
    return Counter((u._key, u.canon, d) for u, d in rows)


@pytest.mark.parametrize("family", CORPUS)
def test_tables_match_per_extension_oracle(family):
    for t in CORPUS[family]:
        es = es_mod.compile_tree(t)[0]
        oracle = table_oracle.pomset_table(es)
        steps = pair_oracle.decoded(es, es_mod._step_table(es))
        pomsets = pair_oracle.decoded(es, es_mod._pomset_table(es))
        assert steps.keys() == pomsets.keys() == oracle.keys()
        for c, rows in oracle.items():
            assert _rows(steps[c]) == _rows((u, d) for u, d in rows
                                            if u.is_step())
            assert _rows(pomsets[c]) == _rows(rows)
        for table in (es_mod._step_table(es), es_mod._pomset_table(es),
                      es_mod.action_table(es)):
            _check_form(es, table)
        _check_decoding(es, oracle)


def _check_decoding(es, oracle):
    """The ProcessState functions decode the rows to the oracle's."""
    for c, rows in oracle.items():
        s = es_mod.ProcessState(es, c)
        assert es_mod.pomset_transitions(s) == \
            {(u, es_mod.ProcessState(es, d)) for u, d in rows}
        assert es_mod.step_transitions(s) == \
            {(u, es_mod.ProcessState(es, d)) for u, d in rows if u.is_step()}
        assert es_mod.initials(s) == {u for u, _ in rows}
        assert es_mod.sort(s) == {u for c2, rows2 in oracle.items()
                                  if c <= c2 for u, _ in rows2}


def _check_form(es, table):
    """Ids follow the configuration graph, root 0; the pomset list holds
    each row's pomsets once; divergence is read per configuration."""
    assert table.states == tuple(es_mod._config_graph(es))
    assert table.states[0] == 0
    assert table.index == {c: x for x, c in enumerate(table.states)}
    assert len(set(table.pomsets)) == len(table.pomsets)
    assert table.pomset_ids == {u: i for i, u in enumerate(table.pomsets)}
    assert {u for row in table.rows for u in row} == \
        set(range(len(table.pomsets)))
    div = es_mod._event_masks(es).divergent
    assert table.divergent == tuple(c in div for c in table.states)


def test_step_canonical_form_matches_kernel():
    rng = random.Random(5)
    for n in range(1, 7):
        for multiset in itertools.combinations_with_replacement("abc", n):
            labels = list(multiset)
            rng.shuffle(labels)
            names = [f"x{i}" for i in range(n)]
            lp = LabelledPoset(names, (), dict(zip(names, labels)))
            kernel = table_oracle.canonicalize(lp)
            for got in (canonicalize(lp), step_of(labels)):
                assert got._key == kernel._key
                assert got.canon == kernel.canon


def _below(above):
    """The below-masks of a coded order given by its above-masks."""
    below = [0] * len(above)
    for i, m in enumerate(above):
        for j in range(len(above)):
            if m >> j & 1:
                below[j] |= 1 << i
    return tuple(below)


def _exhaustive_coded_inputs():
    """Every coded input of the exhaustive canonicalization corpus: each
    closed order on at most 5 events, under each labelling by 2 codes."""
    for n in range(6):
        for order in closed_orders(n):
            above = [0] * n
            for a, b in order:
                above[a] |= 1 << b
            for labels in itertools.product((0, 1), repeat=n):
                yield labels, tuple(above)


def test_canonical_order_matches_nested_search():
    rng = random.Random(31)
    inputs = [random_coded_input(rng, rng.randint(0, 9), rng.randint(1, 3))
              for _ in range(2000)]
    n = 70
    inputs.append((tuple(i % 2 for i in range(n)),
                   tuple(sum(1 << j for j in range(i + 1, n))
                         for i in range(n))))
    inputs.extend(_exhaustive_coded_inputs())
    for labels, above in inputs:
        assert _canon_py.canonical_order(labels, above, _below(above)) == \
            table_oracle.canonical_order(labels, above)


def test_canonical_order_of_nothing():
    assert _canon_py.canonical_order((), (), ()) == ()


def test_backend_is_python():
    assert pomcheck.BACKEND == "python"


def test_shape_pomset_matches_validated_construction():
    """The canonical poset and key read off the canonical order equal the
    poset the validating constructor builds from scratch and its key."""
    rng = random.Random(47)
    for _ in range(1500):
        n = rng.randint(1, 8)
        codes, above = random_coded_input(rng, n, rng.randint(1, 3))
        labels = ["abc"[c] for c in codes]
        below = _below(above)
        got = shape_pomset(labels, below)
        perm = table_oracle.canonical_order(
            [sorted(set(labels)).index(s) for s in labels], above)
        name = {orig: f"e{pos}" for pos, orig in enumerate(perm)}
        want = LabelledPoset(
            name.values(),
            [(name[j], name[i]) for i in range(n) for j in range(n)
             if below[i] >> j & 1],
            {name[i]: labels[i] for i in range(n)},
        )
        pos = {f"e{i}": i for i in range(n)}
        assert got._key == (
            tuple(want.label(f"e{i}") for i in range(n)),
            tuple(sorted((pos[a], pos[b]) for a, b in want.order)),
        )
        assert got.canon == want
        assert got == table_oracle.canonicalize(want)


@pytest.mark.parametrize("family", CORPUS)
def test_compile_matches_recursive_compile(family):
    for t in CORPUS[family]:
        got = es_mod.compile_tree(t)[0]
        want = table_oracle.compile_tree(t)
        for field in ("events", "labels", "causes", "conflicts",
                      "divergent_configs"):
            assert getattr(got, field) == getattr(want, field)


def test_deep_chain_compiles():
    es = es_mod.compile_tree(chain_tree(1200))[0]
    assert len(es.events) == 1200
    assert es.causes[1199] == frozenset(range(1199))
