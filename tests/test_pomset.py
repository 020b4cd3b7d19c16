"""Labelled posets, canonicalization and pomset algebra."""

import itertools
import os
import random
import subprocess
import sys
import types

import pytest

import pomcheck

from conftest import (
    brute_force_iso,
    labelled_posets,
    random_labelled_poset,
    shuffled_copy,
)
from pomcheck.errors import StructuralError
from pomcheck.pomset import (
    EMPTY_POMSET,
    LabelledPoset,
    canonicalize,
    chain_of,
    singleton,
    step_of,
)


def lp(events, order, labels):
    return LabelledPoset(events, order, labels)


class TestLabelledPoset:
    def test_transitive_closure_applied(self):
        p = lp("abc", [("a", "b"), ("b", "c")], {"a": "x", "b": "y", "c": "z"})
        assert ("a", "c") in p.order

    def test_rejects_cycles(self):
        with pytest.raises(StructuralError):
            lp("ab", [("a", "b"), ("b", "a")], {"a": "x", "b": "x"})

    def test_rejects_reflexive_pairs(self):
        with pytest.raises(StructuralError):
            lp("a", [("a", "a")], {"a": "x"})

    def test_cycle_message_does_not_depend_on_hash_seed(self):
        src = os.path.dirname(os.path.dirname(pomcheck.__file__))
        code = ("from pomcheck import parse_pomset\n"
                "try:\n"
                "    parse_pomset('pomset{a:x; b:y; c:z; a<b; b<c; c<a}')\n"
                "except Exception as exc:\n"
                "    print(exc)\n")
        messages = {
            subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=60, check=True,
                           env=dict(os.environ, PYTHONPATH=src,
                                    PYTHONHASHSEED=seed)).stdout
            for seed in ("1", "2", "3")
        }
        assert messages == {"1:1: order is cyclic or reflexive at 'a'\n"}

    def test_rejects_partial_labelling(self):
        with pytest.raises(StructuralError):
            lp("ab", [], {"a": "x"})

    def test_rejects_order_off_carrier(self):
        with pytest.raises(StructuralError):
            lp("a", [("a", "b")], {"a": "x"})

    def test_immutable(self):
        p = lp("a", [], {"a": "x"})
        with pytest.raises(AttributeError):
            p.events = frozenset()

    def test_equality_and_hash(self):
        p = lp("ab", [("a", "b")], {"a": "x", "b": "y"})
        q = lp("ab", [("a", "b")], {"a": "x", "b": "y"})
        assert p == q and hash(p) == hash(q)


class TestCanonicalize:
    def test_empty_poset(self):
        assert canonicalize(lp((), (), {})) == EMPTY_POMSET
        assert len(EMPTY_POMSET) == 0

    def test_relabeling_symmetry(self):
        # {e1:a, e2:b; e1<e2} and {x9:a, x3:b; x9<x3} are the same pomset
        p = lp(["e1", "e2"], [("e1", "e2")], {"e1": "a", "e2": "b"})
        q = lp(["x9", "x3"], [("x9", "x3")], {"x9": "a", "x3": "b"})
        assert canonicalize(p) == canonicalize(q)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_labelled_poset(rng, rng.randint(0, 5), "ab")
            u = canonicalize(p)
            assert canonicalize(u.canon) == u

    def test_shuffle_invariance(self):
        rng = random.Random(11)
        for _ in range(200):
            p = random_labelled_poset(rng, rng.randint(0, 6), "ab")
            assert canonicalize(p) == canonicalize(shuffled_copy(rng, p))

    def test_agrees_with_bijection_oracle_random_pairs(self):
        # canonical equality <=> brute-force isomorphism, <= 6 events
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(0, 6)
            p = random_labelled_poset(rng, n, "ab")
            q = random_labelled_poset(rng, n, "ab")
            assert (canonicalize(p) == canonicalize(q)) == brute_force_iso(p, q)


class TestIsIsomorphic:
    """Isomorphism of labelled posets is equality of canonical forms."""

    def test_empty_pair(self):
        assert canonicalize(lp((), (), {})) == canonicalize(lp((), (), {}))

    def test_chain_vs_antichain(self):
        ch = lp("uv", [("u", "v")], {"u": "a", "v": "b"})
        an = lp("uv", [], {"u": "a", "v": "b"})
        assert canonicalize(ch) != canonicalize(an)

    def test_exhaustive_small(self):
        posets = list(labelled_posets(3, "ab"))
        for p in posets:
            for q in posets:
                assert (canonicalize(p) == canonicalize(q)) == \
                    brute_force_iso(p, q)


class TestIsStep:
    def test_empty(self):
        assert EMPTY_POMSET.is_step()

    def test_antichain(self):
        assert step_of(["a", "b"]).is_step()

    def test_chain(self):
        assert not chain_of(["a", "b"]).is_step()


class TestPomsetValue:
    def test_constructors(self):
        assert len(singleton("a")) == 1
        assert step_of(["a", "a", "b"]).label_multiset() == ("a", "a", "b")
        assert not chain_of(["a", "b", "c"]).is_step()

    def test_hashable_and_ordered(self):
        xs = {singleton("a"), step_of("ab"), chain_of("ab"), EMPTY_POMSET}
        assert len(xs) == 4
        assert sorted(xs)[0] == EMPTY_POMSET

    def test_chain_of_matches_canonicalized_poset(self):
        # every label sequence of length 1-7 over {a,b,c}, and a few
        # longer ones whose event names do not sort by index
        rng = random.Random("chain-of")
        seqs = [seq for n in range(1, 8)
                for seq in itertools.product("abc", repeat=n)]
        seqs += [[rng.choice("abc") for _ in range(n)] for n in (11, 12, 20)]
        for seq in seqs:
            names = [f"e{i}" for i in range(len(seq))]
            order = list(zip(names, names[1:]))
            want = canonicalize(lp(names, order, dict(zip(names, seq))))
            assert chain_of(seq).key == want.key, seq


PUBLIC = {
    "BACKEND", "InternalInconsistencyError", "LabelledPoset", "NIL",
    "OMEGA", "ParseError", "PomcheckError", "Pomset", "PrimeEventStructure",
    "ProcessState", "RelationKind", "StratParams", "StructuralError",
    "SyncTree", "Verdict", "Witness", "bisim", "canonicalize", "chain_of",
    "characteristic_tree", "compile_tree", "compiled", "distinguishing_tree",
    "enumerate_trees", "fin_preorder", "finitary_via_trees", "format_pomset",
    "format_tree", "kernel", "level_approx", "parse", "parse_pomset",
    "parse_term", "prefix", "random_tree", "singleton", "step_of", "strat",
    "strat_omega",
}


def test_public_surface_and_one_pomset_constructor():
    names = {n for n, v in vars(pomcheck).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC
    with pytest.raises(TypeError):
        pomcheck.Pomset(lp(["e0", "e1"], [("e1", "e0")],
                           {"e0": "b", "e1": "a"}))
