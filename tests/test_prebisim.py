"""Prebisimulation preorders, approximants, stratification and kernels."""

import itertools
import random

import pytest

import kleene_oracle
import posetal_oracle
from conftest import tree_corpus
from pomcheck import _engine
from pomcheck import prebisim as pb
from pomcheck.equiv import RelationKind
from pomcheck.errors import StructuralError
from pomcheck.estructure import compiled, divergent, initials
from pomcheck.pomset import singleton, step_of
from pomcheck.prebisim import OMEGA, StratParams
from pomcheck.synctree import NIL, OMEGA as W, SyncTree, prefix
from pomcheck.testgen import tree_as_process

A = singleton("a")
PAIR_KINDS = (RelationKind.POMSET, RelationKind.STEP)
ALL_KINDS = list(RelationKind)

A_NIL = compiled(prefix(A))            # a:0
A_NIL_W = compiled(prefix(A).with_omega())  # a:0 + W


class TestApplyF:
    def test_full_relation_keeps_divergent_deadlocks(self):
        omega = compiled(W)
        for t in tree_corpus("F-full", 10, 5, 5):
            q = compiled(t)
            space = _engine.pair_space(omega, q)
            out = kleene_oracle.apply_F(space, space, RelationKind.POMSET)
            assert all((omega, y) in out for _, y in space)

    def test_empty_relation_unfolding(self):
        for t1, t2 in zip(tree_corpus("F-emptyL", 10, 5, 5),
                          tree_corpus("F-emptyR", 10, 5, 5)):
            p, q = compiled(t1), compiled(t2)
            space = _engine.pair_space(p, q)
            out = kleene_oracle.apply_F(frozenset(), space, RelationKind.POMSET)
            for x, y in space:
                expect = not initials(x) and (
                    divergent(x) or (not divergent(y) and not initials(y))
                )
                assert ((x, y) in out) == expect

    def test_monotone(self):
        rng = random.Random(31)
        for t1, t2 in zip(tree_corpus("F-monoL", 8, 5, 4),
                          tree_corpus("F-monoR", 8, 5, 4)):
            p, q = compiled(t1), compiled(t2)
            space = sorted(_engine.pair_space(p, q),
                           key=lambda xy: (sorted(xy[0].config),
                                           sorted(xy[1].config)))
            for kind in PAIR_KINDS:
                small = frozenset(s for s in space if rng.random() < 0.4)
                big = small | frozenset(s for s in space if rng.random() < 0.4)
                assert kleene_oracle.apply_F(small, space, kind) <= \
                    kleene_oracle.apply_F(big, space, kind)

    def test_rejects_posetal_kinds(self):
        with pytest.raises(StructuralError):
            kleene_oracle.apply_F(frozenset(), frozenset(), RelationKind.HP)


class TestApplyFHp:
    def test_full_relation_keeps_divergent_deadlocks(self):
        es1 = compiled(W).structure
        for t in tree_corpus("Fhp-full", 8, 5, 4):
            es2 = compiled(t).structure
            space = _engine.triple_space(es1, es2)
            out = kleene_oracle.apply_F_hp(space, es1, es2)
            assert posetal_oracle.ROOT_TRIPLE in out

    def test_empty_relation_unfolding(self):
        for t1, t2 in zip(tree_corpus("Fhp-emptyL", 8, 5, 4),
                          tree_corpus("Fhp-emptyR", 8, 5, 4)):
            es1, es2 = compiled(t1).structure, compiled(t2).structure
            out = kleene_oracle.apply_F_hp(frozenset(), es1, es2)
            fwd, bwd = _engine.triple_transitions(es1, es2)
            for t in _engine.triple_space(es1, es2):
                c, _f, d = t
                expect = not fwd[t] and (
                    c in es1.divergent_configs
                    or (d not in es2.divergent_configs and not bwd[t])
                )
                assert (t in out) == expect

    def test_monotone(self):
        rng = random.Random(37)
        for t1, t2 in zip(tree_corpus("Fhp-monoL", 6, 5, 4),
                          tree_corpus("Fhp-monoR", 6, 5, 4)):
            es1, es2 = compiled(t1).structure, compiled(t2).structure
            space = sorted(_engine.triple_space(es1, es2),
                           key=lambda t: (sorted(t[0]), sorted(t[1]),
                                          sorted(t[2])))
            small = frozenset(t for t in space if rng.random() < 0.4)
            big = small | frozenset(t for t in space if rng.random() < 0.4)
            assert kleene_oracle.apply_F_hp(small, es1, es2) <= \
                kleene_oracle.apply_F_hp(big, es1, es2)


class TestPrebisim:
    def test_omega_below_everything(self):
        omega = compiled(W)
        for t in tree_corpus("pre-omega", 10, 5, 5):
            for kind in ALL_KINDS:
                assert pb.prebisim(omega, compiled(t), kind).related

    def test_divergence_summand_absorption(self):
        assert pb.prebisim(A_NIL_W, A_NIL, RelationKind.POMSET).related
        assert not pb.prebisim(A_NIL, A_NIL_W, RelationKind.POMSET).related

    def test_nil_below_iff_convergent_deadlock(self):
        nil = compiled(NIL)
        for t in tree_corpus("pre-nil", 15, 5, 5):
            q = compiled(t)
            expect = not divergent(q) and not initials(q)
            assert pb.prebisim(nil, q, RelationKind.POMSET).related == expect

    def test_witness_on_failure(self):
        v = pb.prebisim(A_NIL, A_NIL_W, RelationKind.POMSET,
                        want_witness=True)
        assert not v.related and v.witness is not None


class TestLevels:
    def test_monotone_in_level(self):
        pairs = list(zip(tree_corpus("lvl-L", 15, 5, 5),
                         tree_corpus("lvl-R", 15, 5, 5)))
        for t1, t2 in pairs:
            p, q = compiled(t1), compiled(t2)
            for kind in ALL_KINDS:
                for n in range(5):
                    if pb.level_approx(p, q, kind, n + 1):
                        assert pb.level_approx(p, q, kind, n)

    def test_omega_limit_equals_prebisim(self):
        pairs = list(zip(tree_corpus("lim-L", 15, 5, 5),
                         tree_corpus("lim-R", 15, 5, 5)))
        for t1, t2 in pairs:
            p, q = compiled(t1), compiled(t2)
            for kind in ALL_KINDS:
                assert pb.level_approx(p, q, kind, OMEGA) == \
                    pb.prebisim(p, q, kind).related

    def test_bad_level_rejected(self):
        for n in (-1, "later"):
            with pytest.raises(StructuralError):
                pb.level_approx(A_NIL, A_NIL_W, RelationKind.POMSET, n)

    def test_bool_level_rejected(self):
        # bool is an int subclass, but True is no level
        for n in (True, False):
            with pytest.raises(StructuralError):
                pb.level_approx(A_NIL, A_NIL_W, RelationKind.STEP, n)

    def test_stabilization_bound(self):
        for t1, t2 in zip(tree_corpus("stab-L", 10, 5, 5),
                          tree_corpus("stab-R", 10, 5, 5)):
            p, q = compiled(t1), compiled(t2)
            space = _engine.pair_space(p, q)
            for kind in PAIR_KINDS:
                levels = kleene_oracle._pair_levels(space, kind, None)
                assert len(levels) <= len(space) + 1
                ranks = _engine.ranks(p, q, kind, None, True)
                assert ranks.depth <= ranks.size


class TestStrat:
    def test_empty_restriction_level_one_unfolding(self):
        params = StratParams(frozenset(), 1)
        for t1, t2 in zip(tree_corpus("strat1-L", 15, 5, 5),
                          tree_corpus("strat1-R", 15, 5, 5)):
            p, q = compiled(t1), compiled(t2)
            expect = (initials(p) or divergent(p)) or (
                not divergent(q) and not initials(q)
            )
            assert pb.strat(p, q, RelationKind.POMSET, params) == bool(expect)

    def test_empty_restriction_is_level_independent(self):
        for t1, t2 in zip(tree_corpus("strat0-L", 8, 5, 5),
                          tree_corpus("strat0-R", 8, 5, 5)):
            p, q = compiled(t1), compiled(t2)
            base = pb.strat(p, q, RelationKind.POMSET,
                            StratParams(frozenset(), 1))
            for n in (2, 3, OMEGA):
                assert pb.strat(p, q, RelationKind.POMSET,
                                StratParams(frozenset(), n)) == base

    def test_antitone_in_restriction(self):
        rng = random.Random(41)
        for t1, t2 in zip(tree_corpus("anti-L", 12, 5, 5),
                          tree_corpus("anti-R", 12, 5, 5)):
            p, q = compiled(t1), compiled(t2)
            for kind in PAIR_KINDS:
                pmax = sorted(pb.dominating_restriction(p, q, kind))
                for _ in range(5):
                    big = frozenset(u for u in pmax if rng.random() < 0.7)
                    small = frozenset(u for u in big if rng.random() < 0.6)
                    if pb.strat_omega(p, q, kind, big):
                        assert pb.strat_omega(p, q, kind, small)

    def test_full_restriction_recovers_prebisim(self):
        extras = frozenset({step_of("cc"), singleton("c")})
        for t1, t2 in zip(tree_corpus("full-L", 12, 5, 5),
                          tree_corpus("full-R", 12, 5, 5)):
            p, q = compiled(t1), compiled(t2)
            for kind in PAIR_KINDS:
                pmax = pb.dominating_restriction(p, q, kind)
                expect = pb.prebisim(p, q, kind).related
                assert pb.strat_omega(p, q, kind, pmax) == expect
                assert pb.strat_omega(p, q, kind, pmax | extras) == expect

    def test_bad_level_rejected(self):
        with pytest.raises(StructuralError):
            StratParams(frozenset(), -1)
        with pytest.raises(StructuralError):
            StratParams(frozenset(), "later")

    def test_bool_level_rejected(self):
        for n in (True, False):
            with pytest.raises(StructuralError):
                StratParams(frozenset(), n)

    def test_restriction_warning_names_the_caller(self):
        p = compiled(prefix(A))
        restriction = frozenset({step_of("ab"), A})
        hp = RelationKind.HP
        for call in (
            lambda: pb.strat_omega(p, p, hp, restriction),
            lambda: pb.strat(p, p, hp, StratParams(restriction, 1)),
            lambda: pb.first_failing_level(p, p, hp, restriction),
        ):
            with pytest.warns(UserWarning, match="non-singleton") as record:
                call()
            assert [w.filename for w in record] == [__file__]

    def test_nonsingleton_restriction_warns_for_hp(self):
        p = compiled(prefix(A))
        with pytest.warns(UserWarning):
            pb.strat_omega(p, p, RelationKind.HP,
                           frozenset({step_of("ab"), A}))


class TestFinPreorder:
    def test_reflexive(self):
        for t in tree_corpus("fin-refl", 10, 5, 5):
            p = compiled(t)
            for kind in ALL_KINDS:
                assert pb.fin_preorder(p, p, kind).related

    def test_omega_below_everything(self):
        omega = compiled(W)
        for t in tree_corpus("fin-omega", 10, 5, 5):
            for kind in ALL_KINDS:
                assert pb.fin_preorder(omega, compiled(t), kind).related

    def test_failing_level_reported(self):
        v = pb.fin_preorder(A_NIL, A_NIL_W, RelationKind.POMSET)
        assert not v.related and isinstance(v.level, int)
        assert pb.first_failing_level(
            A_NIL, A_NIL_W, RelationKind.POMSET,
            pb.dominating_restriction(A_NIL, A_NIL_W, RelationKind.POMSET),
        ) == v.level


class TestFinitaryViaTrees:
    def test_reflexive_no_tree_found(self):
        for t in tree_corpus("fvt-refl", 5, 4, 4):
            p = compiled(t)
            v = pb.finitary_via_trees(p, p, RelationKind.POMSET,
                                      max_trees=150)
            assert v.related

    def test_divergence_counterexample_tree(self):
        v = pb.finitary_via_trees(A_NIL, A_NIL_W, RelationKind.POMSET)
        assert not v.related and v.witness.kind == "tree"
        t = v.witness.value
        ts = tree_as_process(t, RelationKind.POMSET)
        assert pb.prebisim(ts, A_NIL, RelationKind.POMSET).related
        assert not pb.prebisim(ts, A_NIL_W, RelationKind.POMSET).related

    def test_bound_exhaustion_is_flagged(self):
        p = compiled(prefix(step_of("ab"), prefix(step_of("ab"))))
        v = pb.finitary_via_trees(p, p, RelationKind.POMSET, max_trees=3)
        assert v.related and not v.definitive


class TestKernel:
    def test_reflexive(self):
        for t in tree_corpus("ker-refl", 8, 5, 5):
            p = compiled(t)
            for kind in ALL_KINDS:
                assert pb.kernel(p, p, kind)

    def test_divergence_asymmetry(self):
        assert not pb.kernel(A_NIL, A_NIL_W, RelationKind.POMSET)

    def test_is_an_equivalence_on_corpus(self):
        trees = tree_corpus("ker-equiv", 10, 5, 4)
        states = [compiled(t) for t in trees]
        for kind in PAIR_KINDS:
            for p, q in itertools.combinations(states, 2):
                assert pb.kernel(p, q, kind) == pb.kernel(q, p, kind)
            for p, q, r in itertools.islice(
                    itertools.permutations(states, 3), 120):
                if pb.kernel(p, q, kind) and pb.kernel(q, r, kind):
                    assert pb.kernel(p, r, kind)
