"""Divergence-sensitive prebisimulation preorders and their finitary parts.

The functional behind the preorders keeps forward simulation
unconditional and demands backward simulation (plus convergence of the
right-hand process) only from convergent left-hand states.  It is the
bisimulation functional of :mod:`pomcheck._engine` with that one guard
added.  Every operation here reads the engine's rank map, which records
the Kleene round in which each node drops out: greatest
prebisimulations, level-n approximants and their omega limits, the
restriction-indexed stratification and the finitary preorder computed
over a dominating finite restriction set.  On top of them sit the
tree-test characterization and the induced kernel equivalences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import FrozenSet, Optional, Union

from ._engine import (
    OMEGA,
    demand,
    diverges,
    holds,
    ranks,
    split,
    stable_depth,
    sub_triples,
    successors,
    table_of,
    triple_demands,
    triple_transitions,
)
from .equiv import RelationKind, Verdict, Witness, verdict
from .errors import StructuralError
from .pomset import Pomset

Level = Union[int, str]


@dataclass(frozen=True)
class StratParams:
    """A restriction set of (canonical) pomsets and an approximant level."""

    restriction: FrozenSet[Pomset]
    level: Level = OMEGA

    def __post_init__(self):
        object.__setattr__(self, "restriction", frozenset(self.restriction))
        _check_level(self.level)


def _check_level(n):
    if n != OMEGA and (not isinstance(n, int) or n < 0):
        raise StructuralError(f"level must be a natural number or {OMEGA!r}")


# ---------------------------------------------------------------------------
# one application of the functional (the engine's, over explicit relations)
# ---------------------------------------------------------------------------


def _grouped(state, step_only):
    groups = {}
    for u, s2 in successors(state, step_only):
        groups.setdefault(u, []).append(s2)
    return groups


def _transfers(gx, gy):
    """The transfer obligations of a state pair, as :func:`demand` reads them.

    ``gx`` and ``gy`` map each label to the successors of the left and
    right state under it; candidates are successor pairs.
    """
    fwd = [(u, [(x2, y2) for y2 in gy.get(u, ())])
           for u, xs in gx.items() for x2 in xs]
    bwd = [(v, [(x2, y2) for x2 in gx.get(v, ())])
           for v, ys in gy.items() for y2 in ys]
    return split(fwd), split(bwd)


def apply_F(relation, space, kind: RelationKind, restriction=None):
    """One application of the prebisimulation functional over ``space``.

    Returns the pairs of ``space`` whose forward transfer holds w.r.t.
    ``relation`` and whose backward transfer and convergence requirement
    hold when the left state converges (guarded additionally by
    ``initials <= restriction`` when a restriction set is given).
    """
    if kind.posetal:
        raise StructuralError("apply_F is for the pomset/step kinds; see apply_F_hp")
    step_only = kind is RelationKind.STEP
    relation = frozenset(relation)

    def keeps(x, y):
        fwd, bwd = _transfers(_grouped(x, step_only), _grouped(y, step_only))
        return holds(
            demand(fwd, bwd, diverges(x), diverges(y), restriction, True),
            relation,
        )

    return frozenset((x, y) for (x, y) in space if keeps(x, y))


def _prune_downward(rel, subs):
    while True:
        keep = frozenset(t for t in rel if all(s in rel for s in subs[t]))
        if keep == rel:
            return rel
        rel = keep


def apply_F_hp(relation, es1, es2, hereditary=False, acts=None):
    """One application of the posetal prebisimulation functional.

    Works over the full posetal product of ``es1`` and ``es2``; with
    ``hereditary`` the result is intersected with its downward-closure-
    stable subset.
    """
    relation = frozenset(relation)
    fwd, bwd = triple_transitions(es1, es2)
    out = frozenset(
        t for t, groups in triple_demands(fwd, bwd, es1, es2, acts, True).items()
        if holds(groups, relation)
    )
    if hereditary:
        out = _prune_downward(out, sub_triples(es1, es2))
    return out


# ---------------------------------------------------------------------------
# public operations, all read from the engine's rank map
# ---------------------------------------------------------------------------


def _ranks(p, q, kind, restriction):
    """The rank map of (p, q) under the prebisimulation functional."""
    if kind.posetal and restriction is not None:
        dropped = sum(1 for u in restriction if len(u) != 1)
        if dropped:
            warnings.warn(
                f"{dropped} non-singleton pomset(s) in the restriction set are "
                "ignored for the hp/hhp stratification",
                stacklevel=3,
            )
    return ranks(p, q, kind, restriction, True)


def prebisim(p, q, kind: RelationKind, want_witness: bool = False) -> Verdict:
    """Greatest prebisimulation of the given kind; left ≲ right."""
    return verdict(_ranks(p, q, kind, None), want_witness)


def level_approx(p, q, kind: RelationKind, n: Level) -> bool:
    """Membership in the n-th approximant of the unrestricted functional."""
    _check_level(n)
    return _ranks(p, q, kind, None).holds_at(n)


def strat(p, q, kind: RelationKind, params: StratParams) -> bool:
    """Membership in the restriction-indexed stratified approximant."""
    return _ranks(p, q, kind, params.restriction).holds_at(params.level)


def strat_omega(p, q, kind: RelationKind, restriction) -> bool:
    """Limit of the stratified approximants (stabilizes on finite models)."""
    return strat(p, q, kind, StratParams(frozenset(restriction), OMEGA))


def first_failing_level(p, q, kind: RelationKind, restriction=None) -> Optional[int]:
    """Least n at which (p, q) falls out of the approximant chain, if any."""
    return _ranks(p, q, kind, restriction).level


def _sort_pomsets(state, kind: RelationKind) -> frozenset:
    """All transition labels of ``state``'s system, read from its table."""
    return frozenset(table_of(state, kind is RelationKind.STEP)[0].pomsets)


def dominating_restriction(p, q, kind: RelationKind) -> frozenset:
    """The finite restriction set that decides the finitary preorder.

    Pomsets outside the sorts of both processes label no transition and
    cannot flip the ``initials <= restriction`` guards, so this set
    dominates every finite restriction by antitonicity.
    """
    if kind.posetal:
        from .pomset import singleton

        labels = {
            singleton(lab)
            for es in (p.structure, q.structure)
            for lab in es.labels.values()
        }
        return frozenset(labels)
    return _sort_pomsets(p, kind) | _sort_pomsets(q, kind)


def fin_preorder(p, q, kind: RelationKind, want_witness: bool = False) -> Verdict:
    """The finitary preorder: stratified limit over the dominating set.

    The dominating set holds every transition label of both systems, so
    it drops no obligation and guards no initial: on these finite models
    the finitary preorder is the greatest prebisimulation, and
    :func:`~pomcheck._engine.ranks` reads the set as no restriction.
    """
    pmax = dominating_restriction(p, q, kind)
    return verdict(_ranks(p, q, kind, pmax), want_witness, pmax)


def finitary_via_trees(
    p,
    q,
    kind: RelationKind,
    max_depth: Optional[int] = None,
    max_width: int = 2,
    max_trees: int = 2000,
) -> Verdict:
    """The tree-test characterization of the finitary preorder.

    Related means no finite synchronization tree ``t`` with
    ``t`` ≲ ``p`` but not ``t`` ≲ ``q`` was found.  Negative answers are
    exact: the distinguishing tree is constructed from the failing
    stratification level and re-verified.  Positive answers are
    definitive when the bounded enumeration finished within budget,
    bound-exhausted otherwise.
    """
    from . import testgen

    pmax = dominating_restriction(p, q, kind)
    r = _ranks(p, q, kind, pmax)
    if r.level is not None:
        t = testgen.distinguishing_tree(p, q, kind)
        return Verdict(False, witness=Witness("tree", t), level=r.level)
    if max_depth is None:
        max_depth = stable_depth(p, q, kind, pmax, r) + 1
    checked = 0
    exhausted = False
    for t in testgen.enumerate_trees(pmax, max_depth, max_width):
        if checked >= max_trees:
            exhausted = True
            break
        checked += 1
        ts = testgen.tree_as_process(t, kind)
        if prebisim(ts, p, kind).related and not prebisim(ts, q, kind).related:
            from .errors import InternalInconsistencyError

            raise InternalInconsistencyError(
                "tree test contradicts the finitary preorder; this is a bug"
            )
    return Verdict(True, level=OMEGA, definitive=not exhausted)


def kernel(p, q, kind: RelationKind) -> bool:
    """Kernel equivalence: the preorder in both directions."""
    return prebisim(p, q, kind).related and prebisim(q, p, kind).related
