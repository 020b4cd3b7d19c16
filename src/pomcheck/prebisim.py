"""Divergence-sensitive prebisimulation preorders and their finitary parts.

The functional behind the preorders keeps forward simulation
unconditional and demands backward simulation (plus convergence of the
right-hand process) only from convergent left-hand states.  It is the
bisimulation functional of :mod:`pomcheck._engine` with that one guard
added.  Every operation here reads the engine's rank map, which records
the Kleene round in which each node drops out: greatest
prebisimulations, level-n approximants and their omega limits, the
restriction-indexed stratification and the finitary preorder.  On
these finite models the finitary preorder is the greatest
prebisimulation (:func:`fin_preorder`), so no operation here passes the
dominating restriction set to the engine.  On top of them sit the
tree-test characterization and the induced kernel equivalences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import FrozenSet, Optional, Union

from ._engine import OMEGA, ranks, stable_depth, table_of
from .equiv import RelationKind, Verdict, Witness, verdict
from .errors import InternalInconsistencyError, StructuralError
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
    if n != OMEGA and (not isinstance(n, int) or isinstance(n, bool)
                       or n < 0):
        raise StructuralError(f"level must be a natural number or {OMEGA!r}")


# ---------------------------------------------------------------------------
# public operations, all read from the engine's rank map
# ---------------------------------------------------------------------------


def _ranks(p, q, kind, restriction):
    """The rank map of (p, q) under the prebisimulation functional.

    Only public operations call it: the warning names their caller.
    """
    r = ranks(p, q, kind, restriction, True)
    if kind.posetal and restriction is not None:
        dropped = sum(1 for u in restriction if len(u) != 1)
        if dropped:
            warnings.warn(
                f"{dropped} non-singleton pomset(s) in the restriction set are "
                "ignored for the hp/hhp stratification",
                stacklevel=3,
            )
    return r


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
    return _ranks(p, q, kind, frozenset(restriction)).holds_at(OMEGA)


def first_failing_level(p, q, kind: RelationKind, restriction=None) -> Optional[int]:
    """Least n at which (p, q) falls out of the approximant chain, if any."""
    return _ranks(p, q, kind, restriction).level


def dominating_restriction(p, q, kind: RelationKind) -> frozenset:
    """The finite restriction set that decides the finitary preorder.

    It holds every label of both sides' transition tables under
    ``kind`` (single actions for hp/hhp).  Pomsets outside the sorts of
    both processes label no transition and cannot flip the
    ``initials <= restriction`` guards, so this set dominates every
    finite restriction by antitonicity.
    """
    return frozenset(table_of(p, kind)[0].pomsets).union(
        table_of(q, kind)[0].pomsets)


def fin_preorder(p, q, kind: RelationKind, want_witness: bool = False) -> Verdict:
    """The finitary preorder: stratified limit over the dominating set.

    The dominating set contains every transition label of both systems, so
    it drops no obligation and guards no initial: on these finite models
    the finitary preorder is the greatest prebisimulation, and its
    verdict, level and witness are :func:`prebisim`'s.
    """
    return prebisim(p, q, kind, want_witness)


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
    # imported here, not at the top: testgen imports this module at its
    # top, and the two top-level imports would form a cycle
    from . import testgen

    r = _ranks(p, q, kind, None)
    if r.level is not None:
        t = testgen._distinguishing_tree(p, q, kind, r.level)
        return Verdict(False, witness=Witness("tree", t), level=r.level)
    if max_depth is None:
        max_depth = stable_depth(p, q, kind, r=r) + 1
    pmax = dominating_restriction(p, q, kind)  # the test trees' alphabet
    checked = 0
    exhausted = False
    for t in testgen.enumerate_trees(pmax, max_depth, max_width):
        if checked >= max_trees:
            exhausted = True
            break
        checked += 1
        ts = testgen.tree_as_process(t, kind)
        if prebisim(ts, p, kind).related and not prebisim(ts, q, kind).related:
            raise InternalInconsistencyError(
                "tree test contradicts the finitary preorder; this is a bug"
            )
    return Verdict(True, level=OMEGA, definitive=not exhausted)


def kernel(p, q, kind: RelationKind) -> bool:
    """Kernel equivalence: the preorder in both directions."""
    return prebisim(p, q, kind).related and prebisim(q, p, kind).related
