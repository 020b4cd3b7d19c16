"""Decision procedures for the four truly concurrent bisimulations:
pomset, step, history-preserving (hp) and hereditary history-preserving
(hhp).

Each is the greatest fixpoint of the bisimulation functional over state
pairs (pomset/step) or posetal triples (configuration, history
isomorphism, configuration; hhp keeps the relation downward closed).
The verdict, its level and its witness are all read from the rank map
of :func:`pomcheck._engine.ranks`.  All models are finite, so the
fixpoints terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ._engine import OMEGA, Ranks, RelationKind, ranks


@dataclass(frozen=True)
class Witness:
    """Diagnostic attached to a negative verdict.

    ``kind`` is one of ``"pomset"`` (an unmatched transition label),
    ``"tree"`` (a distinguishing synchronization tree) or ``"level"``
    (the approximant level at which the pair falls out).
    """

    kind: str
    value: object


@dataclass(frozen=True)
class Verdict:
    related: bool
    witness: Optional[Witness] = None
    level: Optional[object] = None  # int or "omega"
    definitive: bool = True

    def __bool__(self):
        return self.related


def failure_witness(r: Ranks) -> Witness:
    """The root's first transfer violation at the level it falls out.

    Scans the root's forward then backward obligations for one whose
    every candidate was already removed in an earlier round; falls back
    to the level itself when the root fails on convergence alone.
    """
    level = r.level
    for lab, cands in r.fwd + r.bwd:
        if all(0 < r.rank.get(c, level) < level for c in cands):
            return Witness("pomset", lab)
    return Witness("level", level)


def verdict(r: Ranks, want_witness: bool) -> Verdict:
    """The root's verdict, with its level and optionally its witness."""
    if r.level is None:
        return Verdict(True, level=OMEGA)
    w = failure_witness(r) if want_witness else None
    return Verdict(False, witness=w, level=r.level)


def bisim(p, q, kind: RelationKind, want_witness: bool = False) -> Verdict:
    """Decide whether ``p`` and ``q`` are ``kind``-bisimilar.

    ``p`` and ``q`` are :class:`ProcessState` values (or, for the
    pomset/step kinds only, :class:`SyncTree` values under the
    tree-native semantics).
    """
    return verdict(ranks(p, q, kind), want_witness)
