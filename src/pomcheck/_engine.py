"""The one fixpoint engine behind every relation and approximant level.

Every relation is the greatest fixpoint of one functional over a
product: state pairs for the pomset/step kinds, posetal triples
``(C, f, D)`` (``f`` an isomorphism of history posets) for hp/hhp.
Starting from the whole product, the engine removes in synchronous
Kleene rounds the nodes the functional rejects, re-examining after each
round only the nodes that depend on one just removed, and records the
round in which each node drops out.  That round is the node's level:
the node lies in the level-n approximant exactly when it has no rank or
a rank above n.  :func:`ranks` computes this rank map afresh on each
call; verdicts, approximant levels and witnesses are all read from it.

Bisimulation and prebisimulation share the functional (:func:`demand`)
and differ in one guard: prebisimulation asks for back-transfer and
convergence only from convergent left states, and under a restriction
set only when every initial pomset of the left state is in the set.

For the pomset/step kinds each side's states are interned as ints once
per query, straight from the kind's transition table (or the subtrees
under the tree-native semantics), with successors grouped by pomset,
and only the matched-label pair product reachable from the root pair is
explored.
The hp/hhp kinds run the same rounds over the posetal triple tables,
which live on the left structure, keyed by the right one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from . import estructure as es_mod
from . import synctree as st_mod
from .errors import StructuralError
from .estructure import Config, PrimeEventStructure, ProcessState, derived_table
from .pomset import singleton
from .synctree import SyncTree

OMEGA = "omega"


class RelationKind(enum.Enum):
    POMSET = "pomset"
    STEP = "step"
    HP = "hp"
    HHP = "hhp"

    @property
    def posetal(self) -> bool:
        return self in (RelationKind.HP, RelationKind.HHP)


# ---------------------------------------------------------------------------
# uniform state interface (pomset / step kinds)
# ---------------------------------------------------------------------------


def successors(state, step_only: bool) -> frozenset:
    """Outgoing (Pomset, state) transitions under the chosen semantics."""
    if isinstance(state, SyncTree):
        trans = st_mod.tree_transitions(state)
        if step_only:
            trans = frozenset((u, t) for u, t in trans if u.is_step())
        return trans
    if step_only:
        return es_mod.step_transitions(state)
    return es_mod.pomset_transitions(state)


def diverges(state) -> bool:
    if isinstance(state, SyncTree):
        return state.divergent
    return es_mod.divergent(state)


def state_space(state) -> frozenset:
    """All states sharing ``state``'s underlying system."""
    if isinstance(state, SyncTree):
        return st_mod.subtrees(state)
    return frozenset(
        ProcessState(state.structure, c)
        for c in es_mod.configurations(state.structure)
    )


def pair_space(p, q) -> frozenset:
    ys = state_space(q)
    return frozenset((x, y) for x in state_space(p) for y in ys)


def transition_rows(state, step_only: bool):
    """``(state, its (Pomset, target) transitions)`` over ``state_space(state)``.

    Read straight from the kind's own table (or the subtrees), without
    building a state object per transition: the step kind reads the step
    table and never builds the pomset table.  Under the event-structure
    semantics states are configurations.
    """
    if isinstance(state, SyncTree):
        return ((t, successors(t, step_only)) for t in st_mod.subtrees(state))
    if step_only:
        return es_mod._step_transition_table(state.structure).items()
    return es_mod._pomset_transition_table(state.structure).items()


# ---------------------------------------------------------------------------
# posetal triples
# ---------------------------------------------------------------------------

Iso = FrozenSet[Tuple[int, int]]
Triple = Tuple[Config, Iso, Config]

ROOT_TRIPLE: Triple = (frozenset(), frozenset(), frozenset())


def _history_isos(es1: PrimeEventStructure, c: Config,
                  es2: PrimeEventStructure, d: Config):
    """All label- and order-preserving bijections between two histories.

    Partial bijections grow by one event of ``c`` at a time, in event
    order, on an explicit stack: a recursive closure would be a
    reference cycle holding both structures, and so all their derived
    tables, until the cycle collector ran.
    """
    if len(c) != len(d):
        return []
    left = sorted(c)
    right = sorted(d)
    isos = []
    stack = [()]
    while stack:
        pairs = stack.pop()
        if len(pairs) == len(left):
            isos.append(frozenset(pairs))
            continue
        e = left[len(pairs)]
        used = {b for _, b in pairs}
        for f in right:
            if f in used or es1.labels[e] != es2.labels[f]:
                continue
            # order-preserving both ways over already-mapped events
            if all((a in es1.causes[e]) == (b in es2.causes[f])
                   and (e in es1.causes[a]) == (f in es2.causes[b])
                   for a, b in pairs):
                stack.append(pairs + ((e, f),))
    return isos


@derived_table
def triple_space(es1: PrimeEventStructure, es2: PrimeEventStructure) -> frozenset:
    """The posetal product of the two structures' configuration spaces."""
    triples = set()
    for c in es_mod.configurations(es1):
        for d in es_mod.configurations(es2):
            for f in _history_isos(es1, c, es2, d):
                triples.add((c, f, d))
    return frozenset(triples)


@derived_table
def sub_triples(es1: PrimeEventStructure, es2: PrimeEventStructure):
    """Immediate pointwise-sub-triple table for downward-closure pruning.

    Removing one pair (e, f(e)) with e maximal in C keeps us inside the
    posetal product (isomorphisms preserve maximality), and iterating
    one-pair removals reaches every pointwise-smaller triple.
    """
    space = triple_space(es1, es2)
    table = {}
    for (c, f, d) in space:
        subs = []
        fmap = dict(f)
        for e, g in fmap.items():
            if any(e in es1.causes[x] for x in c):
                continue  # e not maximal in c
            c0 = c - {e}
            d0 = d - {g}
            f0 = frozenset((a, b) for a, b in f if a != e)
            sub = (c0, f0, d0)
            if sub in space:
                subs.append(sub)
        table[(c, f, d)] = tuple(subs)
    return table


@derived_table
def triple_transitions(es1: PrimeEventStructure, es2: PrimeEventStructure):
    """Per-triple action-transfer candidate tables.

    For each triple T = (C, f, D) and each single-event extension
    C -a-> C', the table lists the triples (C', f[e -> e'], D') in the
    posetal product with D -a-> D' matching the same action; and the
    symmetric table for extensions of D.
    """
    space = triple_space(es1, es2)
    tab1 = es_mod._action_transition_table(es1)
    tab2 = es_mod._action_transition_table(es2)
    fwd = {}
    bwd = {}
    for (c, f, d) in space:
        fw = []
        for lab, e, c2 in tab1[c]:
            cands = []
            for lab2, g, d2 in tab2[d]:
                if lab2 != lab:
                    continue
                f2 = f | {(e, g)}
                if (c2, f2, d2) in space:
                    cands.append((c2, f2, d2))
            fw.append((lab, tuple(cands)))
        bw = []
        for lab, g, d2 in tab2[d]:
            cands = []
            for lab2, e, c2 in tab1[c]:
                if lab2 != lab:
                    continue
                f2 = f | {(e, g)}
                if (c2, f2, d2) in space:
                    cands.append((c2, f2, d2))
            bw.append((lab, tuple(cands)))
        fwd[(c, f, d)] = tuple(fw)
        bwd[(c, f, d)] = tuple(bw)
    return fwd, bwd


# ---------------------------------------------------------------------------
# the functional
# ---------------------------------------------------------------------------


def demand(fwd, bwd, left_div, right_div, restriction, pre):
    """What the functional asks of one node, whatever the relation.

    ``fwd`` and ``bwd`` list the node's transfer obligations as
    ``(label, candidate nodes)``: one per transition of the left
    (right) state, naming the nodes that would match it.  The result is
    the candidate groups that must each keep a member in the relation,
    or ``None`` when the node fails outright.  Bisimulation (``pre``
    false) asks for both directions.  Prebisimulation asks for the
    backward direction, a convergent right state and right initials
    inside ``restriction`` only when the left state converges and its
    initials lie inside ``restriction``.  A restriction (``None`` for
    none) drops the obligations labelled outside it.
    """

    def allowed(obligations):
        return [cands for lab, cands in obligations
                if restriction is None or lab in restriction]

    groups = allowed(fwd)
    if pre:
        if left_div or len(groups) < len(fwd):
            return groups
        back = allowed(bwd)
        return None if right_div or len(back) < len(bwd) else groups + back
    return groups + allowed(bwd)


def holds(groups, relation) -> bool:
    """Whether a node with these demands is kept by one application."""
    return groups is not None and all(
        any(c in relation for c in cands) for cands in groups
    )


def pair_transfers(gx, gy):
    """The transfer obligations of a state pair.

    ``gx`` and ``gy`` map each label to the successors of the left and
    right state under it; candidates are successor pairs.
    """
    fwd = [(u, [(x2, y2) for y2 in gy.get(u, ())])
           for u, xs in gx.items() for x2 in xs]
    bwd = [(v, [(x2, y2) for x2 in gx.get(v, ())])
           for v, ys in gy.items() for y2 in ys]
    return fwd, bwd


# ---------------------------------------------------------------------------
# rounds and rank maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ranks:
    """The rank map of one product.

    ``rank`` maps each removed node to the Kleene round that removed it;
    nodes never removed have no entry.  ``fwd`` and ``bwd`` are the
    root's transfer obligations, labelled by pomsets and in witness
    order.  ``size`` counts the nodes explored.
    """

    rank: dict
    root: object
    fwd: tuple
    bwd: tuple
    size: int

    @property
    def level(self) -> Optional[int]:
        """The root's rank: the first approximant level without it."""
        return self.rank.get(self.root)

    @property
    def depth(self) -> int:
        """Rounds until the functional is stable on the explored nodes."""
        return max(self.rank.values(), default=0)

    def holds_at(self, n) -> bool:
        """Whether the root lies in the level-``n`` approximant."""
        level = self.level
        return level is None or (n != OMEGA and level > n)


def _rounds(demands, supers=None) -> dict:
    """Remove nodes in synchronous Kleene rounds; return their ranks.

    ``demands`` maps every node to its :func:`demand`.  With ``supers``
    (hhp) a node is removed in the same round as any of its immediate
    sub-nodes, so every level stays downward closed.
    """
    alive = set(demands)
    preds = {n: [] for n in demands}
    for n, groups in demands.items():
        for cands in groups or ():
            for c in cands:
                preds[c].append(n)
    rank = {}
    out = [n for n, groups in demands.items() if not holds(groups, alive)]
    level = 0
    while out:
        level += 1
        alive.difference_update(out)
        if supers is not None:
            stack = list(out)
            while stack:
                for s in supers.get(stack.pop(), ()):
                    if s in alive:
                        alive.discard(s)
                        out.append(s)
                        stack.append(s)
        for n in out:
            rank[n] = level
        touched = {m for n in out for m in preds[n] if m in alive}
        out = [m for m in touched if not holds(demands[m], alive)]
    return rank


def _interned(state, step_only, pids):
    """The states of ``state``'s system as ints.

    Returns each state's successors grouped by pomset id, each state's
    divergence, and the id of ``state``.  ``pids`` interns pomsets and is
    shared by both sides of a product.
    """
    rows = list(transition_rows(state, step_only))
    index = {s: i for i, (s, _) in enumerate(rows)}
    groups = []
    for _, trans in rows:
        g = {}
        for u, s2 in trans:
            g.setdefault(pids.setdefault(u, len(pids)), []).append(index[s2])
        groups.append(g)
    if isinstance(state, SyncTree):
        return groups, [t.divergent for t, _ in rows], index[state]
    div = state.structure.divergent_configs
    return groups, [c in div for c, _ in rows], index[state.config]


def _pair_ranks(p, q, step_only, restriction, pre, everywhere=False) -> Ranks:
    """Rounds over the matched-label pair product reachable from (p, q).

    With ``everywhere`` the whole pair product is explored instead.
    """
    pids = {}
    gx, dx, xr = _interned(p, step_only, pids)
    gy, dy, yr = _interned(q, step_only, pids)
    pomsets = list(pids)
    if restriction is not None:
        restriction = {pids[u] for u in restriction if u in pids}
    if everywhere:
        pairs = [(x, y) for x in range(len(gx)) for y in range(len(gy))]
    else:
        pairs = [(xr, yr)]
    index = {xy: i for i, xy in enumerate(pairs)}
    root = index[(xr, yr)]

    def node(xy):
        i = index.get(xy)
        if i is None:
            i = index[xy] = len(pairs)
            pairs.append(xy)
        return i

    demands = {}
    i = 0
    while i < len(pairs):
        x, y = pairs[i]
        fwd, bwd = pair_transfers(gx[x], gy[y])
        fwd = [(u, [node(c) for c in cands]) for u, cands in fwd]
        bwd = [(v, [node(c) for c in cands]) for v, cands in bwd]
        demands[i] = demand(fwd, bwd, dx[x], dy[y], restriction, pre)
        if i == root:
            root_fwd, root_bwd = fwd, bwd
        i += 1

    def labelled(obligations):
        out = [(pomsets[u], tuple(cands)) for u, cands in obligations]
        return tuple(sorted(out, key=lambda o: o[0].sort_key))

    return Ranks(_rounds(demands), root, labelled(root_fwd),
                 labelled(root_bwd), len(pairs))


def triple_demands(es1, es2, acts, pre) -> dict:
    """The :func:`demand` of every triple of the posetal product.

    ``acts`` (``None`` for none) restricts the observed actions.
    """
    fwd, bwd = triple_transitions(es1, es2)
    div1, div2 = es1.divergent_configs, es2.divergent_configs
    return {
        t: demand(fwd[t], bwd[t], t[0] in div1, t[2] in div2, acts, pre)
        for t in triple_space(es1, es2)
    }


def _triple_ranks(es1, es2, hereditary, restriction, pre) -> Ranks:
    """Rounds over the whole posetal product of the two structures."""
    acts = None
    if restriction is not None:
        acts = {u.label_multiset()[0] for u in restriction if len(u) == 1}
    demands = triple_demands(es1, es2, acts, pre)
    supers = None
    if hereditary:
        supers = {}
        for t, subs in sub_triples(es1, es2).items():
            for s in subs:
                supers.setdefault(s, []).append(t)
    fwd, bwd = triple_transitions(es1, es2)

    def labelled(obligations):
        return tuple((singleton(lab), cands) for lab, cands in obligations)

    return Ranks(_rounds(demands, supers), ROOT_TRIPLE,
                 labelled(fwd[ROOT_TRIPLE]), labelled(bwd[ROOT_TRIPLE]),
                 len(demands))


def _posetal_structures(p, q, kind):
    if not isinstance(p, ProcessState) or not isinstance(q, ProcessState):
        raise StructuralError(
            f"the {kind.value} relations require the event-structure semantics"
        )
    if p.config or q.config:
        raise StructuralError(
            f"the {kind.value} relations are rooted at the empty configuration"
        )
    return p.structure, q.structure


def ranks(p, q, kind: RelationKind, restriction=None, pre=False) -> Ranks:
    """The rank map of (p, q) under ``kind``'s bisimulation functional.

    With ``pre`` the prebisimulation functional is used instead, limited
    to ``restriction`` (a set of pomsets) when one is given; hp/hhp read
    its singleton pomsets as actions.
    """
    if kind.posetal:
        es1, es2 = _posetal_structures(p, q, kind)
        return _triple_ranks(es1, es2, kind is RelationKind.HHP,
                             restriction, pre)
    return _pair_ranks(p, q, kind is RelationKind.STEP, restriction, pre)


def stable_depth(p, q, kind: RelationKind, restriction=None, r=None) -> int:
    """Rounds until the prebisimulation functional is stable on the whole product.

    Unlike the root's rank this covers pairs unreachable from (p, q).
    An hp/hhp rank map already covers the whole product: a caller that
    holds ``ranks(p, q, kind, restriction, True)`` passes it as ``r``.
    """
    if kind.posetal:
        return (r or ranks(p, q, kind, restriction, True)).depth
    return _pair_ranks(p, q, kind is RelationKind.STEP, restriction, True,
                       everywhere=True).depth
