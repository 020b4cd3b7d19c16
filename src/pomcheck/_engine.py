"""The one fixpoint engine behind every relation and approximant level.

Every relation is the greatest fixpoint of one functional over a
product: state pairs for the pomset/step kinds, posetal triples
``(C, f, D)`` (``f`` an isomorphism of history posets) for hp/hhp.
Starting from the whole product, the engine removes in synchronous
Kleene rounds the nodes the functional rejects, and records the round
in which each node drops out.  Each candidate group counts its live
candidates, so a round touches only the groups that list a node just
removed (Paige and Tarjan 1987).  That round is the node's level: the
node lies in the level-n approximant exactly when it has no rank or a
rank above n.  :func:`ranks` computes this rank map afresh on each
call; verdicts, approximant levels and witnesses are all read from it.

Bisimulation and prebisimulation share the functional (:func:`demand`)
and differ in one guard: prebisimulation asks for back-transfer and
convergence only from convergent left states, and under a restriction
set only when every initial pomset of the left state is in the set.

:func:`table_of` maps a state and a kind to the one transition table
the kind reads (pomset, step, or single actions for hp/hhp), built once
per structure and kind: states are ints in configuration graph order,
each state's successors are grouped by a table-local pomset id, and
the table lists its distinct pomsets.  A tree under the tree-native
semantics gets the same table from its subtrees, built per query.
For the pomset/step kinds each side of a query is read from its table,
and the query maps the left table's pomset ids to the right table's
once and explores only the matched-label pair product reachable from
the root pair; it builds no configuration event set and no state
object.  A caller whose restriction would hold every transition label
of both sides passes none.
The hp/hhp kinds run the same rounds over the posetal product, grown
from the root triple in one pass over each structure's configuration
graph, with configurations as bitmasks and each isomorphism packed into
an int, and built afresh by each query that reads it; hp runs over the
product quotiented by relevant events.

No query reads :func:`successors`, :func:`pair_space` or the
triple-keyed tables of :func:`triple_space`, :func:`triple_transitions`
and :func:`sub_triples`, each of which builds the int product and
decodes it; the benchmark's traced replay calls them layer by layer,
and the test oracles read them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from . import estructure as es_mod
from . import synctree as st_mod
from .errors import StructuralError
from .estructure import PrimeEventStructure, ProcessState
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


def pair_space(p, q) -> frozenset:
    """Every pair of a state of ``p``'s system and a state of ``q``'s."""

    def states(s):
        if isinstance(s, SyncTree):
            return st_mod.subtrees(s)
        return [ProcessState(s.structure, c)
                for c in es_mod.configurations(s.structure)]

    ys = states(q)
    return frozenset((x, y) for x in states(p) for y in ys)


def table_of(state, kind: RelationKind):
    """The transition table ``kind`` reads of ``state``'s system, and
    ``state``'s id in it.

    The pomset kind reads pomset transitions, the step kind step
    transitions and hp/hhp single actions, each from its own table.  A
    structure's table is built once and kept on it; a tree's is built
    from its subtrees on each call, and hp/hhp have none.
    """
    if isinstance(state, SyncTree):
        if kind.posetal:
            raise _needs_structures(kind)
        return es_mod.tree_table(state, kind is RelationKind.STEP), 0
    if kind.posetal:
        build = es_mod.action_table
    elif kind is RelationKind.STEP:
        build = es_mod._step_table
    else:
        build = es_mod._pomset_table
    table = build(state.structure)
    return table, table.index[es_mod.config_mask(state)]


# ---------------------------------------------------------------------------
# posetal triples
# ---------------------------------------------------------------------------


def _relevant(above, c: int) -> int:
    """The events of configuration ``c`` that cause some event outside it.

    ``c`` and the result are masks; ``above`` is the structure's
    :attr:`~pomcheck.estructure.EventMasks.above`.
    """
    out, rest = 0, c
    while rest:
        bit = rest & -rest
        rest ^= bit
        if above[bit.bit_length() - 1] & ~c:
            out |= bit
    return out


class _Relevance(dict):
    """Configuration mask -> its relevant events, computed when first read."""

    __slots__ = ("above",)

    def __init__(self, above):
        super().__init__()
        self.above = above

    def __missing__(self, c):
        r = self[c] = _relevant(self.above, c)
        return r


def _slot_width(es2: PrimeEventStructure) -> int:
    """Bits per slot of a packed isomorphism into ``es2``."""
    return len(es2.events).bit_length()


def _posetal_product(es1: PrimeEventStructure, es2: PrimeEventStructure,
                     hereditary: bool):
    """The posetal product grown from the root triple in one pass.

    Built on each call; the caller reads it and lets it go.

    Returns ``(nodes, fwd, bwd)``, indexed by node; node 0 is the root,
    and nodes are numbered in the order the pass meets them.
    ``nodes[n]`` is ``(C, iso, D)``: C and D are configuration masks of
    the two structures' configuration graphs, and ``iso`` packs the
    isomorphism into an int, one slot per event position of the left
    structure holding the position of its image in the right structure
    plus one, so interning a node hashes three ints.  ``fwd[n]`` lists,
    for each action extension of C, its label and the nodes that match
    it, as the ``(labels, groups)`` pair that :func:`demand` reads (the
    labels are shared by every node at C); ``bwd[n]`` does the same for
    the extensions of D.
    Events enabled at C or D cause nothing inside them, so ``(C, f, D)``
    extends by an equally labelled pair ``(e, g)`` of enabled events
    exactly when ``f`` maps the causes of ``e`` onto the causes of
    ``g``.  Each D's enabled events are bucketed once per pass by label
    and cause mask, read from the right structure's masks, and each
    extension of C is the mask of its causes' images, read from the
    slots of ``iso``, and one lookup.  Every triple is reached, because
    removing a maximal pair of a triple leaves a triple; the extensions
    into a triple are exactly its maximal pairs, so the nodes whose
    forward candidates list a node are its immediate sub-triples.

    With ``hereditary`` false (hp) a node is ``(C, f, D)`` with ``f``
    restricted to the pairs with a relevant side, an event of C (or D)
    being relevant when some event outside it lies above it.  Enabled
    events have only relevant causes, and relevance only shrinks as
    configurations grow, so every full triple has the demand of its
    node: ranks, levels and witnesses are those of the full product.
    Each extension drops from ``f`` the pairs with no relevant side in
    its target, looking only at the pairs whose left event is no longer
    relevant (each node keeps the mask of its pairs' left events for
    this).
    Relevance is computed once per configuration met.  hhp keeps full
    triples, whose sub-triples its closure reads.
    """
    graph1 = es_mod._config_graph(es1)
    graph2 = es_mod._config_graph(es2)
    masks1, masks2 = es_mod._event_masks(es1), es_mod._event_masks(es2)
    causes2 = masks2.causes
    width = _slot_width(es2)
    full = (1 << width) - 1
    # the slot offsets of each left event's causes
    cause_slots = []
    for m in masks1.causes:
        slots = []
        while m:
            bit = m & -m
            m ^= bit
            slots.append(width * (bit.bit_length() - 1))
        cause_slots.append(tuple(slots))
    if not hereditary:
        rel1, rel2 = _Relevance(masks1.above), _Relevance(masks2.above)
    root = (0, 0, 0)
    nodes, doms, fwd, bwd = [root], [0], [], []
    index = {root: 0}
    rows_at, buckets_at = {}, {}
    for c, f, d in nodes:  # grows while it is read: one pass, breadth first
        dom = doms[len(fwd)]
        at_c = rows_at.get(c)
        if at_c is None:  # C's extensions, once per pass
            at_c = rows_at[c] = [
                (lab, 1 << i, width * i, cause_slots[i], c2)
                for lab, i, c2 in graph1[c]
            ], tuple([lab for lab, _, _ in graph1[c]])
        rows, labels1 = at_c
        at_d = buckets_at.get(d)
        if at_d is None:  # D's extensions by label and cause mask, once
            edges = graph2[d]
            buckets = {}
            for k, (lab, j, d2) in enumerate(edges):
                buckets.setdefault((lab, causes2[j]), []).append(
                    (k, j + 1, d2))
            at_d = buckets_at[d] = buckets, tuple([lab for lab, _, _ in edges])
        buckets, labels2 = at_d
        back = [[] for _ in labels2]
        groups = []
        for lab, bit, at, slots, c2 in rows:
            m = 0
            for s in slots:  # the images of e's causes
                m |= 1 << ((f >> s & full) - 1)
            cands = []
            for k, s, d2 in buckets.get((lab, m), ()):
                f2, dom2 = f | s << at, dom | bit
                if not hereditary:
                    r2 = rel2[d2]
                    gone = dom2 & ~rel1[c2]
                    while gone:
                        x = gone & -gone
                        gone ^= x
                        a = width * (x.bit_length() - 1)
                        b = f2 >> a & full
                        if not r2 >> (b - 1) & 1:
                            f2 -= b << a
                            dom2 ^= x
                key = (c2, f2, d2)
                t = index.get(key)
                if t is None:
                    t = index[key] = len(nodes)
                    nodes.append(key)
                    doms.append(dom2)
                cands.append(t)
                back[k].append(t)
            groups.append(tuple(cands))
        fwd.append((labels1, tuple(groups)))
        bwd.append((labels2, tuple(map(tuple, back))))
    return nodes, fwd, bwd


def _triple_tables(es1: PrimeEventStructure, es2: PrimeEventStructure):
    """The full product keyed by triples: ``(fwd, bwd, subs)``.

    Masks and slots are decoded back to event sets and event pairs.
    """
    nodes, fwd, bwd = _posetal_product(es1, es2, True)
    sets1, sets2 = es_mod._config_sets(es1), es_mod._config_sets(es2)
    events1, events2 = es1.events, es2.events
    width = _slot_width(es2)
    full = (1 << width) - 1
    triples = []
    for c, f, d in nodes:
        pairs, rest = [], c
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            pairs.append((events1[i], events2[(f >> width * i & full) - 1]))
        triples.append((sets1[c], frozenset(pairs), sets2[d]))

    def keyed(table):
        return {t: tuple((lab, tuple([triples[x] for x in cands]))
                         for lab, cands in zip(*obligations))
                for t, obligations in zip(triples, table)}

    subs = {t: [] for t in triples}
    for t, (_, groups) in zip(triples, fwd):
        for cands in groups:
            for x in cands:
                subs[triples[x]].append(t)
    return keyed(fwd), keyed(bwd), subs


def triple_space(es1: PrimeEventStructure, es2: PrimeEventStructure) -> frozenset:
    """The posetal product of the two structures' configuration spaces."""
    return frozenset(_triple_tables(es1, es2)[0])


def sub_triples(es1: PrimeEventStructure, es2: PrimeEventStructure):
    """Immediate pointwise-sub-triple table for downward-closure pruning.

    Removing one pair (e, f(e)) with e maximal in C keeps us inside the
    posetal product (isomorphisms preserve maximality), and iterating
    one-pair removals reaches every pointwise-smaller triple.
    """
    return {t: tuple(s) for t, s in _triple_tables(es1, es2)[2].items()}


def triple_transitions(es1: PrimeEventStructure, es2: PrimeEventStructure):
    """Per-triple action-transfer candidate tables.

    For each triple T = (C, f, D) and each single-event extension
    C -a-> C', the table lists the triples (C', f[e -> e'], D') in the
    posetal product with D -a-> D' matching the same action; and the
    symmetric table for extensions of D.
    """
    fwd, bwd, _ = _triple_tables(es1, es2)
    return fwd, bwd


# ---------------------------------------------------------------------------
# the functional
# ---------------------------------------------------------------------------


def demand(fwd, bwd, left_div, right_div, restriction, pre):
    """What the functional asks of one node, whatever the relation.

    ``fwd`` and ``bwd`` list the node's transfer obligations as a pair
    ``(labels, groups)`` of parallel sequences: one obligation per
    transition of the left (right) state, its label and the candidate
    nodes that would match it.  The result is the candidate groups that
    must each keep a member in the relation, or ``None`` when the node
    fails outright.  Bisimulation (``pre`` false) asks for both
    directions.  Prebisimulation asks for the backward direction, a
    convergent right state and right initials inside ``restriction``
    only when the left state converges and its initials lie inside
    ``restriction``.  A restriction (``None`` for none) drops the
    obligations labelled outside it; without one the labels are not read
    and the groups are not copied.
    """

    def allowed(obligations):
        labels, groups = obligations
        if restriction is None:
            return groups
        return [cands for lab, cands in zip(labels, groups)
                if lab in restriction]

    groups = allowed(fwd)
    if pre:
        if left_div or len(groups) < len(fwd[1]):
            return groups
        back = allowed(bwd)
        return None if right_div or len(back) < len(bwd[1]) else groups + back
    return groups + allowed(bwd)


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


def _rounds(demands, extensions=None) -> dict:
    """Remove nodes in synchronous Kleene rounds; return their ranks.

    ``demands`` maps every node to its :func:`demand`.  Each candidate
    group counts its live candidates, once per listing (Paige and Tarjan
    1987): a removed node decrements every group that lists it, and a
    group that reaches 0 puts its owner in the next round, so the total
    work is linear in the listings.  With ``extensions`` (hhp: each
    node's forward obligations, whose candidates are exactly the nodes
    it is an immediate sub-node of) a node is removed in the same round
    as any of its immediate sub-nodes, so every level stays downward
    closed.  When round 1 removes nothing, no round does, and the
    counters are not built.
    """
    out = [n for n, groups in demands.items()
           if groups is None or not all(groups)]
    if not out:
        return {}
    owner, live = [], []
    listed = {n: [] for n in demands}  # node -> the groups listing it
    for n, groups in demands.items():
        if groups is None or not all(groups):  # in ``out``
            continue
        for cands in groups:
            group = len(live)
            owner.append(n)
            live.append(len(cands))
            for c in cands:
                listed[c].append(group)
    alive = set(demands)
    rank = {}
    level = 0
    while out:
        level += 1
        alive.difference_update(out)
        if extensions is not None:
            stack = list(out)
            while stack:
                for _, cands in extensions[stack.pop()]:
                    for s in cands:
                        if s in alive:
                            alive.discard(s)
                            out.append(s)
                            stack.append(s)
        emptied = []
        for n in out:
            rank[n] = level
            for group in listed[n]:
                live[group] -= 1
                if not live[group]:
                    emptied.append(owner[group])
        out = [m for m in dict.fromkeys(emptied) if m in alive]
    return rank


def _pair_ranks(p, q, kind, restriction, pre, everywhere=False) -> Ranks:
    """Rounds over the matched-label pair product reachable from (p, q).

    Both sides are read from their transition tables
    (:func:`table_of`); the left table's pomset ids are mapped once to
    the right table's, a pomset of the left side alone getting an id
    past them.  A pair ``(x, y)`` of state ids is keyed by ``x * ny + y``.
    For each label the pair's successors form a matrix, one row per
    ``x``-successor and one column per ``y``-successor: the rows are
    its forward obligations and the columns its backward ones.  With
    ``everywhere`` the whole pair product is explored instead.
    """
    tx, xr = table_of(p, kind)
    ty, yr = table_of(q, kind)
    pomsets, right_ids = list(ty.pomsets), ty.pomset_ids
    common = []  # left pomset id -> its id among ``pomsets``
    for u in tx.pomsets:
        v = right_ids.get(u)
        if v is None:
            v = len(pomsets)
            pomsets.append(u)
        common.append(v)
    if restriction is not None:
        restriction = {v for v, u in enumerate(pomsets) if u in restriction}
    gx, dx, gy, dy = tx.rows, tx.divergent, ty.rows, ty.divergent
    ny = len(gy)
    if everywhere:
        pairs = list(range(len(gx) * ny))
    else:
        pairs = [xr * ny + yr]
    index = {xy: i for i, xy in enumerate(pairs)}
    root = index[xr * ny + yr]
    demands = {}
    for i, xy in enumerate(pairs):  # grows while it is read
        x, y = divmod(xy, ny)
        here = gy[y]
        matrices = {}
        flabs, fwd, blabs, bwd = [], [], [], []
        for u, xs in gx[x].items():
            u = common[u]
            ys = here.get(u, ())
            rows = []
            for x2 in xs:
                row = []
                base = x2 * ny
                for y2 in ys:
                    key = base + y2
                    n = index.get(key)
                    if n is None:
                        n = index[key] = len(pairs)
                        pairs.append(key)
                    row.append(n)
                rows.append(row)
            matrices[u] = rows
            fwd += rows
            flabs += [u] * len(rows)
        for v, ys in here.items():
            rows = matrices.get(v)
            bwd += zip(*rows) if rows else [()] * len(ys)
            blabs += [v] * len(ys)
        demands[i] = demand((flabs, fwd), (blabs, bwd), dx[x], dy[y],
                            restriction, pre)
        if i == root:
            root_fwd, root_bwd = zip(flabs, fwd), zip(blabs, bwd)

    def labelled(obligations):
        out = [(pomsets[u], tuple(cands)) for u, cands in obligations]
        return tuple(sorted(out, key=lambda o: o[0].sort_key))

    return Ranks(_rounds(demands), root, labelled(root_fwd),
                 labelled(root_bwd), len(pairs))


def _triple_ranks(es1, es2, hereditary, restriction, pre) -> Ranks:
    """Rounds over the posetal product of the two structures.

    hp runs over the product quotiented by relevant events, hhp over the
    full product.
    """
    acts = None
    if restriction is not None:
        acts = {u.label_multiset()[0] for u in restriction if len(u) == 1}
    nodes, fwd, bwd = _posetal_product(es1, es2, hereditary)
    div1 = es_mod._event_masks(es1).divergent
    div2 = es_mod._event_masks(es2).divergent
    demands = {
        n: demand(fw, bw, c in div1, d in div2, acts, pre)
        for n, ((c, _, d), fw, bw) in enumerate(zip(nodes, fwd, bwd))
    }
    extensions = None
    if hereditary:
        extensions = [tuple(zip(*obligations)) for obligations in fwd]

    def labelled(obligations):
        return tuple((singleton(lab), cands)
                     for lab, cands in zip(*obligations))

    return Ranks(_rounds(demands, extensions), 0,
                 labelled(fwd[0]), labelled(bwd[0]), len(demands))


def _needs_structures(kind) -> StructuralError:
    return StructuralError(
        f"the {kind.value} relations require the event-structure semantics")


def _posetal_structures(p, q, kind):
    if not isinstance(p, ProcessState) or not isinstance(q, ProcessState):
        raise _needs_structures(kind)
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
    return _pair_ranks(p, q, kind, restriction, pre)


def stable_depth(p, q, kind: RelationKind, r=None) -> int:
    """Rounds until the prebisimulation functional is stable on the whole product.

    Unlike the root's rank this covers pairs unreachable from (p, q).
    An hp/hhp rank map already covers the whole product: a caller that
    has ``ranks(p, q, kind, None, True)`` passes it as ``r``.
    """
    if kind.posetal:
        return (r or ranks(p, q, kind, None, True)).depth
    return _pair_ranks(p, q, kind, None, True, everywhere=True).depth
