"""Prime event structures compiled from synchronization trees.

This is the concrete semantic model: configurations, their history
posets, pomset/step/action transitions and the divergence predicate are
all evaluated here.  Structures are immutable after compilation; derived
tables are memoized write-once on the structure (:func:`derived_table`).

A structure has one representation: :class:`EventMasks`, an event's
bit being its position in ``es.events``.  Each event carries its label
and the masks of its causes, its conflicts, the events above it and the
events it causes immediately.  :func:`compile_tree` writes these masks
straight from the tree in one pass; a structure built by hand from sets
converts them once.  The set views ``causes``, ``conflicts`` and
``divergent_configs`` are built only when something reads them (the
history posets and the test oracles).  :func:`_twin_classes` groups
events that a swap maps onto each other, for the posetal product's
symmetry reduction.

:func:`_config_graph` maps each configuration mask to its one-event
extensions, grown from the empty configuration, with each
configuration's enabled events derived from its parent's: adding ``e``
drops ``e`` and its conflicts, and enables the events ``e`` causes
immediately whose causes are then all present and which conflict with
none of them.  :func:`configurations` reads this graph, building each
configuration's event set once, when it is first asked for; the
transition tables and the posetal product read the masks directly.

Every transition system is one table, :class:`Transitions`, built once
per structure and only for the kind that reads it: the configurations
by id in graph order (the empty one is 0), each id's successor ids
grouped by a table-local pomset id, each id's divergence and the list
of distinct pomsets.  The step table takes the conflict-free sets of
each configuration's enabled events; the pomset table lists every
strict extension ``c < d`` of masks and codes each residual ``d ^ c``
from the cause masks once, canonicalizing each residual shape once per
build; the action table, which hp and hhp observe, has one entry per
graph edge, labelled by a singleton pomset.  A tree under the
tree-native semantics gets the same form from its subtrees
(:func:`tree_table`).  ``_engine.table_of`` picks the table of a state
and a kind, and every reader takes the table as it is;
:func:`pomset_transitions`, :func:`step_transitions`,
:func:`action_transitions`, :func:`initials` and :func:`sort` decode a
row to event sets and states only when called, and keep nothing
decoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Dict, FrozenSet, NamedTuple, Tuple

from ._canon_py import _bits
from .pomset import LabelledPoset, Pomset, shape_pomset, singleton, step_of
from .synctree import SyncTree

Config = FrozenSet[int]
EMPTY_CONFIG: Config = frozenset()


class EventMasks(NamedTuple):
    """A structure's events as bitmasks over their positions.

    Entry ``i`` of ``labels``, ``causes``, ``conflicts``, ``above`` and
    ``succ`` describes ``es.events[i]``: its label, and the masks of its
    causes, of the events in conflict with it, of the events it causes
    and of the events it causes immediately (with no event in between).
    ``divergent`` is the set of divergent configurations, as masks.
    """

    labels: tuple
    causes: tuple
    conflicts: tuple
    above: tuple
    succ: tuple
    divergent: frozenset


class PrimeEventStructure:
    """Finite prime event structure with a divergence predicate.

    The structure is held as :class:`EventMasks` alone, an event's bit
    being its position in ``events``.  ``causes[e]`` is the full set of
    strict predecessors of ``e`` (the causality order, transitively
    closed); ``conflicts[e]`` the events in conflict with ``e``
    (symmetric, irreflexive, hereditary).  Divergence is carried as an
    explicit set of configurations so alternative propagation policies
    stay testable.  ``causes``, ``conflicts`` and ``divergent_configs``
    are read-only set views of the masks, built when first read and kept
    in ``derived``; a structure built from sets converts them to masks
    once.

    Identity semantics for equality/hashing: two separately compiled
    structures are distinct states spaces even if isomorphic.  ``tree``
    is the synchronization tree the structure was compiled from
    (:func:`compile_tree` sets it; ``None`` for one built directly).
    """

    __slots__ = ("events", "labels", "_masks", "derived", "tree")

    def __init__(self, events, labels, causes, conflicts, divergent_configs):
        events = tuple(sorted(events))
        bits = {e: 1 << i for i, e in enumerate(events)}

        def mask(group):
            m = 0
            for e in group:
                m |= bits[e]
            return m

        cause = [mask(causes.get(e, ())) for e in events]
        above, succ = [0] * len(events), [0] * len(events)
        for i, m in enumerate(cause):
            bit, direct = 1 << i, m
            for j in _bits(m):
                above[j] |= bit
                direct &= ~cause[j]
            for j in _bits(direct):
                succ[j] |= bit
        labels = dict(labels)
        masks = EventMasks(
            tuple([labels[e] for e in events]), tuple(cause),
            tuple([mask(conflicts.get(e, ())) for e in events]),
            tuple(above), tuple(succ),
            frozenset(map(mask, divergent_configs)))
        self._fill(events, labels, masks)

    @classmethod
    def _of_masks(cls, masks: EventMasks) -> "PrimeEventStructure":
        """The structure on events ``0..n-1`` given by ``masks``."""
        es = object.__new__(cls)
        es._fill(tuple(range(len(masks.labels))), dict(enumerate(masks.labels)),
                 masks)
        return es

    def _fill(self, events, labels, masks):
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "derived", {})
        object.__setattr__(self, "tree", None)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeEventStructure is immutable")

    @property
    def causes(self) -> Dict[int, frozenset]:
        return _cause_sets(self)

    @property
    def conflicts(self) -> Dict[int, frozenset]:
        return _conflict_sets(self)

    @property
    def divergent_configs(self) -> frozenset:
        return _divergent_sets(self)

    def history(self, events: Config) -> LabelledPoset:
        """Causality restricted to ``events``, with labels."""
        causes = self.causes
        return LabelledPoset(
            events,
            ((c, e) for e in events for c in causes[e] if c in events),
            {e: self.labels[e] for e in events},
        )

    def __repr__(self):
        return f"PrimeEventStructure({len(self.events)} events)"


def derived_table(fn):
    """Memoize ``fn(es)`` in ``es.derived``, keyed by ``fn``.

    Only tables of one structure are memoized, so each lives exactly as
    long as the structure it describes.  A product of two structures is
    built per query: kept on one of them, it would live as long as that
    one, and a structure reused across queries would keep every product
    it was ever checked against.
    """

    @wraps(fn)
    def table(es):
        value = es.derived.get(fn)
        if value is None:
            value = es.derived[fn] = fn(es)
        return value

    return table


@dataclass(frozen=True)
class ProcessState:
    """A process: an event structure together with a current configuration."""

    structure: PrimeEventStructure
    config: Config

    def __repr__(self):
        return f"ProcessState({set(self.config) or '{}'})"


def _name_offsets(k: int):
    """Offset of each canonical event ``e{i}`` of a ``k``-event prefix.

    A prefix's events are numbered in the string order of their
    canonical names (``e0, e1, e10, e11, e2, ...``).
    """
    if k <= 10:
        return range(k)
    offsets = [0] * k
    for o, i in enumerate(sorted(range(k), key=str)):
        offsets[i] = o
    return offsets


def compile_tree(t: SyncTree) -> Tuple[PrimeEventStructure, ProcessState]:
    """Compile a synchronization tree into an event structure.

    Each prefix pomset along each path is instantiated with fresh events;
    a prefix causally precedes its entire subtree; distinct summands of a
    node are in (hereditary) conflict cone-against-cone.  A configuration
    is divergent exactly when it is the full event set of a root path
    ending in a node whose divergence flag is set.

    Events are numbered depth first, summand by summand, so the cone of
    every node and of every summand is a contiguous range of positions,
    whose length ``SyncTree.event_count`` gives.  Each event's masks are
    written once, in one walk on an explicit stack (tree depth is not
    bounded by the recursion limit): its causes are those of its node
    plus its prefix-internal causes; a summand's conflict mask is its
    parent summand's plus its node's cone minus its own cone, one int
    shared by every event of the summand; and a prefix's maximal events
    cause immediately the minimal events of the summands below them.
    """
    n = t.event_count
    labels = [""] * n
    causes, conflicts = [0] * n, [0] * n
    above, succ = [0] * n, [0] * n
    divergent = set()
    # frame: node, its first position, the mask of the events below it,
    #        the conflict mask of its summand, the maximal prefix events
    #        above it
    stack = [(t, 0, 0, 0, ())]
    while stack:
        node, start, below, clash, tops = stack.pop()
        if node.divergent:
            divergent.add(below)
        summands = node.summands
        siblings = len(summands) > 1
        if siblings:
            cone = ((1 << node.event_count) - 1) << start
        first = 0  # the minimal events of the node's prefixes
        for pom, child in summands:
            labs, pairs = pom.key
            k = len(labs)
            inner = start + k
            size = k + child.event_count
            if siblings:
                own = clash | cone ^ (((1 << size) - 1) << start)
            else:
                own = clash
            sub = ((1 << child.event_count) - 1) << inner
            conflicts[start:inner] = [own] * k
            offsets = _name_offsets(k)
            for i, lab in enumerate(labs):
                labels[start + offsets[i]] = lab
            if not pairs:
                causes[start:inner] = [below] * k
                above[start:inner] = [sub] * k
                first |= ((1 << k) - 1) << start
                maxima = range(start, inner)
            else:
                low, high = [0] * k, [0] * k
                for a, b in pairs:
                    low[offsets[b]] |= 1 << offsets[a]
                    high[offsets[a]] |= 1 << offsets[b]
                maxima = []
                for o in range(k):
                    e = start + o
                    causes[e] = below | low[o] << start
                    above[e] = sub | high[o] << start
                    if not low[o]:
                        first |= 1 << e
                    if high[o]:
                        direct = high[o]
                        for j in _bits(high[o]):
                            direct &= ~high[j]
                        succ[e] = direct << start
                    else:
                        maxima.append(e)
            stack.append((child, inner, below | ((1 << k) - 1) << start, own,
                          maxima))
            start += size
        for m in tops:
            succ[m] = first
    es = PrimeEventStructure._of_masks(EventMasks(
        tuple(labels), tuple(causes), tuple(conflicts), tuple(above),
        tuple(succ), frozenset(divergent)))
    object.__setattr__(es, "tree", t)
    return es, ProcessState(es, EMPTY_CONFIG)


def compiled(t: SyncTree) -> ProcessState:
    """The root state of a fresh compile of ``t`` (not memoized)."""
    return compile_tree(t)[1]


def _event_masks(es: PrimeEventStructure) -> EventMasks:
    """The per-event masks of ``es``; an event's bit is its position."""
    return es._masks


def _sets_of(es: PrimeEventStructure, masks) -> dict:
    events = es.events
    return {e: frozenset([events[i] for i in _bits(m)])
            for e, m in zip(events, masks)}


@derived_table
def _cause_sets(es: PrimeEventStructure) -> dict:
    return _sets_of(es, es._masks.causes)


@derived_table
def _conflict_sets(es: PrimeEventStructure) -> dict:
    return _sets_of(es, es._masks.conflicts)


@derived_table
def _divergent_sets(es: PrimeEventStructure) -> frozenset:
    events = es.events
    return frozenset(frozenset([events[i] for i in _bits(m)])
                     for m in es._masks.divergent)


@derived_table
def _twin_classes(es: PrimeEventStructure) -> tuple:
    """Each event position's twin class id, or ``()`` when no swap applies.

    Twins share a label, a cause mask, a conflict mask and an above
    mask, so swapping two of them maps labels, causality and conflict
    onto themselves; class ids count from 0 in order of first position.
    The table is empty when no class has two members, or when swapping
    some twin pair moves a divergent configuration out of the divergent
    set: a structure built by hand can do that, a compiled tree cannot
    (its twins lie in one prefix, which a divergent configuration holds
    whole or not at all).  Swaps of each class's first member with each
    other member generate every permutation within classes, so checking
    them checks all.
    """
    labels, causes, conflicts, above, _, divergent = es._masks
    ids, classes, first = {}, [], []
    for i, twin in enumerate(zip(labels, causes, conflicts, above)):
        k = ids.setdefault(twin, len(ids))
        if k == len(first):
            first.append(i)
        classes.append(k)
    if len(ids) == len(classes):
        return ()
    for i, k in enumerate(classes):
        if i == first[k]:
            continue
        swap = 1 << first[k] | 1 << i
        for m in divergent:
            if m & swap not in (0, swap) and m ^ swap not in divergent:
                return ()
    return tuple(classes)


@derived_table
def _config_graph(es: PrimeEventStructure) -> dict:
    """Configuration mask -> ``((label, event position, target mask), ...)``.

    Grown from mask 0; each row lists the configuration's enabled events
    in ascending order.  A configuration's enabled events are derived
    from those of the configuration it was first reached from: adding
    ``e`` drops ``e`` and the events in conflict with it, and enables
    each event that ``e`` causes immediately whose causes are now all
    present and which conflicts with none of them.  No other event can
    become enabled: one that was not enabled before still misses a cause
    or still conflicts with the configuration; and an event above ``e``
    that ``e`` does not cause immediately still misses the events in
    between, which lie above ``e`` too.
    """
    labels, causes, conflicts, _, succ, _ = _event_masks(es)
    first = 0
    for i, m in enumerate(causes):
        if not m:
            first |= 1 << i
    enabled = {0: first}
    graph = {}
    stack = [0]
    while stack:
        c = stack.pop()
        here = enabled[c]
        edges = []
        rest = here
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            d = c | bit
            if d not in enabled:
                nxt = here & ~(bit | conflicts[i])
                up = succ[i]
                while up:
                    x = up & -up
                    up ^= x
                    j = x.bit_length() - 1
                    if not causes[j] & ~d and not conflicts[j] & d:
                        nxt |= x
                enabled[d] = nxt
                stack.append(d)
            edges.append((labels[i], i, d))
        graph[c] = tuple(edges)
    return graph


@derived_table
def _config_sets(es: PrimeEventStructure) -> dict:
    """Configuration mask -> its event set, each built once from its parent's."""
    events = es.events
    sets = {0: EMPTY_CONFIG}
    for c, edges in _config_graph(es).items():  # parents come first
        cset = sets[c]
        for _, i, d in edges:
            if d not in sets:
                sets[d] = cset | {events[i]}
    return sets


@derived_table
def configurations(es: PrimeEventStructure) -> frozenset:
    """All conflict-free, causally downward-closed finite event sets."""
    return frozenset(_config_sets(es).values())


def _residual_pomset(r: int, labels, causes, shapes) -> Pomset:
    """The pomset of the events of mask ``r``, ordered by causality.

    The residual is coded by its shape: its labels and the masks of the
    events below each, indexed in event order and read from the cause
    masks, which are already transitively closed.  ``shapes`` maps each
    shape met so far to its pomset, so a shape is canonicalized once.
    """
    positions = _bits(r)
    labs = tuple([labels[i] for i in positions])
    below = [causes[i] & r for i in positions]
    if any(below):
        local = {i: 1 << k for k, i in enumerate(positions)}
        below = tuple([sum([local[i] for i in _bits(m)]) for m in below])
    else:
        below = ()
    shape = (labs, below)
    u = shapes.get(shape)
    if u is None:
        u = shapes[shape] = shape_pomset(labs, below)
    return u


class Transitions(NamedTuple):
    """One transition system's table, its states numbered from 0.

    ``states[x]`` is state ``x``: a configuration mask in graph order,
    or a subtree under the tree-native semantics; the root is state 0
    and ``index`` maps each state to its id.  ``rows[x]`` maps each
    table-local pomset id to the ids of the states that ``x`` reaches by
    that pomset, ``divergent[x]`` is state ``x``'s divergence,
    ``pomsets`` lists the distinct pomsets by id and ``pomset_ids``
    maps each of them to its id.
    """

    states: tuple
    index: dict
    rows: tuple
    divergent: tuple
    pomsets: tuple
    pomset_ids: dict


def _graph_states(es: PrimeEventStructure):
    """The configuration masks in graph order, their ids and divergence."""
    configs = tuple(_config_graph(es))
    div = _event_masks(es).divergent
    return (configs, {c: x for x, c in enumerate(configs)},
            tuple([c in div for c in configs]))


@derived_table
def _pomset_table(es: PrimeEventStructure) -> Transitions:
    """The pomset transitions: every strict extension ``c < d`` of masks.

    A residual's pomset depends on its event set ``d ^ c`` alone, so it
    is computed, and given its pomset id, once per residual mask
    (:func:`_residual_pomset`).
    """
    labels, causes = _event_masks(es)[:2]
    configs, index, divergent = _graph_states(es)
    pids, residuals, shapes = {}, {}, {}
    rows = []
    for c in configs:
        row = {}
        for y, d in enumerate(configs):
            if d & c == c and d != c:
                r = d ^ c
                u = residuals.get(r)
                if u is None:
                    pom = _residual_pomset(r, labels, causes, shapes)
                    u = residuals[r] = pids.setdefault(pom, len(pids))
                ys = row.get(u)
                if ys is None:
                    row[u] = [y]
                else:
                    ys.append(y)
        rows.append(row)
    return Transitions(configs, index, tuple(rows), divergent, tuple(pids),
                       pids)


@derived_table
def _step_table(es: PrimeEventStructure) -> Transitions:
    """The step transitions: every step extension of each configuration.

    Events enabled at ``c`` are pairwise causally unrelated, so each
    nonempty conflict-free set of them is the residual of exactly one
    extension of ``c`` with an empty residual order, and every such
    extension arises this way.  The enabled events are read off the
    configuration graph; the pomset table is not built.
    """
    conflicts = _event_masks(es).conflicts
    configs, index, divergent = _graph_states(es)
    pids, steps = {}, {}
    rows = []
    for c, edges in _config_graph(es).items():
        subsets = [(0, ())]
        for lab, i, _ in edges:
            bit, clash = 1 << i, conflicts[i]
            subsets += [(m | bit, labs + (lab,)) for m, labs in subsets
                        if not m & clash]
        row = {}
        for m, labs in subsets[1:]:
            u = steps.get(labs)  # keyed by labels in event order; step_of sorts
            if u is None:
                u = steps[labs] = pids.setdefault(step_of(labs), len(pids))
            ys = row.get(u)
            if ys is None:
                row[u] = [index[c | m]]
            else:
                ys.append(index[c | m])
        rows.append(row)
    return Transitions(configs, index, tuple(rows), divergent, tuple(pids),
                       pids)


@derived_table
def action_table(es: PrimeEventStructure) -> Transitions:
    """The action transitions: one entry per configuration graph edge.

    Each edge is labelled by the singleton pomset of its event's label;
    hp and hhp observe these transitions alone.
    """
    configs, index, divergent = _graph_states(es)
    pids = {}
    rows = []
    for edges in _config_graph(es).values():
        row = {}
        for lab, _, d in edges:
            row.setdefault(pids.setdefault(singleton(lab), len(pids)),
                           []).append(index[d])
        rows.append(row)
    return Transitions(configs, index, tuple(rows), divergent, tuple(pids),
                       pids)


def tree_table(t: SyncTree, step_only: bool) -> Transitions:
    """The tree-native table of ``t``: its distinct subtrees, ``t`` first.

    A subtree's transitions are its summands, a repeated summand once;
    with ``step_only`` those with a step prefix.  Every subtree is a
    state, whatever its prefix.  Built on each call: trees carry no
    derived tables.
    """
    states, index = [t], {t: 0}
    pids = {}
    rows = []
    for s in states:  # grows while it is read
        row = {}
        for u, child in s.summands:
            y = index.get(child)
            if y is None:
                y = index[child] = len(states)
                states.append(child)
            if step_only and not u.is_step():
                continue
            ys = row.setdefault(pids.setdefault(u, len(pids)), [])
            if y not in ys:  # a repeated summand
                ys.append(y)
        rows.append(row)
    return Transitions(tuple(states), index, tuple(rows),
                       tuple([s.divergent for s in states]), tuple(pids), pids)


@derived_table
def _event_bits(es: PrimeEventStructure) -> dict:
    return {e: 1 << i for i, e in enumerate(es.events)}


def config_mask(s: ProcessState) -> int:
    """The mask of ``s``'s configuration."""
    if not s.config:
        return 0
    bits = _event_bits(s.structure)
    m = 0
    for e in s.config:
        m |= bits[e]
    return m


def _decoded(s: ProcessState, table: Transitions, row) -> frozenset:
    """The ``(Pomset, ProcessState)`` transitions of one row of ``table``."""
    es = s.structure
    events, states, pomsets = es.events, table.states, table.pomsets
    return frozenset(
        (pomsets[u],
         ProcessState(es, frozenset([events[i]
                                     for i in _bits(states[y])])))
        for u, ys in row.items() for y in ys
    )


def _row(s: ProcessState, build):
    """The table ``build`` makes of ``s``'s structure, and ``s``'s row."""
    table = build(s.structure)
    return table, table.rows[table.index[config_mask(s)]]


def pomset_transitions(s: ProcessState) -> frozenset:
    """All pomset-labelled transitions from ``s`` (configuration extensions)."""
    return _decoded(s, *_row(s, _pomset_table))


def step_transitions(s: ProcessState) -> frozenset:
    """Pomset transitions whose label is a step (empty order).

    Decoded from the step table; the pomset table is not built.
    """
    return _decoded(s, *_row(s, _step_table))


def action_transitions(s: ProcessState) -> frozenset:
    """Single-action transitions, labelled by the added event's label.

    Decoded from ``s``'s row of the action table.
    """
    return frozenset((u.label_multiset()[0], s2)
                     for u, s2 in _decoded(s, *_row(s, action_table)))


def divergent(s: ProcessState) -> bool:
    """Divergence predicate on the current configuration."""
    return config_mask(s) in _event_masks(s.structure).divergent


def initials(s: ProcessState) -> frozenset:
    """Pomsets labelling some transition from ``s``."""
    table, row = _row(s, _pomset_table)
    return frozenset([table.pomsets[u] for u in row])


def sort(s: ProcessState) -> frozenset:
    """Pomsets labelling any transition reachable from ``s``.

    Configurations only grow, so every configuration extending ``s``'s is
    reachable in one step; the sort is the union of initials over all
    extending configurations.
    """
    table = _pomset_table(s.structure)
    c = config_mask(s)
    acc = set()
    for d, row in zip(table.states, table.rows):
        if d & c == c:
            acc.update(row)
    return frozenset([table.pomsets[u] for u in acc])
