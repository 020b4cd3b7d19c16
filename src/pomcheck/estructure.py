"""Prime event structures compiled from synchronization trees.

This is the concrete semantic model: configurations, their history
posets, pomset/step/action transitions and the divergence predicate are
all evaluated here.  Structures are immutable after compilation; derived
tables are memoized write-once on the structure (:func:`derived_table`).

Configurations are grown once per structure as bitmasks, an event's bit
being its position in ``es.events``.  :func:`_event_masks` holds each
event's label and its cause, conflict and "above" masks;
:func:`_config_graph` maps each configuration mask to its one-event
extensions, grown from the empty configuration, with each
configuration's enabled events derived from its parent's: adding ``e``
drops ``e`` and its conflicts, and enables the events above ``e`` whose
causes are then all present and which conflict with none of them.
:func:`configurations` and the action and step tables read this graph,
building each configuration's event set once, when one of them is first
asked for; the posetal product reads the masks directly.

Each kind builds only the transition table it reads.  The step table
takes the conflict-free sets of each configuration's enabled events; the
pomset table lists every strict extension and canonicalizes each
residual shape once per build; the action table is the graph's edges.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import wraps
from typing import Dict, FrozenSet, NamedTuple, Tuple

from .pomset import LabelledPoset, Pomset, shape_pomset, step_of
from .synctree import SyncTree

Config = FrozenSet[int]
EMPTY_CONFIG: Config = frozenset()


class PrimeEventStructure:
    """Finite prime event structure with a divergence predicate.

    ``causes[e]`` is the full set of strict predecessors of ``e`` (the
    causality order, transitively closed); ``conflicts[e]`` the events in
    conflict with ``e`` (symmetric, irreflexive, hereditary).  Divergence
    is carried as an explicit set of configurations so alternative
    propagation policies stay testable.

    Identity semantics for equality/hashing: two separately compiled
    structures are distinct states spaces even if isomorphic.  ``tree``
    is the synchronization tree the structure was compiled from
    (:func:`compile_tree` sets it; ``None`` for one built directly).
    """

    __slots__ = ("events", "labels", "causes", "conflicts",
                 "divergent_configs", "derived", "tree", "__weakref__")

    def __init__(self, events, labels, causes, conflicts, divergent_configs):
        object.__setattr__(self, "events", tuple(sorted(events)))
        object.__setattr__(self, "labels", dict(labels))
        object.__setattr__(
            self, "causes", {e: frozenset(causes.get(e, ())) for e in events}
        )
        object.__setattr__(
            self, "conflicts", {e: frozenset(conflicts.get(e, ())) for e in events}
        )
        object.__setattr__(self, "divergent_configs", frozenset(divergent_configs))
        object.__setattr__(self, "derived", {})
        object.__setattr__(self, "tree", None)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeEventStructure is immutable")

    def history(self, events: Config) -> LabelledPoset:
        """Causality restricted to ``events``, with labels."""
        return LabelledPoset(
            events,
            ((c, e) for e in events for c in self.causes[e] if c in events),
            {e: self.labels[e] for e in events},
        )

    def __repr__(self):
        return f"PrimeEventStructure({len(self.events)} events)"


def _key_part(a):
    return weakref.ref(a) if isinstance(a, PrimeEventStructure) else a


def derived_table(fn):
    """Memoize ``fn(es, *args)`` in ``es.derived``; ``args`` join the key.

    A structure argument joins the key as a weak reference, so a table of
    two structures makes no reference cycle between them: each dies when
    its last reference goes.  A table keyed by a structure that died
    stays until ``es`` dies.
    """

    @wraps(fn)
    def table(es, *args):
        key = (fn, *map(_key_part, args))
        value = es.derived.get(key)
        if value is None:
            value = es.derived[key] = fn(es, *args)
        return value

    return table


@dataclass(frozen=True)
class ProcessState:
    """A process: an event structure together with a current configuration."""

    structure: PrimeEventStructure
    config: Config

    def __repr__(self):
        return f"ProcessState({set(self.config) or '{}'})"


def compile_tree(t: SyncTree) -> Tuple[PrimeEventStructure, ProcessState]:
    """Compile a synchronization tree into an event structure.

    Each prefix pomset along each path is instantiated with fresh events;
    a prefix causally precedes its entire subtree; distinct summands of a
    node are in (hereditary) conflict cone-against-cone.  A configuration
    is divergent exactly when it is the full event set of a root path
    ending in a node whose divergence flag is set.  Events are numbered
    depth first, summand by summand; the walk keeps an explicit stack, so
    tree depth is not bounded by the recursion limit.
    """
    labels: Dict[int, str] = {}
    causes: Dict[int, set] = {}
    conflicts: Dict[int, set] = {}
    divergent = set()
    counter = 0
    # frame: [node, its ancestor events, finished summand cones,
    #         prefix events of the summand being built (or None)]
    stack = [[t, EMPTY_CONFIG, [], None]]
    if t.divergent:
        divergent.add(EMPTY_CONFIG)
    done = EMPTY_CONFIG  # the cone of the frame popped last
    while stack:
        frame = stack[-1]
        node, ancestors, cones, pending = frame
        if pending is not None:
            cones.append(pending | done)
            frame[3] = None
        if len(cones) < len(node.summands):
            pom, child = node.summands[len(cones)]
            lp = pom.canon
            fresh = {}
            for name in sorted(lp.events):
                fresh[name] = counter
                labels[counter] = lp.label(name)
                causes[counter] = set(ancestors)
                conflicts[counter] = set()
                counter += 1
            for a, b in lp.order:
                causes[fresh[b]].add(fresh[a])
            prefix_events = frame[3] = frozenset(fresh.values())
            inner = ancestors | prefix_events
            if child.divergent:
                divergent.add(inner)
            stack.append([child, inner, [], None])
            continue
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                for e in cones[i]:
                    for f in cones[j]:
                        conflicts[e].add(f)
                        conflicts[f].add(e)
        done = frozenset().union(*cones)
        stack.pop()
    es = PrimeEventStructure(range(counter), labels, causes, conflicts, divergent)
    object.__setattr__(es, "tree", t)
    return es, ProcessState(es, EMPTY_CONFIG)


def compiled(t: SyncTree) -> ProcessState:
    """The root state of a fresh compile of ``t`` (not memoized)."""
    return compile_tree(t)[1]


class EventMasks(NamedTuple):
    """A structure's events as bitmasks over their positions.

    Entry ``i`` of ``labels``, ``causes``, ``conflicts`` and ``above``
    describes ``es.events[i]``: its label, and the masks of its causes,
    of the events in conflict with it and of the events it causes.
    ``divergent`` holds the divergent configurations as masks.
    """

    labels: tuple
    causes: tuple
    conflicts: tuple
    above: tuple
    divergent: frozenset


@derived_table
def _event_masks(es: PrimeEventStructure) -> EventMasks:
    """The per-event masks of ``es``; an event's bit is its position."""
    events = es.events
    bits = {e: 1 << i for i, e in enumerate(events)}
    above = dict.fromkeys(events, 0)
    causes, conflicts = [], []
    for e in events:
        b = bits[e]
        m = 0
        for a in es.causes[e]:
            m |= bits[a]
            above[a] |= b
        causes.append(m)
        m = 0
        for x in es.conflicts[e]:
            m |= bits[x]
        conflicts.append(m)
    divergent = []
    for c in es.divergent_configs:
        m = 0
        for e in c:
            m |= bits[e]
        divergent.append(m)
    return EventMasks(tuple([es.labels[e] for e in events]), tuple(causes),
                      tuple(conflicts), tuple(above.values()),
                      frozenset(divergent))


@derived_table
def _config_graph(es: PrimeEventStructure) -> dict:
    """Configuration mask -> ``((label, event position, target mask), ...)``.

    Grown from mask 0; each row lists the configuration's enabled events
    in ascending order.  A configuration's enabled events are derived
    from those of the configuration it was first reached from: adding
    ``e`` drops ``e`` and the events in conflict with it, and enables
    each event above ``e`` whose causes are now all present and which
    conflicts with none of them.  No other event can become enabled: one
    that was not enabled before still misses a cause or still conflicts
    with the configuration.
    """
    labels, causes, conflicts, above, _ = _event_masks(es)
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
                up = above[i]
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


@derived_table
def _pomset_transition_table(es: PrimeEventStructure):
    """config -> tuple of (Pomset, target config), all strict extensions.

    Each residual ``d - c`` is coded by its shape: its labels and the
    masks of the events below each, indexed in event order and read from
    ``es.causes``, which is already transitively closed.  A shape is
    canonicalized the first time this table meets it.
    """
    configs = configurations(es)
    shapes = {}
    table = {}
    for c in configs:
        out = []
        for d in configs:
            if c < d:
                residual = sorted(d - c)
                bit = {e: 1 << i for i, e in enumerate(residual)}
                below = []
                for e in residual:
                    m = 0
                    for x in es.causes[e].intersection(bit):
                        m |= bit[x]
                    below.append(m)
                shape = (tuple(es.labels[e] for e in residual), tuple(below))
                u = shapes.get(shape)
                if u is None:
                    u = shapes[shape] = shape_pomset(*shape)
                out.append((u, d))
        table[c] = tuple(out)
    return table


@derived_table
def _step_transition_table(es: PrimeEventStructure):
    """config -> tuple of (step Pomset, target config), all step extensions.

    Events enabled at ``c`` are pairwise causally unrelated, so each
    nonempty conflict-free set of them is the residual of exactly one
    extension of ``c`` with an empty residual order, and every such
    extension arises this way.  The enabled events are read off the
    configuration graph; no pomset table is built.
    """
    conflicts = _event_masks(es).conflicts
    sets = _config_sets(es)
    steps = {}
    table = {}
    for c, edges in _config_graph(es).items():
        subsets = [(0, ())]
        for lab, i, _ in edges:
            bit, clash = 1 << i, conflicts[i]
            subsets += [(m | bit, labs + (lab,)) for m, labs in subsets
                        if not m & clash]
        out = []
        for m, labs in subsets[1:]:
            u = steps.get(labs)  # keyed by labels in event order; step_of sorts
            if u is None:
                u = steps[labs] = step_of(labs)
            out.append((u, sets[c | m]))
        table[sets[c]] = tuple(out)
    return table


def _states(s: ProcessState, rows) -> frozenset:
    return frozenset((u, ProcessState(s.structure, d)) for u, d in rows)


def pomset_transitions(s: ProcessState) -> frozenset:
    """All pomset-labelled transitions from ``s`` (configuration extensions)."""
    return _states(s, _pomset_transition_table(s.structure)[s.config])


def step_transitions(s: ProcessState) -> frozenset:
    """Pomset transitions whose label is a step (empty order).

    Read from the step table, built straight from the conflict-free sets
    of enabled events; the pomset table is not built.
    """
    return _states(s, _step_transition_table(s.structure)[s.config])


@derived_table
def _action_transition_table(es: PrimeEventStructure):
    """config -> tuple of (label, added event, target config), in event order."""
    events, sets = es.events, _config_sets(es)
    return {sets[c]: tuple([(lab, events[i], sets[d]) for lab, i, d in edges])
            for c, edges in _config_graph(es).items()}


def action_transitions(s: ProcessState) -> frozenset:
    """Single-action transitions, labelled by the added event's label."""
    table = _action_transition_table(s.structure)
    return frozenset(
        (lab, ProcessState(s.structure, d)) for lab, _e, d in table[s.config]
    )


def divergent(s: ProcessState) -> bool:
    """Divergence predicate on the current configuration."""
    return s.config in s.structure.divergent_configs


def initials(s: ProcessState) -> frozenset:
    """Pomsets labelling some transition from ``s``."""
    return frozenset(u for u, _ in pomset_transitions(s))


def derivatives(s: ProcessState, u: Pomset) -> frozenset:
    """States reachable from ``s`` by a transition labelled ``u``."""
    return frozenset(q for v, q in pomset_transitions(s) if v == u)


def sort(s: ProcessState) -> frozenset:
    """Pomsets labelling any transition reachable from ``s``.

    Configurations only grow, so every configuration extending ``s``'s is
    reachable in one step; the sort is the union of initials over all
    extending configurations.
    """
    table = _pomset_transition_table(s.structure)
    acc = set()
    for c, outs in table.items():
        if s.config <= c:
            acc.update(u for u, _ in outs)
    return frozenset(acc)
