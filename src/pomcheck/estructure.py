"""Prime event structures compiled from synchronization trees.

This is the concrete semantic model: configurations, their history
posets, pomset/step/action transitions and the divergence predicate are
all evaluated here.  Structures are immutable after compilation; derived
tables are memoized write-once on the structure (:func:`derived_table`).

Each kind builds only the transition table it reads.  The step table is
built straight from the conflict-free sets of enabled events; the pomset
table lists every strict extension and canonicalizes each residual shape
once per build; the action table adds one enabled event at a time.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import wraps
from typing import Dict, FrozenSet, Tuple

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


def derived_table(fn):
    """Memoize ``fn(es, *args)`` in ``es.derived``; ``args`` join the key.

    A structure argument joins the key as a weak reference, so a table of
    two structures makes no reference cycle between them: each dies when
    its last reference goes.  A table keyed by a structure that died
    stays until ``es`` dies.
    """

    @wraps(fn)
    def table(es, *args):
        key = (fn, *(weakref.ref(a) if isinstance(a, PrimeEventStructure)
                     else a for a in args))
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


@derived_table
def configurations(es: PrimeEventStructure) -> frozenset:
    """All conflict-free, causally downward-closed finite event sets."""
    seen = {EMPTY_CONFIG}
    stack = [EMPTY_CONFIG]
    while stack:
        cfg = stack.pop()
        for e in es.events:
            if e in cfg:
                continue
            if not es.causes[e] <= cfg:
                continue
            if es.conflicts[e] & cfg:
                continue
            nxt = cfg | {e}
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


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
    extension arises this way.  No pomset table is built.
    """
    steps = {}
    table = {}
    for c in configurations(es):
        subsets = [()]
        for e in es.events:
            if e in c or not es.causes[e] <= c or es.conflicts[e] & c:
                continue
            subsets += [s + (e,) for s in subsets
                        if es.conflicts[e].isdisjoint(s)]
        out = []
        for s in subsets[1:]:
            labels = tuple(sorted(es.labels[e] for e in s))
            u = steps.get(labels)
            if u is None:
                u = steps[labels] = step_of(labels)
            out.append((u, c.union(s)))
        table[c] = tuple(out)
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
    """config -> tuple of (label, added event, target config)."""
    configs = configurations(es)
    table = {c: [] for c in configs}
    for c in configs:
        for e in es.events:
            if e in c or not es.causes[e] <= c or es.conflicts[e] & c:
                continue
            d = c | {e}
            if d in configs:
                table[c].append((es.labels[e], e, d))
    return {c: tuple(v) for c, v in table.items()}


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
