"""Prime event structures compiled from synchronization trees.

This is the concrete semantic model: configurations, their history
posets, pomset/step/action transitions and the divergence predicate are
all evaluated here.  Structures are immutable after compilation; derived
tables are memoized write-once on the structure (:func:`derived_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Dict, FrozenSet, Tuple

from .pomset import LabelledPoset, Pomset, canonicalize
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
    structures are distinct states spaces even if isomorphic.
    """

    __slots__ = ("events", "labels", "causes", "conflicts",
                 "divergent_configs", "derived")

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
    """Memoize ``fn(es, *args)`` in ``es.derived``; ``args`` join the key."""

    @wraps(fn)
    def table(es, *args):
        key = (fn, *args)
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
    ending in a node whose divergence flag is set.
    """
    labels: Dict[int, str] = {}
    causes: Dict[int, set] = {}
    conflicts: Dict[int, set] = {}
    divergent = set()
    counter = [0]

    def build(node: SyncTree, ancestors: frozenset) -> frozenset:
        if node.divergent:
            divergent.add(ancestors)
        cones = []
        for pom, child in node.summands:
            lp = pom.canon
            names = sorted(lp.events)
            fresh = {}
            for name in names:
                e = counter[0]
                counter[0] += 1
                fresh[name] = e
                labels[e] = lp.label(name)
                causes[e] = set(ancestors)
                conflicts[e] = set()
            for a, b in lp.order:
                causes[fresh[b]].add(fresh[a])
            prefix_events = frozenset(fresh.values())
            sub = build(child, ancestors | prefix_events)
            cones.append(prefix_events | sub)
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                for e in cones[i]:
                    for f in cones[j]:
                        conflicts[e].add(f)
                        conflicts[f].add(e)
        return frozenset().union(*cones) if cones else frozenset()

    build(t, frozenset())
    es = PrimeEventStructure(
        range(counter[0]), labels, causes, conflicts, divergent
    )
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
    """config -> tuple of (Pomset, target config), all strict extensions."""
    configs = configurations(es)
    table = {}
    for c in configs:
        out = []
        for d in configs:
            if c < d:
                residual = d - c
                u = canonicalize(es.history(residual))
                out.append((u, d))
        table[c] = tuple(out)
    return table


def pomset_transitions(s: ProcessState) -> frozenset:
    """All pomset-labelled transitions from ``s`` (configuration extensions)."""
    table = _pomset_transition_table(s.structure)
    return frozenset(
        (u, ProcessState(s.structure, d)) for u, d in table[s.config]
    )


def step_transitions(s: ProcessState) -> frozenset:
    """Pomset transitions whose label is a step (empty order)."""
    return frozenset(t for t in pomset_transitions(s) if t[0].is_step())


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
