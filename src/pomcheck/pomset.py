"""Finite labelled strict partial orders and their isomorphism classes.

A :class:`LabelledPoset` is a concrete finite carrier with a strict,
transitively closed order and a total labelling.  A :class:`Pomset` is
the isomorphism class of such a poset, represented by the key of a
canonical relabelling (events renamed ``e0, e1, ...`` in canonical
order), so two pomsets compare equal exactly when their underlying
posets are isomorphic.  Labels are plain strings.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Tuple

from .errors import StructuralError
from ._canon_py import _bits, canonical_order

Label = str


def _transitive_closure(pairs, events):
    succ = {e: set() for e in events}
    for a, b in pairs:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in events:
            extra = set()
            for b in succ[a]:
                extra |= succ[b] - succ[a]
            if extra:
                succ[a] |= extra
                changed = True
    return {(a, b) for a in events for b in succ[a]}


def _checked_labels(events, order, labels) -> dict:
    """``labels`` as a dict, checked total on ``events``; ``order`` is
    checked to stay on the carrier."""
    labels = dict(labels)
    if set(labels) != events:
        raise StructuralError("labels must be total on events")
    for a, b in order:
        if a not in events or b not in events:
            raise StructuralError(f"order pair ({a!r}, {b!r}) off the carrier")
    return labels


class LabelledPoset:
    """Immutable finite labelled strict partial order.

    The order is stored transitively closed; input pairs may be covering
    ("Hasse") edges and are closed on construction.  Construction rejects
    reflexive pairs, cycles, labels on unknown events and unlabelled
    events with :class:`StructuralError`.
    """

    __slots__ = ("_events", "_order", "_labels", "_hash")

    def __init__(self, events: Iterable, order: Iterable[Tuple], labels: Mapping):
        events = frozenset(events)
        order = set(order)
        labels = _checked_labels(events, order, labels)
        self._fill(events, _transitive_closure(order, events), labels)

    @classmethod
    def _closed(cls, events: Iterable, order: Iterable[Tuple], labels: Mapping):
        """A poset whose ``order`` is already closed: checked, not closed."""
        events = frozenset(events)
        order = frozenset(order)
        lp = object.__new__(cls)
        lp._fill(events, order, _checked_labels(events, order, labels))
        return lp

    def _fill(self, events, order, labels):
        loops = [a for a, b in order if a == b]
        if loops:
            raise StructuralError(
                f"order is cyclic or reflexive at {min(loops, key=repr)!r}")
        object.__setattr__(self, "_events", events)
        object.__setattr__(self, "_order", frozenset(order))
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LabelledPoset is immutable")

    @property
    def events(self) -> frozenset:
        return self._events

    @property
    def order(self) -> frozenset:
        return self._order

    @property
    def labels(self) -> Mapping:
        return dict(self._labels)

    def label(self, event) -> Label:
        return self._labels[event]

    def __len__(self):
        return len(self._events)

    def __eq__(self, other):
        if not isinstance(other, LabelledPoset):
            return NotImplemented
        return (
            self._events == other._events
            and self._order == other._order
            and self._labels == other._labels
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(
                (self._events, self._order, frozenset(self._labels.items()))
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        evs = ", ".join(
            f"{e!r}:{self._labels[e]}" for e in sorted(self._events, key=repr)
        )
        rel = ", ".join(f"{a!r}<{b!r}" for a, b in sorted(self._order, key=repr))
        return f"LabelledPoset({{{evs}}}, {{{rel}}})"


class Pomset:
    """Isomorphism class of labelled posets, keyed by its canonical form.

    The key is ``(labels, pairs)``: the labels of the canonical events
    ``e0, e1, ...`` in order, and the sorted index pairs ``(i, j)`` of
    the closed order, ``e{i}`` below ``e{j}``.  Equality, hashing and
    ordering read the key alone; its hash is taken once.  The canonical
    :class:`LabelledPoset` is built from the key when :attr:`canon` is
    first read.  The constructor trusts its key to be canonical; make a
    pomset with :func:`canonicalize`, :func:`step_of`, :func:`singleton`,
    :func:`chain_of` or ``grammar.parse_pomset``.
    """

    __slots__ = ("_key", "_hash", "_canon")

    def __init__(self, labels: tuple, pairs: tuple):
        key = (labels, pairs)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("Pomset is immutable")

    @property
    def key(self) -> tuple:
        """``(labels, pairs)``: the canonical labels and closed order pairs."""
        return self._key

    @property
    def canon(self) -> LabelledPoset:
        lp = self._canon
        if lp is None:
            labels, pairs = self._key
            names = [f"e{i}" for i in range(len(labels))]
            lp = LabelledPoset._closed(
                names,
                [(names[a], names[b]) for a, b in pairs],
                zip(names, labels),
            )
            object.__setattr__(self, "_canon", lp)
        return lp

    @property
    def sort_key(self):
        return (len(self._key[0]),) + self._key

    def __len__(self):
        return len(self._key[0])

    def is_step(self) -> bool:
        return not self._key[1]

    def label_multiset(self) -> Tuple[Label, ...]:
        return self._key[0]

    def __eq__(self, other):
        if not isinstance(other, Pomset):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Pomset({self._key[0]}, {self._key[1]})"


def canonicalize(lp: LabelledPoset) -> Pomset:
    """Canonical representative of ``lp``'s isomorphism class."""
    events = sorted(lp.events, key=repr)
    idx = {e: i for i, e in enumerate(events)}
    below = [0] * len(events)
    for a, b in lp.order:
        below[idx[b]] |= 1 << idx[a]
    return shape_pomset([lp.label(e) for e in events], below)


def shape_pomset(labels, below) -> Pomset:
    """The pomset of events ``0..n-1`` given by their index-coded shape.

    Event ``i`` carries ``labels[i]``; ``below[i]`` is the bitmask of
    the events strictly below ``i``, transitively closed.  An order-free
    shape is a step and needs no canonical-labelling search.  The key is
    read off the canonical order; the canonical poset is built only when
    it is asked for.
    """
    if not any(below):
        return step_of(labels)
    n = len(labels)
    lower = [_bits(m) for m in below]
    above = [0] * n
    for i, js in enumerate(lower):
        for j in js:
            above[j] |= 1 << i
    label_code = {s: c for c, s in enumerate(sorted(set(labels)))}
    perm = canonical_order([label_code[s] for s in labels], above, below)
    pos = [0] * n
    for p, orig in enumerate(perm):
        pos[orig] = p
    pairs = tuple(sorted([(pos[j], pos[i]) for i, js in enumerate(lower)
                          for j in js]))
    return Pomset(tuple(labels[orig] for orig in perm), pairs)


@lru_cache(maxsize=None)
def singleton(label: Label) -> Pomset:
    """The one-event pomset carrying ``label``."""
    return step_of((label,))


def step_of(labels: Iterable[Label]) -> Pomset:
    """The step (empty order) pomset with the given label multiset.

    A step's canonical form lists its labels in sorted order, so no
    canonical-labelling search is needed.
    """
    return Pomset(tuple(sorted(labels)), ())


EMPTY_POMSET = step_of(())


def chain_of(labels: Iterable[Label]) -> Pomset:
    """The totally ordered pomset with the given label sequence."""
    labels = list(labels)
    return shape_pomset(labels, [(1 << i) - 1 for i in range(len(labels))])
