"""Finite pomset synchronization trees.

A tree is a finite sum of pomset-prefixed subtrees plus an optional
divergence summand (written ``W`` in the textual grammar).  The
empty-summand convergent tree is the inactive process ``NIL``; the
empty-summand divergent tree is ``OMEGA``.  Prefix pomsets are nonempty.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, Tuple

from .errors import StructuralError
from .pomset import Pomset


class SyncTree:
    """Immutable synchronization tree.

    Trees are ordered by one walk, :func:`_compare_summands`: a tree
    compares by its divergence flag (convergent first), then summand by
    summand, each by its prefix's ``Pomset.sort_key`` and then by its
    child, and last by its number of summands.  ``summands`` is
    normalized into that order; duplicate summands are kept (they are
    semantically idempotent but syntactically preserved).  ``size``
    (node count), ``depth`` (longest prefix path) and ``event_count``
    (pomset events along all paths, the compile size) are summed from
    the children's fields.

    The hash is taken over the prefix pomsets and the children's hashes,
    so building a node costs time in its own summands only and a chain
    is built in time linear in its depth.  Equal trees have equal
    prefixes and equal children in the same order, hence equal hashes.
    """

    __slots__ = ("_summands", "_divergent", "_hash",
                 "size", "depth", "event_count")

    def __init__(self, summands: Iterable[Tuple[Pomset, "SyncTree"]] = (),
                 divergent: bool = False):
        summands = tuple(summands)
        size, depth, event_count = 1, 0, 0
        for prefix, child in summands:
            if not isinstance(prefix, Pomset):
                raise StructuralError("summand prefix must be a Pomset")
            n = len(prefix)
            if n == 0:
                raise StructuralError("empty pomset prefixes are not allowed")
            if not isinstance(child, SyncTree):
                raise StructuralError("summand child must be a SyncTree")
            size += child.size
            if child.depth >= depth:
                depth = child.depth + 1
            event_count += n + child.event_count
        if len(summands) > 1:
            summands = _sorted_summands(summands)
        divergent = bool(divergent)
        object.__setattr__(self, "_summands", summands)
        object.__setattr__(self, "_divergent", divergent)
        object.__setattr__(self, "_hash", hash((
            divergent,
            tuple([(p, c._hash) for p, c in summands]),
        )))
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "event_count", event_count)

    def __setattr__(self, name, value):
        raise AttributeError("SyncTree is immutable")

    @property
    def summands(self) -> Tuple[Tuple[Pomset, "SyncTree"], ...]:
        return self._summands

    @property
    def divergent(self) -> bool:
        return self._divergent

    def with_omega(self) -> "SyncTree":
        """This tree with a divergence summand added at the root."""
        return SyncTree(self._summands, True)

    def __eq__(self, other):
        """Equal roots, then equal summands under :func:`_compare_summands`."""
        if not isinstance(other, SyncTree):
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self._divergent == other._divergent
            and len(self._summands) == len(other._summands)
            and not any(map(_compare_summands, self._summands, other._summands))
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .grammar import format_tree

        return f"SyncTree({format_tree(self)!r})"


def _compare_summands(s, t) -> int:
    """-1, 0 or 1 as summand ``s`` orders before, with or after ``t``.

    Summands compare by prefix, then by child; children compare by
    divergence flag, then summand by summand, then by their number of
    summands.  This is tuple order on the nested keys
    ``(prefix.sort_key, (divergent, (summand keys...)))``, without
    building them: the walk runs level by level on an explicit stack,
    so deep children do not recurse.  Prefix sort keys are read only
    when the prefixes differ; parsed singletons are shared objects.
    """
    stack = [(s, t)]
    while stack:
        item = stack.pop()
        if type(item) is int:  # two summand lists whose common part is equal
            if item:
                return -1 if item < 0 else 1
            continue
        (p, c), (q, d) = item
        if p is not q and p != q:
            return -1 if p.sort_key < q.sort_key else 1
        if c is d:
            continue
        if c._divergent != d._divergent:
            return -1 if d._divergent else 1
        cs, ds = c._summands, d._summands
        stack.append(len(cs) - len(ds))
        stack.extend(reversed(list(zip(cs, ds))))
    return 0


def _sorted_summands(summands) -> tuple:
    """``summands`` in :func:`_compare_summands` order.

    Prefix keys are flat, so the children are compared only when two
    prefixes are equal.
    """
    out = sorted(summands, key=lambda s: s[0].sort_key)
    if any(s[0] == t[0] for s, t in zip(out, out[1:])):
        out.sort(key=cmp_to_key(_compare_summands))
    return tuple(out)


NIL = SyncTree((), False)
OMEGA = SyncTree((), True)


def prefix(p: Pomset, child: SyncTree = NIL) -> SyncTree:
    """The single-summand tree ``p : child``."""
    return SyncTree(((p, child),))


def tree_transitions(t: SyncTree) -> frozenset:
    """Tree-native transition relation: one (prefix, child) pair per summand."""
    return frozenset(t.summands)


def tree_size(t: SyncTree) -> int:
    """Node count (each subtree node counts once, prefixes do not)."""
    return t.size


def subtrees(t: SyncTree) -> frozenset:
    """All distinct subtrees of ``t``, including ``t`` itself.

    One walk on an explicit stack with one ``seen`` set, so a subtree is
    expanded once however often it occurs, and depth is not bounded by
    the recursion limit.
    """
    seen = {t}
    stack = [t]
    while stack:
        for _, c in stack.pop().summands:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return frozenset(seen)
