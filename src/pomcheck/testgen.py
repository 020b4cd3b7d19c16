"""Finite test-tree enumeration, characteristic/distinguishing trees,
and random model generation for the property suites.

A characteristic tree reads the transition table of its state and kind
(``_engine.table_of``): pomsets, steps, or for hp/hhp single actions.
"""

from __future__ import annotations

import random
from functools import cmp_to_key
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Optional

from . import estructure as es_mod
from . import prebisim as pb
from ._engine import table_of
from .equiv import RelationKind
from .errors import InternalInconsistencyError
from .estructure import ProcessState
from .pomset import Pomset, singleton, step_of, chain_of
from .synctree import NIL, OMEGA, SyncTree, _compare_summands


def tree_as_process(t: SyncTree, kind: RelationKind):
    """A test tree as a process of the appropriate semantics.

    Trees form a transition system through their summands, so for the
    pomset/step kinds the tree itself is the process: the prefix of a
    deep summand must not acquire extra causal structure (compiling
    ``b:(b:0)`` would add a two-event chain transition that no summand
    carries).  The posetal kinds need configurations and are evaluated on
    the compiled structure.
    """
    return es_mod.compiled(t) if kind.posetal else t


def enumerate_trees(
    alphabet: Iterable[Pomset], depth: int, width: int
) -> Iterator[SyncTree]:
    """Exhaustively stream every tree over ``alphabet`` within the bounds.

    Prefixes come from ``alphabet``, paths are at most ``depth`` long and
    every node has at most ``width`` summands; both divergence flags are
    produced.  No duplicates up to summand-list normalization; shallow
    trees are yielded first.
    """
    alphabet = sorted(set(alphabet))
    pool = [NIL, OMEGA]
    yield from pool
    for d in range(1, depth + 1):
        cands = [(u, t) for u in alphabet for t in pool]
        cands.sort(key=cmp_to_key(_compare_summands))
        fresh = []
        for k in range(1, width + 1):
            for combo in combinations_with_replacement(cands, k):
                for div in (False, True):
                    t = SyncTree(combo, div)
                    if t.depth == d:
                        fresh.append(t)
                        yield t
        pool = pool + fresh


def characteristic_tree(
    state, restriction, n: int, kind: RelationKind
) -> SyncTree:
    """Finite tree characterizing the level-``n`` stratified approximant.

    A summand ``U : characteristic_tree(state', n-1)`` is emitted for
    every restricted transition (every transition when ``restriction``
    is ``None``); a divergence summand is added when the state is
    divergent or has an initial outside the restriction set, so the
    tree never over-constrains convergence.  Level 0 is the fully
    unspecified tree.  The contract (the tree lies below ``state`` and
    tests exactly the level-``n`` approximant) is verified by the test
    suite, not assumed.

    Built bottom-up on an explicit stack, once per (state, level), so
    depth is not bounded by the recursion limit.
    """
    if n <= 0:
        return OMEGA
    table, root = table_of(state, kind)
    pomsets, rows, divergent = table.pomsets, table.rows, table.divergent
    trees = {}  # (state id, level) -> its tree
    stack = [(root, n)]
    while stack:
        x, m = stack[-1]
        if (x, m) in trees:
            stack.pop()
            continue
        succs = [(pomsets[u], y) for u, ys in rows[x].items() for y in ys]
        kept = succs
        if restriction is not None:
            kept = [(u, y) for u, y in succs if u in restriction]
        if m > 1:
            missing = [(y, m - 1) for _, y in kept if (y, m - 1) not in trees]
            if missing:
                stack += missing
                continue
        stack.pop()
        trees[x, m] = SyncTree(
            [(u, trees[y, m - 1] if m > 1 else OMEGA) for u, y in kept],
            divergent[x] or len(kept) < len(succs),
        )
    return trees[root, n]


def _candidates(p, q, kind: RelationKind, n):
    """The candidate trees of :func:`distinguishing_tree`, each made
    only when the one before it has failed."""
    yield characteristic_tree(p, None, n, kind)
    if kind.posetal:
        # action-prefixed trees linearize histories and often fail the
        # posetal check against concurrent processes; pomset-prefixed
        # trees built from the pomset stratification are a second shot
        m = pb.first_failing_level(p, q, RelationKind.POMSET)
        if m is not None:
            yield characteristic_tree(p, None, m, RelationKind.POMSET)
    if (isinstance(p, ProcessState) and not p.config
            and p.structure.tree is not None):
        yield p.structure.tree


def distinguishing_tree(p, q, kind: RelationKind) -> Optional[SyncTree]:
    """A verified tree below ``p`` but not below ``q``, if one exists.

    Returns ``None`` when the pair is in the finitary preorder.  The extracted
    tree is re-verified against both processes before being returned; a
    verification failure raises, signalling a bug.  When ``p`` is the
    root of a compiled tree, that tree is the last candidate: it
    compiles to a structure isomorphic to ``p``'s, so for the posetal
    kinds it lies below ``p``, and below ``q`` only if ``p`` does.
    """
    n = pb.first_failing_level(p, q, kind)
    return None if n is None else _distinguishing_tree(p, q, kind, n)


def _distinguishing_tree(p, q, kind: RelationKind, n: int) -> SyncTree:
    """:func:`distinguishing_tree` of a pair that fails at level ``n``,
    for a caller that already has the level."""
    for chi in _candidates(p, q, kind, n):
        ts = tree_as_process(chi, kind)
        if pb.prebisim(ts, p, kind).related and not pb.prebisim(ts, q, kind).related:
            return chi
    raise InternalInconsistencyError(
        f"no extracted tree distinguishes the processes under {kind.value}"
    )


def random_pomset(rng: random.Random, alphabet, max_events: int = 2) -> Pomset:
    """A small random nonempty pomset: singleton, step or chain."""
    k = rng.randint(1, max(1, max_events))
    labels = [rng.choice(alphabet) for _ in range(k)]
    if k == 1:
        return singleton(labels[0])
    return step_of(labels) if rng.random() < 0.5 else chain_of(labels)


def random_tree(
    seed,
    size_budget: int,
    alphabet=("a", "b"),
    divergence_probability: float = 0.15,
    max_prefix_events: int = 2,
) -> SyncTree:
    """Deterministic random tree with at most ``size_budget`` nodes."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    alphabet = list(alphabet)

    def build(budget: int) -> SyncTree:
        div = rng.random() < divergence_probability
        if budget <= 1:
            return OMEGA if div else NIL
        n_summands = rng.randint(0, 2)
        remaining = budget - 1
        summands = []
        for _ in range(n_summands):
            if remaining <= 0:
                break
            child_budget = rng.randint(1, remaining)
            remaining -= child_budget
            prefix = random_pomset(rng, alphabet, max_prefix_events)
            summands.append((prefix, build(child_budget)))
        return SyncTree(summands, div)

    return build(size_budget)

