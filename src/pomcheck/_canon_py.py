"""Canonical labeling kernel for small labelled strict orders.

Inputs are integer-coded: event ``i`` carries label code ``labels[i]``,
``above[i]`` is a bitmask of the events strictly above ``i`` and
``below[i]`` one of the events strictly below it (the order must
already be transitively closed).  The result is a permutation ``perm``
such that listing events in the order ``perm[0], perm[1], ...`` yields
the canonical form: isomorphic inputs produce identical (label
sequence, relation matrix) encodings.

Algorithm: iterated colour refinement on (label, successor/predecessor
colour multisets), then backtracking over colour-class ties minimising
the prefix-determined relation encoding.  A discrete colouring already
is the canonical order, so most inputs need no search (McKay–Piperno
2014).  Models are small (<= ~20 events), so clarity wins over
asymptotics.
"""

from itertools import accumulate

BACKEND = "python"


def _bits(m):
    """Indices of the set bits of ``m``, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _refine(labels, above, below):
    """A stable colouring (list of dense ints) of the events, and its
    number of classes.

    A round only splits classes and keeps their order, so a round that
    adds no class is stable, and a discrete colouring is final.
    """
    n = len(labels)
    colors, k = _rank([(labels[i], above[i].bit_count(), below[i].bit_count())
                       for i in range(n)])
    if k == n:
        return colors, k
    succ = [_bits(m) for m in above]
    pred = [_bits(m) for m in below]
    while True:
        new, k2 = _rank([
            (colors[i], tuple(sorted([colors[j] for j in succ[i]])),
             tuple(sorted([colors[j] for j in pred[i]])))
            for i in range(n)
        ])
        if k2 == k or k2 == n:
            return new, k2
        colors, k = new, k2


def _rank(keys):
    """Dense ranks of ``keys`` in sorted order, and how many there are."""
    order = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys], len(order)


def canonical_order(labels, above, below):
    """Canonical event ordering for a transitively closed strict order.

    ``labels``: sequence of ints; ``above``, ``below``: sequences of int
    bitmasks.  Returns a tuple of event indices.
    """
    colors, k = _refine(labels, above, below)
    n = len(colors)
    by_color = sorted(range(n), key=colors.__getitem__)
    if k == n:
        return tuple(by_color)

    # Events are placed colour class by colour class (classes in colour
    # order); within a class, ties are broken by minimising the relation
    # bits against already-placed events, position by position.  The
    # search is depth first on an explicit stack, children pushed in
    # reverse so they are visited in order.  The unplaced events of the
    # class being filled lead ``remaining``, which keeps colour order.
    ends = list(accumulate(colors.count(c) for c in range(k)))
    best = None  # best full row-encoding list found so far
    best_perm = None
    stack = [([], by_color, [])]
    while stack:
        placed, remaining, enc = stack.pop()
        if best is not None and enc > best[: len(enc)]:
            continue
        pos = len(placed)
        if pos == n:
            if best is None or enc < best:
                best = enc
                best_perm = placed
            continue
        cands = remaining[: ends[colors[remaining[0]]] - pos]
        rows = [[2 if below[e] >> p & 1 else (1 if above[e] >> p & 1 else 0)
                 for p in placed] for e in cands]
        lo = min(rows)
        # interchangeable twins: exploring one representative suffices
        reps = []
        for e, row in zip(cands, rows):
            if row == lo and not any(_twins(above, below, e, r) for r, _ in reps):
                reps.append((e, row))
        for e, row in reversed(reps):
            stack.append(
                (placed + [e], [x for x in remaining if x != e], enc + row)
            )
    return tuple(best_perm)


def _twins(above, below, u, v):
    """Whether swapping ``u`` and ``v``, of one colour, is an automorphism."""
    if above[u] >> v & 1 or above[v] >> u & 1:
        return False
    mask = ~((1 << u) | (1 << v))
    return (above[u] & mask) == (above[v] & mask) and (
        below[u] & mask
    ) == (below[v] & mask)
