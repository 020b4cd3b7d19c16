"""Pure-Python canonical labeling kernel for small labelled strict orders.

The compiled twin in ``_canon_cy`` implements the same algorithm; the
backend is picked in ``_kernel``.  Inputs are integer-coded: event ``i``
carries label code ``labels[i]`` and ``above[i]`` is a bitmask of the
events strictly above ``i`` (the order must already be transitively
closed).  The result is a permutation ``perm`` such that listing events
in the order ``perm[0], perm[1], ...`` yields the canonical form:
isomorphic inputs produce identical (label sequence, relation matrix)
encodings.

Algorithm: iterated colour refinement on (label, successor/predecessor
colour multisets), then backtracking over colour-class ties minimising
the prefix-determined relation encoding.  Models are small (<= ~20
events), so clarity wins over asymptotics.
"""

BACKEND = "python"


def _refine(labels, above, below, n):
    """Return a stable colouring (list of ints) of the n events."""
    keys = [
        (labels[i], bin(above[i]).count("1"), bin(below[i]).count("1"))
        for i in range(n)
    ]
    colors = _rank(keys)
    while True:
        keys = []
        for i in range(n):
            succ = sorted(colors[j] for j in range(n) if above[i] >> j & 1)
            pred = sorted(colors[j] for j in range(n) if below[i] >> j & 1)
            keys.append((colors[i], tuple(succ), tuple(pred)))
        new = _rank(keys)
        if new == colors:
            return colors
        colors = new


def _rank(keys):
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def canonical_order(labels, above):
    """Canonical event ordering for a transitively closed strict order.

    ``labels``: sequence of ints; ``above``: sequence of int bitmasks.
    Returns a tuple of event indices.
    """
    n = len(labels)
    if n == 0:
        return ()
    below = [0] * n
    for i in range(n):
        m = above[i]
        j = 0
        while m:
            if m & 1:
                below[j] |= 1 << i
            m >>= 1
            j += 1
    colors = _refine(labels, above, below, n)

    # Events are placed colour class by colour class (classes in colour
    # order); within a class, ties are broken by minimising the relation
    # bits against already-placed events, position by position.  The
    # search is depth first on an explicit stack, children pushed in
    # reverse so they are visited in order.
    by_color = sorted(range(n), key=lambda i: (colors[i], i))
    class_of_pos = [colors[i] for i in by_color]
    best = None  # best full row-encoding list found so far
    best_perm = None
    stack = [([], by_color, [])]
    while stack:
        placed, remaining, enc = stack.pop()
        if best is not None and enc > best[: len(enc)]:
            continue
        k = len(placed)
        if k == n:
            if best is None or enc < best:
                best = enc
                best_perm = placed
            continue
        cls = class_of_pos[k]
        cands = [e for e in remaining if colors[e] == cls]
        rows = {e: _row_bits(above, e, placed) for e in cands}
        lo = min(rows.values())
        # interchangeable twins: exploring one representative suffices
        reps = []
        for e in cands:
            if rows[e] == lo and not any(
                _twins(above, below, colors, e, r) for r in reps
            ):
                reps.append(e)
        for e in reversed(reps):
            stack.append(
                (placed + [e], [x for x in remaining if x != e], enc + rows[e])
            )
    return tuple(best_perm)


def _row_bits(above, e, placed):
    """Relation of ``e`` to each placed event: 2 above it, 1 below, 0 neither."""
    return [2 if above[p] >> e & 1 else (1 if above[e] >> p & 1 else 0)
            for p in placed]


def _twins(above, below, colors, u, v):
    """Whether swapping ``u`` and ``v`` is an automorphism."""
    if colors[u] != colors[v]:
        return False
    if above[u] >> v & 1 or above[v] >> u & 1:
        return False
    mask = ~((1 << u) | (1 << v))
    return (above[u] & mask) == (above[v] & mask) and (
        below[u] & mask
    ) == (below[v] & mask)
