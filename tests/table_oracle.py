"""Replaced algorithms of the kernel, compile and transition-table layers.

Each is kept exactly as it was before its replacement, as a differential
oracle for ``tests/test_tables.py`` and ``tests/test_config_graph.py``:

- ``canonical_order``: the canonical-labelling search as recursive
  nested closures, with the colour refinement that scans every bit
  pair each round and runs until no class splits (the library's search
  runs on an explicit stack, and its refinement stops once the colouring
  is discrete, which then is the canonical order);
- ``canonicalize``: every poset through that search, steps included
  (the library gives an order-free poset its sorted labels directly);
- ``compile_tree``: the recursive compile (the library's is iterative);
  it returns the structure only;
- ``pomset_table``: one history poset and one canonicalization per
  extension ``c < d`` (the library builds the step table from enabled
  events and canonicalizes each residual shape once);
- ``configurations``, ``action_table``, ``step_table`` and ``relevant``:
  every event tested against every configuration with frozenset subset
  and intersection tests, and each configuration's relevant events as a
  set (the library grows one graph of configuration masks, deriving each
  configuration's enabled events from its parent's, and computes
  relevance on masks).
"""

from pomcheck.estructure import EMPTY_CONFIG, PrimeEventStructure
from pomcheck.pomset import LabelledPoset, Pomset, step_of


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
    # bits against already-placed events, position by position.
    by_color = sorted(range(n), key=lambda i: (colors[i], i))
    class_of_pos = [colors[i] for i in by_color]

    best = [None]  # best full row-encoding list found so far

    def row_bits(e, placed):
        bits = []
        for p in placed:
            bits.append(2 if above[p] >> e & 1 else (1 if above[e] >> p & 1 else 0))
        return bits

    def twins(u, v):
        if colors[u] != colors[v]:
            return False
        if above[u] >> v & 1 or above[v] >> u & 1:
            return False
        mask = ~((1 << u) | (1 << v))
        return (above[u] & mask) == (above[v] & mask) and (
            below[u] & mask
        ) == (below[v] & mask)

    def search(placed, remaining, enc):
        if best[0] is not None and enc > best[0][: len(enc)]:
            return
        k = len(placed)
        if k == n:
            if best[0] is None or enc < best[0]:
                best[0] = list(enc)
                best_perm[0] = list(placed)
            return
        cls = class_of_pos[k]
        cands = [e for e in remaining if colors[e] == cls]
        rows = {e: row_bits(e, placed) for e in cands}
        lo = min(rows.values())
        tied = [e for e in cands if rows[e] == lo]
        # interchangeable twins: exploring one representative suffices
        reps = []
        for e in tied:
            if not any(twins(e, r) for r in reps):
                reps.append(e)
        for e in reps:
            search(placed + [e], [x for x in remaining if x != e], enc + rows[e])

    best_perm = [None]
    search([], by_color, [])
    return tuple(best_perm[0])


def canonicalize(lp):
    """Canonical representative of ``lp``'s class, always through the search."""
    events = sorted(lp.events, key=repr)
    idx = {e: i for i, e in enumerate(events)}
    label_code = {s: c for c, s in enumerate(sorted({lp.label(e) for e in events}))}
    labels = tuple(label_code[lp.label(e)] for e in events)
    above = [0] * len(events)
    for a, b in lp.order:
        above[idx[a]] |= 1 << idx[b]
    perm = canonical_order(labels, tuple(above))
    rename = {events[orig]: f"e{pos}" for pos, orig in enumerate(perm)}
    canon = LabelledPoset(
        rename.values(),
        ((rename[a], rename[b]) for a, b in lp.order),
        {rename[e]: lp.label(e) for e in events},
    )
    index = {f"e{i}": i for i in range(len(events))}
    return Pomset(
        tuple(canon.label(f"e{i}") for i in range(len(events))),
        tuple(sorted((index[a], index[b]) for a, b in canon.order)),
    )


def pomset_table(es):
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


def configurations(es):
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


def action_table(es, configs=None):
    """config -> tuple of (label, added event, target config)."""
    if configs is None:
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


def step_table(es, configs=None):
    """config -> tuple of (step Pomset, target config), all step extensions."""
    if configs is None:
        configs = configurations(es)
    table = {}
    for c in configs:
        subsets = [()]
        for e in es.events:
            if e in c or not es.causes[e] <= c or es.conflicts[e] & c:
                continue
            subsets += [s + (e,) for s in subsets
                        if es.conflicts[e].isdisjoint(s)]
        table[c] = tuple((step_of(sorted(es.labels[e] for e in s)), c.union(s))
                         for s in subsets[1:])
    return table


def relevant(es, configs=None):
    """Each configuration's events that cause some event outside it."""
    if configs is None:
        configs = configurations(es)
    above = {e: set() for e in es.events}
    for x in es.events:
        for a in es.causes[x]:
            above[a].add(x)
    return {c: {a for a in c if not above[a] <= c} for c in configs}


def compile_tree(t):
    """Compile a synchronization tree into an event structure.

    Each prefix pomset along each path is instantiated with fresh events;
    a prefix causally precedes its entire subtree; distinct summands of a
    node are in (hereditary) conflict cone-against-cone.  A configuration
    is divergent exactly when it is the full event set of a root path
    ending in a node whose divergence flag is set.
    """
    labels = {}
    causes = {}
    conflicts = {}
    divergent = set()
    counter = [0]

    def build(node, ancestors):
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
    return PrimeEventStructure(
        range(counter[0]), labels, causes, conflicts, divergent
    )
