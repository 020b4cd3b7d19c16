"""The frozenset-keyed pair path, kept as a differential oracle.

These are the transition tables and the pair product the library used
before its int transition tables, exactly as they were then:

- ``pomset_transition_table`` and ``step_transition_table`` key every
  row by the configuration's event set and list ``(Pomset, target event
  set)`` transitions;
- ``interned`` re-interns, on every query, the states of one side as
  ints from those rows (or from the subtrees under the tree-native
  semantics), with one pomset index shared by both sides;
- ``pair_ranks`` explores the matched-label pair product over the
  interned states, and keeps a restriction even when it drops nothing;
  its rounds are the re-scanning loop of ``kleene_oracle``.

``tests/test_pair_engine.py`` compares the library's rank maps and
verdicts with these.  ``characteristic_tree`` is the recursive builder
the library replaced with one on an explicit stack, reading the decoded
``ProcessState`` transitions.  ``decoded`` turns a library table back into the
frozenset-keyed form, for the table tests.
"""

from pomcheck import estructure as es_mod
from pomcheck import synctree as st_mod
from pomcheck._engine import Ranks, demand, successors
from pomcheck.estructure import _config_graph, _config_sets, _event_masks
from pomcheck.estructure import _residual_pomset
from pomcheck.pomset import singleton, step_of
from pomcheck.synctree import OMEGA, SyncTree
from kleene_oracle import diverges, rescan_rounds


def pomset_transition_table(es):
    """config -> tuple of (Pomset, target config), all strict extensions."""
    labels, causes = _event_masks(es)[:2]
    sets = _config_sets(es)
    residuals, shapes = {}, {}
    table = {}
    for c, cset in sets.items():
        out = []
        for d, dset in sets.items():
            if d & c == c and d != c:
                r = d ^ c
                u = residuals.get(r)
                if u is None:
                    u = residuals[r] = _residual_pomset(r, labels, causes,
                                                        shapes)
                out.append((u, dset))
        table[cset] = tuple(out)
    return table


def step_transition_table(es):
    """config -> tuple of (step Pomset, target config), all step extensions."""
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
            u = steps.get(labs)
            if u is None:
                u = steps[labs] = step_of(labs)
            out.append((u, sets[c | m]))
        table[sets[c]] = tuple(out)
    return table


def decoded(es, table):
    """A library :class:`~pomcheck.estructure.Transitions` table of ``es``
    as config -> tuple of (Pomset, target config)."""
    events = es.events

    def config(m):
        return frozenset(e for i, e in enumerate(events) if m >> i & 1)

    return {
        config(c): tuple((table.pomsets[u], config(table.states[y]))
                         for u, ys in row.items() for y in ys)
        for c, row in zip(table.states, table.rows)
    }


def transition_rows(state, step_only):
    """``(state, its (Pomset, target) transitions)`` over its system."""
    if isinstance(state, SyncTree):
        return ((t, successors(t, step_only)) for t in st_mod.subtrees(state))
    if step_only:
        return step_transition_table(state.structure).items()
    return pomset_transition_table(state.structure).items()


def interned(state, step_only, pids):
    """The states of ``state``'s system as ints.

    Returns each state's successors grouped by pomset id, each state's
    divergence, and the id of ``state``.  ``pids`` interns pomsets and is
    shared by both sides of a product.
    """
    rows = list(transition_rows(state, step_only))
    index = {s: i for i, (s, _) in enumerate(rows)}
    groups = []
    for _, trans in rows:
        g = {}
        for u, s2 in trans:
            g.setdefault(pids.setdefault(u, len(pids)), []).append(index[s2])
        groups.append(g)
    if isinstance(state, SyncTree):
        return groups, [t.divergent for t, _ in rows], index[state]
    div = state.structure.divergent_configs
    return groups, [c in div for c, _ in rows], index[state.config]


def pair_ranks(p, q, step_only, restriction, pre, everywhere=False) -> Ranks:
    """Rounds over the matched-label pair product reachable from (p, q)."""
    pids = {}
    gx, dx, xr = interned(p, step_only, pids)
    gy, dy, yr = interned(q, step_only, pids)
    pomsets = list(pids)
    if restriction is not None:
        restriction = {pids[u] for u in restriction if u in pids}
    ny = len(gy)
    if everywhere:
        pairs = list(range(len(gx) * ny))
    else:
        pairs = [xr * ny + yr]
    index = {xy: i for i, xy in enumerate(pairs)}
    root = index[xr * ny + yr]
    demands = {}
    for i, xy in enumerate(pairs):  # grows while it is read
        x, y = divmod(xy, ny)
        here = gy[y]
        matrices = {}
        flabs, fwd, blabs, bwd = [], [], [], []
        for u, xs in gx[x].items():
            ys = here.get(u, ())
            rows = []
            for x2 in xs:
                row = []
                base = x2 * ny
                for y2 in ys:
                    key = base + y2
                    n = index.get(key)
                    if n is None:
                        n = index[key] = len(pairs)
                        pairs.append(key)
                    row.append(n)
                rows.append(row)
            matrices[u] = rows
            fwd += rows
            flabs += [u] * len(rows)
        for v, ys in here.items():
            rows = matrices.get(v)
            bwd += zip(*rows) if rows else [()] * len(ys)
            blabs += [v] * len(ys)
        demands[i] = demand((flabs, fwd), (blabs, bwd), dx[x], dy[y],
                            restriction, pre)
        if i == root:
            root_fwd, root_bwd = zip(flabs, fwd), zip(blabs, bwd)

    def labelled(obligations):
        out = [(pomsets[u], tuple(cands)) for u, cands in obligations]
        return tuple(sorted(out, key=lambda o: o[0].sort_key))

    return Ranks(rescan_rounds(demands, None), root, labelled(root_fwd),
                 labelled(root_bwd), len(pairs))


def sort_pomsets(state, step_only):
    """All transition labels of ``state``'s system, from the rows."""
    return frozenset(u for _, trans in transition_rows(state, step_only)
                     for u, _ in trans)



def characteristic_tree(state, restriction, n, kind):
    """The recursive characteristic tree, read from the decoded state API."""
    restriction = frozenset(restriction)
    if n <= 0:
        return OMEGA
    if kind.posetal:
        succs = frozenset((singleton(lab), s2)
                          for lab, s2 in es_mod.action_transitions(state))
    else:
        succs = successors(state, kind.value == "step")
    summands = [(u, characteristic_tree(s2, restriction, n - 1, kind))
                for u, s2 in succs if u in restriction]
    div = diverges(state) or any(u not in restriction for u, _ in succs)
    return SyncTree(summands, div)
