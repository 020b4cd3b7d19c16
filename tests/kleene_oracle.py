"""Reference Kleene iteration for the fixpoints, kept as a differential oracle.

These are the object-level fixpoint loops the library used before its
rank-map engine: every round rebuilds the whole relation as a frozenset
over the full pair space (pomset/step) or posetal triple space (hp/hhp),
and witnesses are read off the per-level relations.  They are slow on
purpose and independent of the engine's interning, product exploration
and round bookkeeping; tests compare the library's answers with them.
The posetal fixpoints run over the enumerated product of
``posetal_oracle``, not over the library's.  :func:`rescan_rounds` is
the engine's earlier round loop, which re-scans every group of every
touched node in each round.
"""

from functools import lru_cache

from pomcheck._engine import ROOT_TRIPLE, diverges, pair_space, successors
from pomcheck.equiv import RelationKind, Witness
from pomcheck.pomset import singleton
from posetal_oracle import sub_triples, triple_space, triple_transitions


def _acts(restriction):
    return None if restriction is None else frozenset(
        u.label_multiset()[0] for u in restriction if len(u) == 1
    )


# ---------------------------------------------------------------------------
# bisimulation (equiv)
# ---------------------------------------------------------------------------


def _pair_transfer_ok(x, y, rel, step_only):
    for u, x2 in successors(x, step_only):
        if not any(
            u == v and (x2, y2) in rel for v, y2 in successors(y, step_only)
        ):
            return False
    for v, y2 in successors(y, step_only):
        if not any(
            v == u and (x2, y2) in rel for u, x2 in successors(x, step_only)
        ):
            return False
    return True


@lru_cache(maxsize=None)
def _pair_gfp(p, q, step_only):
    rel = pair_space(p, q)
    while True:
        keep = frozenset(
            (x, y) for (x, y) in rel if _pair_transfer_ok(x, y, rel, step_only)
        )
        if keep == rel:
            return rel
        rel = keep


def _pair_failure_witness(p, q, step_only):
    """First transfer violation of the root pair, with its level."""
    rel = set(pair_space(p, q))
    level = 0
    while (p, q) in rel:
        level += 1
        rel = {
            (x, y) for (x, y) in rel if _pair_transfer_ok(x, y, rel, step_only)
        }
    prev = set(pair_space(p, q))
    for _ in range(level - 1):
        prev = {
            (x, y) for (x, y) in prev if _pair_transfer_ok(x, y, prev, step_only)
        }
    for u, p2 in sorted(successors(p, step_only), key=lambda t: t[0].sort_key):
        if not any(
            u == v and (p2, q2) in prev for v, q2 in successors(q, step_only)
        ):
            return Witness("pomset", u), level
    for v, q2 in sorted(successors(q, step_only), key=lambda t: t[0].sort_key):
        if not any(
            v == u and (p2, q2) in prev for u, p2 in successors(p, step_only)
        ):
            return Witness("pomset", v), level
    return Witness("level", level), level


def _triple_transfer_ok(t, rel, fwd, bwd):
    for _lab, cands in fwd[t]:
        if not any(c in rel for c in cands):
            return False
    for _lab, cands in bwd[t]:
        if not any(c in rel for c in cands):
            return False
    return True


@lru_cache(maxsize=None)
def _triple_gfp(es1, es2, hereditary):
    rel = triple_space(es1, es2)
    fwd, bwd = triple_transitions(es1, es2)
    subs = sub_triples(es1, es2) if hereditary else None
    while True:
        keep = frozenset(t for t in rel if _triple_transfer_ok(t, rel, fwd, bwd))
        if hereditary:
            keep = _prune_downward(keep, subs)
        if keep == rel:
            return rel
        rel = keep


def _triple_failure_witness(es1, es2, hereditary):
    fwd, bwd = triple_transitions(es1, es2)
    subs = sub_triples(es1, es2) if hereditary else None
    rel = set(triple_space(es1, es2))
    level = 0
    prev = rel
    while ROOT_TRIPLE in rel:
        level += 1
        prev = rel
        keep = {t for t in rel if _triple_transfer_ok(t, rel, fwd, bwd)}
        if hereditary:
            keep = {t for t in keep if all(s in keep for s in subs[t])}
        rel = keep
    for lab, cands in fwd[ROOT_TRIPLE]:
        if not any(c in prev for c in cands):
            return Witness("pomset", singleton(lab)), level
    for lab, cands in bwd[ROOT_TRIPLE]:
        if not any(c in prev for c in cands):
            return Witness("pomset", singleton(lab)), level
    return Witness("level", level), level


def bisim(p, q, kind):
    """(related, witness, level) of the reference bisimulation check."""
    if kind.posetal:
        hereditary = kind is RelationKind.HHP
        if ROOT_TRIPLE in _triple_gfp(p.structure, q.structure, hereditary):
            return True, None, None
        w, level = _triple_failure_witness(p.structure, q.structure, hereditary)
        return False, w, level
    step_only = kind is RelationKind.STEP
    if (p, q) in _pair_gfp(p, q, step_only):
        return True, None, None
    w, level = _pair_failure_witness(p, q, step_only)
    return False, w, level


# ---------------------------------------------------------------------------
# prebisimulation levels (prebisim)
# ---------------------------------------------------------------------------


def _pre_pair_ok(x, y, rel, step_only, restriction):
    succ_x = successors(x, step_only)
    succ_y = successors(y, step_only)
    if restriction is None:
        sx, sy = succ_x, succ_y
    else:
        sx = [(u, x2) for u, x2 in succ_x if u in restriction]
        sy = [(v, y2) for v, y2 in succ_y if v in restriction]
    for u, x2 in sx:
        if not any(u == v and (x2, y2) in rel for v, y2 in succ_y):
            return False
    guard = not diverges(x)
    if guard and restriction is not None:
        guard = all(u in restriction for u, _ in succ_x)
    if guard:
        if diverges(y):
            return False
        if restriction is not None and not all(v in restriction for v, _ in succ_y):
            return False
        for v, y2 in sy:
            if not any(v == u and (x2, y2) in rel for u, x2 in succ_x):
                return False
    return True


def _pre_triple_ok(t, rel, fwd, bwd, es1, es2, acts):
    c, _f, d = t
    for lab, cands in fwd[t]:
        if acts is not None and lab not in acts:
            continue
        if not any(s in rel for s in cands):
            return False
    guard = c not in es1.divergent_configs
    if guard and acts is not None:
        guard = all(lab in acts for lab, _ in fwd[t])
    if guard:
        if d in es2.divergent_configs:
            return False
        if acts is not None and not all(lab in acts for lab, _ in bwd[t]):
            return False
        for lab, cands in bwd[t]:
            if acts is not None and lab not in acts:
                continue
            if not any(s in rel for s in cands):
                return False
    return True


def _prune_downward(rel, subs):
    while True:
        keep = frozenset(t for t in rel if all(s in rel for s in subs[t]))
        if keep == rel:
            return rel
        rel = keep


@lru_cache(maxsize=None)
def _pair_levels(space, kind, restriction):
    step_only = kind is RelationKind.STEP
    levels = [space]
    while True:
        cur = levels[-1]
        nxt = frozenset(
            (x, y)
            for (x, y) in cur
            if _pre_pair_ok(x, y, cur, step_only, restriction)
        )
        if nxt == cur:
            return tuple(levels)
        levels.append(nxt)


@lru_cache(maxsize=None)
def _triple_levels(es1, es2, hereditary, acts):
    space = triple_space(es1, es2)
    fwd, bwd = triple_transitions(es1, es2)
    subs = sub_triples(es1, es2) if hereditary else None
    levels = [space]
    while True:
        cur = levels[-1]
        nxt = frozenset(
            t for t in cur if _pre_triple_ok(t, cur, fwd, bwd, es1, es2, acts)
        )
        if hereditary:
            nxt = _prune_downward(nxt, subs)
        if nxt == cur:
            return tuple(levels)
        levels.append(nxt)


def levels(p, q, kind, restriction=None):
    """The prebisimulation level sequence and the root's probe."""
    if kind.posetal:
        return _triple_levels(p.structure, q.structure,
                              kind is RelationKind.HHP, _acts(restriction)), \
            ROOT_TRIPLE
    return _pair_levels(pair_space(p, q), kind, restriction), (p, q)


def first_failing_level(p, q, kind, restriction=None):
    lv, probe = levels(p, q, kind, restriction)
    return next((n for n, rel in enumerate(lv) if probe not in rel), None)


def member_at(p, q, kind, n, restriction=None):
    lv, probe = levels(p, q, kind, restriction)
    if n == "omega":
        return probe in lv[-1]
    return probe in lv[min(n, len(lv) - 1)]


def failure_witness(p, q, kind, restriction=None):
    """First transfer violation of the root at the level it falls out."""
    lv, probe = levels(p, q, kind, restriction)
    idx = next(i for i, rel in enumerate(lv) if probe not in rel)
    prev = lv[idx - 1] if idx else lv[0]
    if kind.posetal:
        fwd, bwd = triple_transitions(p.structure, q.structure)
        acts = _acts(restriction)
        for lab, cands in list(fwd[ROOT_TRIPLE]) + list(bwd[ROOT_TRIPLE]):
            if acts is not None and lab not in acts:
                continue
            if not any(s in prev for s in cands):
                return Witness("pomset", singleton(lab))
        return Witness("level", idx)
    step_only = kind is RelationKind.STEP
    for u, p2 in sorted(successors(p, step_only), key=lambda t: t[0].sort_key):
        if restriction is not None and u not in restriction:
            continue
        if not any(u == v and (p2, q2) in prev for v, q2 in successors(q, step_only)):
            return Witness("pomset", u)
    for v, q2 in sorted(successors(q, step_only), key=lambda t: t[0].sort_key):
        if restriction is not None and v not in restriction:
            continue
        if not any(v == u and (p2, q2) in prev for u, p2 in successors(p, step_only)):
            return Witness("pomset", v)
    return Witness("level", idx)


# ---------------------------------------------------------------------------
# the engine's round loop before live-candidate counters
# ---------------------------------------------------------------------------


def _holds(groups, alive):
    return groups is not None and all(
        any(c in alive for c in cands) for cands in groups
    )


def rescan_rounds(demands, extensions=None):
    """The rank map of ``_engine._rounds``, by re-scanning touched nodes.

    Each round re-checks every group of every node that lists a node
    removed in the round before.  With ``extensions`` the nodes listed
    in a removed node's extensions are removed in the same round,
    transitively.
    """
    alive = set(demands)
    preds = {n: [] for n in demands}
    for n, groups in demands.items():
        for cands in groups or ():
            for c in cands:
                preds[c].append(n)
    rank = {}
    out = [n for n, groups in demands.items() if not _holds(groups, alive)]
    level = 0
    while out:
        level += 1
        alive.difference_update(out)
        if extensions is not None:
            stack = list(out)
            while stack:
                for _, cands in extensions[stack.pop()]:
                    for s in cands:
                        if s in alive:
                            alive.discard(s)
                            out.append(s)
                            stack.append(s)
        for n in out:
            rank[n] = level
        touched = {m for n in out for m in preds[n] if m in alive}
        out = [m for m in touched if not _holds(demands[m], alive)]
    return rank
