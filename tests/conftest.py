"""Shared brute-force oracles and corpus helpers.

Everything here is deliberately independent of the library's own
algorithms: isomorphism is decided by backtracking bijection search,
configuration sets by filtering all event subsets, and poset spaces by
exhaustive orientation enumeration.  The oracles are slow and simple on
purpose.
"""

import itertools
import random
from functools import lru_cache

from pomcheck.pomset import LabelledPoset, singleton
from pomcheck.synctree import NIL, prefix
from pomcheck.testgen import random_tree


def brute_force_iso(u: LabelledPoset, v: LabelledPoset) -> bool:
    """Label-preserving order-isomorphism by backtracking bijection search."""
    if len(u) != len(v) or len(u.order) != len(v.order):
        return False
    lab_u = sorted(u.label(e) for e in u.events)
    lab_v = sorted(v.label(e) for e in v.events)
    if lab_u != lab_v:
        return False
    left = sorted(u.events, key=repr)
    right = sorted(v.events, key=repr)

    def extend(i, mapping, used):
        if i == len(left):
            return True
        a = left[i]
        for b in right:
            if b in used or u.label(a) != v.label(b):
                continue
            ok = True
            for a2, b2 in mapping.items():
                if ((a, a2) in u.order) != ((b, b2) in v.order):
                    ok = False
                    break
                if ((a2, a) in u.order) != ((b2, b) in v.order):
                    ok = False
                    break
            if ok:
                mapping[a] = b
                if extend(i + 1, mapping, used | {b}):
                    return True
                del mapping[a]
        return False

    return extend(0, {}, frozenset())


@lru_cache(maxsize=None)
def closed_orders(n: int):
    """All transitively closed strict orders on range(n)."""
    slots = list(itertools.combinations(range(n), 2))
    out = []
    for choice in itertools.product((0, 1, 2), repeat=len(slots)):
        rel = set()
        for (a, b), c in zip(slots, choice):
            if c == 1:
                rel.add((a, b))
            elif c == 2:
                rel.add((b, a))
        if all(
            (a, d) in rel
            for a, b in rel
            for b2, d in rel
            if b2 == b
        ):
            out.append(frozenset(rel))
    return tuple(out)


def labelled_posets(n: int, alphabet):
    """Every labelled poset on carrier range(n) over the alphabet."""
    for order in closed_orders(n):
        for labs in itertools.product(alphabet, repeat=n):
            yield LabelledPoset(range(n), order, dict(enumerate(labs)))


def random_labelled_poset(rng: random.Random, n: int, alphabet,
                          edge_prob: float = 0.3) -> LabelledPoset:
    """Random poset: edges oriented along a random topological order."""
    perm = list(range(n))
    rng.shuffle(perm)
    order = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                order.add((perm[i], perm[j]))
    labels = {e: rng.choice(alphabet) for e in range(n)}
    return LabelledPoset(range(n), order, labels)


def shuffled_copy(rng: random.Random, lp: LabelledPoset) -> LabelledPoset:
    """The same poset on freshly named, shuffled events."""
    evs = sorted(lp.events, key=repr)
    names = [f"x{i}" for i in range(len(evs))]
    rng.shuffle(names)
    ren = dict(zip(evs, names))
    return LabelledPoset(
        ren.values(),
        ((ren[a], ren[b]) for a, b in lp.order),
        {ren[e]: lp.label(e) for e in evs},
    )


def random_coded_input(rng, n, n_labels=2):
    """(labels, above) pair for a random transitively closed order."""
    perm = list(range(n))
    rng.shuffle(perm)
    above = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                above[perm[i]] |= 1 << perm[j]
    # transitive closure on the bitmasks
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m, extra = above[i], 0
            j = 0
            while m:
                if m & 1:
                    extra |= above[j]
                m >>= 1
                j += 1
            if extra & ~above[i]:
                above[i] |= extra
                changed = True
    labels = tuple(rng.randrange(n_labels) for _ in range(n))
    return labels, tuple(above)


def brute_force_configurations(es) -> frozenset:
    """Downward-closed conflict-free subsets, by filtering all subsets."""
    out = set()
    for r in range(len(es.events) + 1):
        for sub in itertools.combinations(es.events, r):
            s = frozenset(sub)
            if all(es.causes[e] <= s for e in s) and not any(
                es.conflicts[e] & s for e in s
            ):
                out.add(s)
    return frozenset(out)


def tree_corpus(seed, count: int, budget: int, max_events: int,
                alphabet=("a", "b")):
    """Deterministic list of random trees with bounded compiled size."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = random_tree(rng.random(), budget, alphabet)
        if t.event_count <= max_events:
            out.append(t)
    return out


def chain_tree(depth: int, label: str = "a"):
    """The chain ``a:(a:(...0))`` of ``depth`` actions, built bottom-up."""
    t = NIL
    for _ in range(depth):
        t = prefix(singleton(label), t)
    return t


def nested_key(t):
    """``t``'s order as the nested tuple ``(divergent, ((prefix sort key,
    child key), ...))``; recursive, so for shallow trees only."""
    return (t.divergent,
            tuple((p.sort_key, nested_key(c)) for p, c in t.summands))


def f1_terms(labels):
    """The three F1 processes over a label multiset: {m}:0, Q and {m}:W + W."""
    m = ",".join(labels)
    rest = ",".join(labels[1:])
    return [f"{{{m}}}:0", f"{{{m}}}:0 + {labels[0]}:({{{rest}}}:0)",
            f"{{{m}}}:W + W"]
