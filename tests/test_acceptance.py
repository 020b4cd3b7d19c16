"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure) and asserts zero violations plus the pinned runtime budget
where one applies.  All checks are against the independent brute-force
oracles in ``conftest``.
"""

import itertools
import random
import time

from conftest import (
    brute_force_iso,
    labelled_posets,
    random_labelled_poset,
    shuffled_copy,
    tree_corpus,
)
from pomcheck import prebisim as pb
from pomcheck.cli import EXIT_NOT_RELATED, main as cli_main
from pomcheck.equiv import RelationKind, bisim
from pomcheck.estructure import compiled
from pomcheck.grammar import parse_term
from pomcheck.pomset import canonicalize, singleton, step_of
from pomcheck.synctree import SyncTree, prefix
from pomcheck.testgen import (
    distinguishing_tree,
    random_pomset,
    random_tree,
    tree_as_process,
)

PAIR_KINDS = (RelationKind.POMSET, RelationKind.STEP)
THREE_KINDS = (RelationKind.POMSET, RelationKind.STEP, RelationKind.HP)
ALL_KINDS = tuple(RelationKind)


def _report(num, name, violations, elapsed, budget=None):
    ok = violations == 0 and (budget is None or elapsed <= budget)
    line = (f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} "
            f"({violations} violations, {elapsed:.1f}s"
            + (f" / budget {budget}s" if budget else "") + ")")
    print(line)
    assert ok, line


def _tree_pairs(seed, count, budget, max_events):
    lefts = tree_corpus(seed + "-L", count, budget, max_events)
    rights = tree_corpus(seed + "-R", count, budget, max_events)
    return list(zip(lefts, rights))


def test_criterion_1_canonicalization_soundness():
    """Canonical equality <=> brute-force isomorphism, exhaustively to 5
    events over {a, b}, plus 1000 random 6-event posets."""
    start = time.monotonic()
    violations = 0

    # exhaustive part: soundness by comparing each poset against the
    # first representative of its canonical class ...
    reps = {}
    for n in range(6):
        for p in labelled_posets(n, "ab"):
            u = canonicalize(p)
            rep = reps.get(u)
            if rep is None:
                reps[u] = p
            elif not brute_force_iso(p, rep):
                violations += 1
    # ... and completeness by checking that distinct canonical classes
    # with the same cheap invariants are genuinely non-isomorphic (any
    # isomorphic pair with different canonical forms would have
    # isomorphic, invariant-equal representatives)
    buckets = {}
    for u, rep in reps.items():
        degs = sorted(
            (rep.label(e),
             sum(1 for a, _ in rep.order if a == e),
             sum(1 for _, b in rep.order if b == e))
            for e in rep.events
        )
        key = (len(rep), len(rep.order), tuple(degs))
        buckets.setdefault(key, []).append(rep)
    for group in buckets.values():
        for p, q in itertools.combinations(group, 2):
            if brute_force_iso(p, q):
                violations += 1

    # random part: 1000 six-event posets, half compared with a shuffled
    # relabeling of themselves, half with an independent poset
    rng = random.Random("accept-1")
    for i in range(1000):
        p = random_labelled_poset(rng, 6, "ab")
        if i % 2 == 0:
            q = shuffled_copy(rng, p)
        else:
            q = random_labelled_poset(rng, 6, "ab")
        if (canonicalize(p) == canonicalize(q)) != brute_force_iso(p, q):
            violations += 1

    _report(1, "pomset canonicalization soundness", violations,
            time.monotonic() - start, budget=60)


def test_criterion_2_preorder_laws():
    """Reflexivity, transitivity, level monotonicity and restriction
    antitonicity on 200 random tree pairs (<= 6 events), kinds P/S/HP."""
    start = time.monotonic()
    violations = 0
    pairs = _tree_pairs("accept-2", 200, 6, 6)
    rng = random.Random("accept-2-sub")

    for kind in THREE_KINDS:
        for t1, t2 in pairs:
            p, q = compiled(t1), compiled(t2)
            # reflexivity
            if not (pb.prebisim(p, p, kind).related
                    and pb.prebisim(q, q, kind).related):
                violations += 1
            # level monotonicity: n+1 implies n for n <= 5
            for n in range(5):
                if pb.level_approx(p, q, kind, n + 1) and \
                        not pb.level_approx(p, q, kind, n):
                    violations += 1
            # restriction antitonicity: 5 random P <= P' per instance
            pmax = sorted(pb.dominating_restriction(p, q, kind))
            for _ in range(5):
                big = frozenset(u for u in pmax if rng.random() < 0.7)
                small = frozenset(u for u in big if rng.random() < 0.6)
                if pb.strat_omega(p, q, kind, big) and \
                        not pb.strat_omega(p, q, kind, small):
                    violations += 1

        # transitivity on sampled triples from a shared pool
        pool = [compiled(t) for t, _ in pairs[:40]]
        for _ in range(150):
            p, q, r = rng.sample(pool, 3)
            if pb.prebisim(p, q, kind).related and \
                    pb.prebisim(q, r, kind).related and \
                    not pb.prebisim(p, r, kind).related:
                violations += 1

    _report(2, "preorder laws (reflexive/transitive/monotone/antitone)",
            violations, time.monotonic() - start, budget=300)


def test_criterion_3_tree_tests_match_finitary_preorder():
    """prebisim(t, p) <=> fin_preorder(t, p) for 300 random
    (tree, process) pairs, kinds P/S/HP."""
    start = time.monotonic()
    violations = 0
    tests = tree_corpus("accept-3-t", 300, 4, 3)
    procs = tree_corpus("accept-3-p", 300, 6, 5)
    for kind in THREE_KINDS:
        for t, proc in zip(tests, procs):
            ts = tree_as_process(t, kind)
            p = compiled(proc)
            if pb.prebisim(ts, p, kind).related != \
                    pb.fin_preorder(ts, p, kind).related:
                violations += 1
    _report(3, "tree tests characterize the finitary preorder",
            violations, time.monotonic() - start)


def test_criterion_4_enumeration_matches_finitary_preorder():
    """finitary_via_trees <=> fin_preorder on 200 random pairs, kinds
    P/S; every negative answer carries a re-verified distinguishing
    tree."""
    start = time.monotonic()
    violations = 0
    pairs = _tree_pairs("accept-4", 200, 5, 5)
    for kind in PAIR_KINDS:
        for t1, t2 in pairs:
            p, q = compiled(t1), compiled(t2)
            fin = pb.fin_preorder(p, q, kind)
            via = pb.finitary_via_trees(p, q, kind, max_trees=150)
            if via.related != fin.related:
                violations += 1
            if not via.related:
                t = via.witness.value
                ts = tree_as_process(t, kind)
                if not pb.prebisim(ts, p, kind).related or \
                        pb.prebisim(ts, q, kind).related:
                    violations += 1
    _report(4, "tree enumeration agrees with the finitary preorder",
            violations, time.monotonic() - start, budget=600)


def test_criterion_5_collapse_on_finite_models():
    """prebisim = omega-approximant = fin_preorder for all four kinds."""
    start = time.monotonic()
    violations = 0
    pairs = _tree_pairs("accept-5", 60, 5, 5)
    for kind in ALL_KINDS:
        for t1, t2 in pairs:
            p, q = compiled(t1), compiled(t2)
            a = pb.prebisim(p, q, kind).related
            b = pb.level_approx(p, q, kind, pb.OMEGA)
            c = pb.fin_preorder(p, q, kind).related
            if not (a == b == c):
                violations += 1
    _report(5, "collapse to equalities on finite models", violations,
            time.monotonic() - start)


def test_criterion_6_divergence_fixtures():
    """Omega below everything; p+W below p; convergent p not below p+W;
    kernel(a:0, a:0+W) false."""
    start = time.monotonic()
    violations = 0
    from pomcheck.synctree import OMEGA as W

    omega = compiled(W)
    for t in tree_corpus("accept-6", 40, 5, 5):
        p = compiled(t)
        pw = compiled(t.with_omega())
        for kind in ALL_KINDS:
            if not pb.prebisim(omega, p, kind).related:
                violations += 1
            if not pb.prebisim(pw, p, kind).related:
                violations += 1
            if not t.divergent and pb.prebisim(p, pw, kind).related:
                violations += 1
    a_nil = compiled(prefix(singleton("a")))
    a_nil_w = compiled(prefix(singleton("a")).with_omega())
    for kind in ALL_KINDS:
        if pb.kernel(a_nil, a_nil_w, kind):
            violations += 1
    _report(6, "divergence fixtures", violations, time.monotonic() - start)


def test_criterion_7_concurrency_vs_interleaving(tmp_path, capsys):
    """{a,b}:0 vs a:(b:0) + b:(a:0): no kind relates them, and explain
    produces a verifying step witness."""
    start = time.monotonic()
    violations = 0
    a, b = singleton("a"), singleton("b")
    con = compiled(prefix(step_of("ab")))
    inter = compiled(SyncTree([(a, prefix(b)), (b, prefix(a))]))
    for kind in ALL_KINDS:
        if bisim(con, inter, kind).related:
            violations += 1

    path = tmp_path / "regress.pom"
    path.write_text(
        "proc P = {a,b}:0\nproc Q = a:(b:0) + b:(a:0)\n", encoding="utf-8"
    )
    code = cli_main(["explain", "--left", "P", "--right", "Q",
                     "--rel", "step", str(path)])
    out = capsys.readouterr().out.strip()
    if code != EXIT_NOT_RELATED:
        violations += 1
    witness = parse_term(out)
    ts = tree_as_process(witness, RelationKind.STEP)
    if not pb.prebisim(ts, con, RelationKind.STEP).related or \
            pb.prebisim(ts, inter, RelationKind.STEP).related:
        violations += 1
    if step_of("ab") not in {u for u, _ in witness.summands}:
        violations += 1
    _report(7, "concurrency vs interleaving regression", violations,
            time.monotonic() - start)


def test_criterion_8_dominating_restriction_audit():
    """strat_omega over P_max equals the explicit evaluation over every
    subset of P_max and over 50 random supersets, 100 random pairs."""
    start = time.monotonic()
    violations = 0
    rng = random.Random("accept-8")
    extras = [random_pomset(random.Random(i), ["c", "d"], 2)
              for i in range(20)]

    def sample_pair():
        while True:
            t1 = random_tree(rng.random(), 4)
            t2 = random_tree(rng.random(), 4)
            if t1.event_count <= 4 and t2.event_count <= 4:
                p, q = compiled(t1), compiled(t2)
                pmax = pb.dominating_restriction(p, q, RelationKind.POMSET)
                if len(pmax) <= 8:
                    return p, q

    for _ in range(100):
        p, q = sample_pair()
        for kind in PAIR_KINDS:
            pmax = sorted(pb.dominating_restriction(p, q, kind))
            ref = pb.strat_omega(p, q, kind, pmax)
            # the finitary preorder is the conjunction over all finite
            # restriction sets; subsets of P_max cover all that can bite
            all_subsets = all(
                pb.strat_omega(p, q, kind, frozenset(sub))
                for r in range(len(pmax) + 1)
                for sub in itertools.combinations(pmax, r)
            )
            if ref != all_subsets:
                violations += 1
            for _ in range(50):
                sup = frozenset(pmax) | frozenset(
                    rng.sample(extras, rng.randint(1, 5))
                )
                if pb.strat_omega(p, q, kind, sup) != ref:
                    violations += 1
                    break
    _report(8, "dominating restriction set audit", violations,
            time.monotonic() - start)
