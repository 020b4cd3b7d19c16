"""The traced run: each query replayed layer by layer, with spans and counts.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions, in the order a query uses them:

    parse -> compile -> configurations -> transitions sweep
          -> pair space | triple space and tables
          -> decision -> witness | distinguishing tree

Every layer is called only after the layers it depends on have filled
pomcheck's caches for this query's models, so a span times that layer's
own work, with one exception: ``pair_space`` is not memoized, so the
``_engine.pair_space`` span times a separate build made by the benchmark,
and the decision spans still include the pair-space builds that the
fixpoints make themselves.  Work the benchmark does only to count (the
reachable-pair search, extension and label counts) happens outside layer
spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from pomcheck import RelationKind, bisim, compile_tree, estructure, parse_term
from pomcheck import grammar, prebisim as pb, synctree, testgen
from pomcheck._engine import (
    pair_space,
    sub_triples,
    successors,
    triple_space,
    triple_transitions,
)
from pomcheck.estructure import ProcessState

import workloads

# span name -> per-layer time metric
SPAN_METRICS = {
    "grammar.parse": "grammar.parse_s",
    "estructure.compile": "estructure.compile_s",
    "estructure.configurations": "estructure.configurations_s",
    "estructure.transitions": "estructure.transitions_s",
    "synctree.semantics": "synctree.semantics_s",
    "_engine.pair_space": "engine.pair_space_s",
    "_engine.triple_space": "engine.triple_space_s",
    "_engine.triple_tables": "engine.triple_tables_s",
    "equiv.bisim": "equiv.bisim_s",
    "equiv.witness": "equiv.witness_s",
    "prebisim.prebisim": "prebisim.prebisim_s",
    "prebisim.fin_preorder": "prebisim.fin_preorder_s",
    "prebisim.first_failing_level": "prebisim.first_failing_level_s",
    "testgen.distinguishing_tree": "testgen.distinguishing_tree_s",
    "cli.main": "cli.main_s",
}

# Counts that must repeat exactly between two traced runs of one seed.
COUNTS = (
    "trace.queries",
    "grammar.source_bytes",
    "estructure.events",
    "estructure.configs",
    "estructure.extensions",
    "estructure.step_extensions",
    "pomset.distinct",
    "synctree.states",
    "engine.pairs",
    "engine.reachable_pairs",
    "engine.triples",
    "engine.config_pairs",
    "prebisim.failing_level_sum",
    "testgen.tree_nodes",
)


class Tracer:
    """Spans of one run, kept in memory until the run ends.

    A span is (name, start, end, parent index, query id); times are
    seconds from the tracer's creation.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self._stack = []

    def span(self, name, qid):
        return _Span(self, name, qid)

    def busy(self, first=0):
        """Seconds per span name over the spans from index ``first`` on."""
        out = Counter()
        for name, start, end, _parent, _qid in self.spans[first:]:
            out[name] += end - start
        return out


class _Span:
    __slots__ = ("tracer", "name", "qid", "start", "index", "parent", "duration")

    def __init__(self, tracer, name, qid):
        self.tracer, self.name, self.qid = tracer, name, qid

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.parent = parent
        self.start = time.perf_counter() - tr.origin
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        end = time.perf_counter() - tr.origin
        tr._stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent, self.qid)
        self.duration = end - self.start
        return False


def _reachable_pairs(p, q, step_only):
    """Pairs reachable from (p, q) in the matched-label product."""
    seen = {(p, q)}
    stack = [(p, q)]
    while stack:
        x, y = stack.pop()
        by_label = {}
        for v, y2 in successors(y, step_only):
            by_label.setdefault(v, []).append(y2)
        for u, x2 in successors(x, step_only):
            for y2 in by_label.get(u, ()):
                if (x2, y2) not in seen:
                    seen.add((x2, y2))
                    stack.append((x2, y2))
    return len(seen)


def _sweep(es, kind):
    """First sweep of the kind's transition function over every configuration."""
    if kind is RelationKind.POMSET:
        fn = estructure.pomset_transitions
    elif kind is RelationKind.STEP:
        fn = estructure.step_transitions
    else:
        fn = estructure.action_transitions
    for c in estructure.configurations(es):
        fn(ProcessState(es, c))


def _count_extensions(es, counts):
    configs = estructure.configurations(es)
    for c in configs:
        s = ProcessState(es, c)
        counts["estructure.extensions"] += len(estructure.pomset_transitions(s))
        counts["estructure.step_extensions"] += len(estructure.step_transitions(s))
    counts["pomset.distinct"] += len(estructure.sort(ProcessState(es, frozenset())))


def trace_library(q, qid, tr, counts):
    """Replay one query's library path layer by layer; return its verdict."""
    kind = RelationKind(q.kind)
    counts["grammar.source_bytes"] += len(q.left.encode()) + len(q.right.encode())
    with tr.span("grammar.parse", qid):
        if q.path:
            with open(q.path, encoding="utf-8") as fh:
                table = grammar.parse(fh.read())
            lt, rt = table["L"], table["R"]
        else:
            lt, rt = parse_term(q.left), parse_term(q.right)

    if q.semantics == "tree-native":
        left, right = lt, rt
        with tr.span("synctree.semantics", qid):
            states = [synctree.subtrees(t) for t in (lt, rt)]
            for space in states:
                for s in space:
                    synctree.tree_transitions(s)
        counts["synctree.states"] += sum(len(s) for s in states)
    else:
        with tr.span("estructure.compile", qid):
            es1, left = compile_tree(lt)
            es2, right = compile_tree(rt)
        counts["estructure.events"] += len(es1.events) + len(es2.events)
        with tr.span("estructure.configurations", qid):
            c1 = estructure.configurations(es1)
            c2 = estructure.configurations(es2)
        counts["estructure.configs"] += len(c1) + len(c2)
        with tr.span("estructure.transitions", qid):
            _sweep(es1, kind)
            _sweep(es2, kind)
        if not kind.posetal:
            _count_extensions(es1, counts)
            _count_extensions(es2, counts)

    if kind.posetal:
        with tr.span("_engine.triple_space", qid):
            space = triple_space(es1, es2)
        counts["engine.triples"] += len(space)
        counts["engine.config_pairs"] += len(c1) * len(c2)
        with tr.span("_engine.triple_tables", qid):
            triple_transitions(es1, es2)
            if kind is RelationKind.HHP:
                sub_triples(es1, es2)
    else:
        # A probe: the decision call below builds its own pair space.
        with tr.span("_engine.pair_space", qid):
            pairs = pair_space(left, right)
        counts["engine.pairs"] += len(pairs)
        counts["engine.reachable_pairs"] += _reachable_pairs(
            left, right, kind is RelationKind.STEP)

    if q.op == "bisim":
        with tr.span("equiv.bisim", qid):
            related = bisim(left, right, kind).related
        if not related and q.witness:
            with tr.span("equiv.witness", qid):
                bisim(left, right, kind, want_witness=True)
    elif q.op in ("prebisim", "kernel"):
        with tr.span("prebisim.prebisim", qid):
            related = pb.prebisim(left, right, kind, want_witness=q.witness).related
            if related and q.op == "kernel":
                related = pb.prebisim(right, left, kind,
                                      want_witness=q.witness).related
        if not related and q.op == "prebisim":
            counts["prebisim.failing_level_sum"] += pb.first_failing_level(
                left, right, kind)
    elif q.op == "fin_preorder":
        with tr.span("prebisim.fin_preorder", qid):
            v = pb.fin_preorder(left, right, kind, want_witness=q.witness)
        related = v.related
        if not related:
            counts["prebisim.failing_level_sum"] += v.level
    elif q.op == "approx":
        with tr.span("prebisim.first_failing_level", qid):
            n = pb.first_failing_level(left, right, kind)
        related = n is None or n > workloads.APPROX_MAX_LEVEL
        counts["prebisim.failing_level_sum"] += n or 0
    else:  # explain
        with tr.span("testgen.distinguishing_tree", qid):
            t = testgen.distinguishing_tree(left, right, kind)
        related = t is None
        if t is not None:
            counts["testgen.tree_nodes"] += synctree.tree_size(t)
    return related


def clear_pomcheck_caches():
    """Empty pomcheck's module-level memo tables.

    Corpus queries run the library path and then the command line on
    the same trees; the command line's memoized compile and the
    tree-native fixpoints are keyed on tree values, so without this the
    command line would find its answers already cached.
    """
    for name, mod in list(sys.modules.items()):
        if name == "pomcheck" or name.startswith("pomcheck."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def run_traced(inputs, n_queries, errors):
    """Trace the first ``n_queries`` queries; return (tracer, times, counts, failed, wall).

    As in the untraced loop, drawing a fresh corpus cycle does not count
    in the wall time.
    """
    tr = Tracer()
    counts = Counter({name: 0 for name in COUNTS})
    cli_self = 0.0
    failed = 0
    paused = 0.0
    start = time.perf_counter()
    cycles = inputs.cycles()
    while counts["trace.queries"] < n_queries:
        t = time.perf_counter()
        cycle = next(cycles)
        paused += time.perf_counter() - t
        for q in cycle[:n_queries - counts["trace.queries"]]:
            qid = counts["trace.queries"]
            counts["trace.queries"] += 1
            try:
                with tr.span("query", qid):
                    first = len(tr.spans)
                    related = trace_library(q, qid, tr, counts)
                    ok = related is q.expected
                    if q.path:
                        library_s = sum(tr.busy(first).values())
                        clear_pomcheck_caches()
                        with tr.span("cli.main", qid) as sp:
                            outcome = workloads.run_cli_query(q)
                        cli_self += sp.duration - library_s
                        ok = ok and workloads.outcome_ok(q, outcome)
            except Exception as exc:  # a raising query is a failed query
                failed += 1
                errors.append(workloads.describe_failure(q, exc))
                continue
            if not ok:
                failed += 1
                errors.append(workloads.describe_failure(q))
    wall = time.perf_counter() - start - paused
    busy = tr.busy()
    times = {metric: busy.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    times["cli.self_s"] = cli_self
    return tr, times, dict(counts), failed, wall
