"""Workload inputs, their reference verdicts, and the untraced query loop.

Every query starts from source text.  The reference verdict of each
query is known without running pomcheck: the F1 table is derived by
hand, chain pairs are related exactly when their lengths agree, and the
corpus pairs are built so that their answer follows from the
construction (see README.md).

The seed renames labels, shuffles texts, orders queries and draws the
corpus trees.  The shape of every library model, the size of every
corpus tree, the query mix and the reference verdicts are fixed by the
workload.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import resource
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from pomcheck import RelationKind, bisim, cli, compile_tree, parse_term
from pomcheck import prebisim as pb
from pomcheck.grammar import format_pomset
from pomcheck.pomset import step_of
from pomcheck.synctree import SyncTree
from pomcheck.testgen import random_tree

LIBRARY_OPS = ("bisim", "prebisim", "fin_preorder")

# Labels the seed draws model labels from.  "z" is kept out: the corpus
# uses it as the fresh label of its relabelling construction.
LABEL_POOL = "abcdefghijklmnopqrstuvwxy"

# f1-pair: F1(4) over distinct labels.  F1(5) costs 1.65 s per batch of
# 9 pairs, too slow for 10 samples beyond p90 in one run.
F1_PAIR_N = 4
# f1-posetal: label multisets with and without repeats.  Repeats
# multiply the history isomorphisms; "aaabbb" alone takes 11 s and
# 440 MB per 54 queries, so the mix stops one size below it.
F1_POSETAL_PATTERNS = ("abcde", "aabbc", "aaabb")
# chain-step: chain(d) against chain(d) and chain(d - 1).
CHAIN_DEPTH = 12

# F1 reference verdicts, derived by hand.  P = {m}:0,
# Q = {m}:0 + x:({m - x}:0) and R = {m}:W + W for a label multiset m
# with first label x.  Bisimulation ignores divergence, so R behaves as
# P; Q's second summand orders x before the rest, which only the step
# kind cannot see.  A divergent left process owes only forward
# simulation; a convergent one also needs a convergent right process,
# so P <= R and Q <= R fail in every kind.
_ALL_PAIRS = frozenset(a + b for a in "PQR" for b in "PQR")
_BISIM_CAUSAL = frozenset({"PP", "QQ", "RR", "PR", "RP"})
_PRE_CAUSAL = frozenset({"PP", "QQ", "RR", "RP", "RQ"})
F1_REFERENCE = {
    "bisim": {"pomset": _BISIM_CAUSAL, "hp": _BISIM_CAUSAL,
              "hhp": _BISIM_CAUSAL, "step": _ALL_PAIRS},
    "prebisim": {"pomset": _PRE_CAUSAL, "hp": _PRE_CAUSAL,
                 "hhp": _PRE_CAUSAL, "step": _PRE_CAUSAL | {"PQ", "QP"}},
}
F1_REFERENCE["fin_preorder"] = F1_REFERENCE["prebisim"]

# corpus-cli models: seeded testgen.random_tree trees over {a, b, c}.
CORPUS_ALPHABET = ("a", "b", "c")
CORPUS_TREE_SIZE = 7
APPROX_MAX_LEVEL = 64


# The corpus query mix.  Pairs are built from a random tree L:
#   reorder      L against L with summands and step labels shuffled
#                in the text: the same tree, related in every sense;
#   diverge      L (root made convergent) against L + W: bisimilar,
#                and L <= L + W fails because L + W diverges;
#   diverge_rev  L + W against L: L + W <= L holds (a divergent left
#                process owes only forward simulation);
#   relabel      L_z against L, where L_z relabels the events of one
#                root step prefix to the fresh label z: L cannot match
#                that transition, so neither bisim nor L_z <= L holds.
# Columns: operation (a `check` flavour, `approx` or `explain`), kind,
# pair, semantics, --witness, --json, reference verdict (related /
# holds / stable / no distinguishing tree).
CORPUS_MIX = (
    ("bisim", "pomset", "reorder", "es", False, True, True),
    ("bisim", "step", "diverge", "es", False, False, True),
    ("bisim", "hp", "relabel", "es", True, False, False),
    ("bisim", "hp", "reorder", "es", False, False, True),
    ("bisim", "hhp", "relabel", "es", False, True, False),
    ("bisim", "hhp", "diverge", "es", False, False, True),
    ("prebisim", "pomset", "diverge_rev", "es", False, False, True),
    ("prebisim", "step", "diverge", "es", True, False, False),
    ("prebisim", "hp", "relabel", "es", False, True, False),
    ("prebisim", "hhp", "reorder", "es", False, False, True),
    ("prebisim", "hhp", "diverge", "es", True, False, False),
    ("kernel", "pomset", "relabel", "es", False, False, False),
    ("kernel", "step", "reorder", "es", False, False, True),
    ("kernel", "hp", "diverge_rev", "es", False, False, False),
    ("kernel", "hhp", "reorder", "es", False, True, True),
    ("bisim", "pomset", "relabel", "tree-native", True, False, False),
    ("bisim", "step", "diverge", "tree-native", False, False, True),
    ("prebisim", "pomset", "diverge", "tree-native", False, True, False),
    ("prebisim", "step", "relabel", "tree-native", False, False, False),
    ("prebisim", "step", "reorder", "tree-native", False, False, True),
    ("approx", "pomset", "relabel", "es", False, False, False),
    ("approx", "step", "reorder", "es", False, False, True),
    ("approx", "hp", "diverge", "es", False, False, False),
    ("approx", "hhp", "diverge_rev", "es", False, False, True),
    ("explain", "pomset", "diverge", "es", False, False, False),
    ("explain", "step", "relabel", "es", False, False, False),
    ("explain", "hp", "reorder", "es", False, False, True),
    ("explain", "hhp", "relabel", "es", False, False, False),
)


# The fixed-work prefix of a workload: whole cycles that take about 4 s
# on a 2-core box.  Peak RSS is read once a timed run has completed this
# many queries: pomcheck's memo tables are unbounded, so RSS grows with
# every query, and read at the end of a timed run it would charge a
# faster program for the extra queries it completes.  The traced run
# replays exactly these queries, so its counts and busy times are per
# fixed work too.
FIXED_QUERIES = {
    "f1-pair": 3 * 54,
    "f1-posetal": 162,
    "chain-step": 10 * 9,
    "corpus-cli": 40 * len(CORPUS_MIX),
}


@dataclass(frozen=True)
class Query:
    """One decision query: left and right model texts plus what to ask.

    ``expected`` is the reference verdict.  ``path`` is set for corpus
    queries, which go through the command line on a process file.
    """

    op: str
    kind: str
    left: str
    right: str
    expected: bool
    witness: bool = False
    semantics: str = "es"
    json_out: bool = False
    path: str = ""

    @property
    def argv(self):
        names = ["--left", "L", "--right", "R", "--rel", self.kind]
        if self.op == "approx":
            return ["approx", *names, "--max-level", str(APPROX_MAX_LEVEL),
                    self.path]
        if self.op == "explain":
            return ["explain", *names, self.path]
        argv = ["check", *names]
        if self.op == "prebisim":
            argv.append("--pre")
        elif self.op == "kernel":
            argv.append("--kernel")
        if self.witness:
            argv.append("--witness")
        if self.json_out:
            argv.append("--json")
        if self.semantics != "es":
            argv += ["--semantics", self.semantics]
        return argv + [self.path]

    @property
    def expected_exit(self) -> int:
        return 0 if self.expected else 1


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _step_text(labels, rng):
    labels = list(labels)
    rng.shuffle(labels)
    return labels[0] if len(labels) == 1 else "{" + ",".join(labels) + "}"


def f1_sources(pattern, rng):
    """P, Q and R of F1 over ``pattern``, with labels renamed by ``rng``."""
    letters = sorted(set(pattern))
    rename = dict(zip(letters, rng.sample(LABEL_POOL, len(letters))))
    labels = [rename[c] for c in pattern]
    first, rest = labels[0], labels[1:]
    return {
        "P": f"{_step_text(labels, rng)}:0",
        "Q": f"{_step_text(labels, rng)}:0 + {first}:({_step_text(rest, rng)}:0)",
        "R": f"{_step_text(labels, rng)}:W + W",
    }


def f1_queries(patterns, kinds, rng):
    queries = []
    for pattern in patterns:
        src = f1_sources(pattern, rng)
        for kind in kinds:
            for op in LIBRARY_OPS:
                for pair in sorted(_ALL_PAIRS):
                    queries.append(Query(
                        op, kind, src[pair[0]], src[pair[1]],
                        pair in F1_REFERENCE[op][kind],
                        witness=op == "bisim",
                    ))
    return queries


def chain_source(depth, label):
    text = f"{label}:0"
    for _ in range(depth - 1):
        text = f"{label}:({text})"
    return text


def chain_queries(depth, rng):
    label = rng.choice(LABEL_POOL)
    long, short = chain_source(depth, label), chain_source(depth - 1, label)
    pairs = ((long, long, True), (long, short, False), (short, long, False))
    return [
        Query(op, "step", left, right, related, witness=op == "bisim")
        for op in LIBRARY_OPS
        for left, right, related in pairs
    ]


def format_shuffled(tree: SyncTree, rng) -> str:
    """``tree`` as text, with summands and step labels in random order."""
    if not tree.summands:
        return "W" if tree.divergent else "0"
    parts = []
    for pom, child in tree.summands:
        if pom.is_step():
            head = _step_text(pom.label_multiset(), rng)
        else:
            head = format_pomset(pom)
        body = format_shuffled(child, rng)
        parts.append(f"{head}:({body})" if child.summands else f"{head}:{body}")
    rng.shuffle(parts)
    if tree.divergent:
        parts.append("W")
    return " + ".join(parts)


def _relabel_root_step(tree: SyncTree, rng) -> SyncTree:
    """``tree`` with the events of one root step prefix relabelled to z."""
    steps = [i for i, (pom, _) in enumerate(tree.summands) if pom.is_step()]
    i = rng.choice(steps)
    summands = list(tree.summands)
    pom, child = summands[i]
    summands[i] = (step_of(["z"] * len(pom)), child)
    return SyncTree(summands, tree.divergent)


def _corpus_pair(construction, tree, rng):
    """(left tree, right tree, left text, right text) of one construction."""
    if construction == "reorder":
        return tree, tree, format_shuffled(tree, rng), format_shuffled(tree, rng)
    if construction == "relabel":
        left = _relabel_root_step(tree, rng)
        return left, tree, format_shuffled(left, rng), format_shuffled(tree, rng)
    conv = SyncTree(tree.summands, False)
    div = conv.with_omega()
    if construction == "diverge":
        left, right = conv, div
    else:
        left, right = div, conv
    return left, right, format_shuffled(left, rng), format_shuffled(right, rng)


def corpus_cycles(rng, workdir):
    """Endless copies of CORPUS_MIX, each on fresh models.

    No tree appears in two queries, so the command line's memoized
    compile never answers a query from an earlier one.  Every query's
    process file is written to ``workdir`` when its cycle is made; the
    next cycle overwrites the files, so a cycle's queries must run
    before the next cycle is drawn.
    """
    used = set()
    while True:
        cycle = []
        for i, (op, kind, construction, semantics, witness, json_out,
                expected) in enumerate(CORPUS_MIX):
            while True:
                tree = random_tree(rng, CORPUS_TREE_SIZE, CORPUS_ALPHABET)
                if not any(p.is_step() for p, _ in tree.summands):
                    continue
                left, right, ltext, rtext = _corpus_pair(construction, tree, rng)
                if left in used or right in used:
                    continue
                used.update((left, right))
                break
            path = os.path.join(workdir, f"q{i:02d}.pom")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"proc L = {ltext}\nproc R = {rtext}\n")
            cycle.append(Query(op, kind, ltext, rtext, expected, witness,
                               semantics, json_out, path))
        yield cycle


class Inputs:
    """The generated inputs of one workload run, as cycles of queries.

    A library workload repeats one cycle for as long as the run lasts
    (each query parses and compiles its own models).  The corpus draws
    a fresh cycle on distinct models, written out as process files,
    each time the last one is used up, so it never runs out.  The first
    cycle is made here, as part of set-up.
    """

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.workdir = None
        rng = random.Random(f"{workload}/{seed}")
        if workload == "f1-pair":
            base = "abcdefghijklmnop"[:F1_PAIR_N]
            cycle = f1_queries([base], ("pomset", "step"), rng)
        elif workload == "f1-posetal":
            cycle = f1_queries(F1_POSETAL_PATTERNS, ("hp", "hhp"), rng)
        elif workload == "chain-step":
            cycle = chain_queries(CHAIN_DEPTH, rng)
        elif workload == "corpus-cli":
            self.workdir = workdir
            os.makedirs(workdir, exist_ok=True)
            self._more = corpus_cycles(rng, workdir)
            self.first = next(self._more)
            return
        else:
            raise ValueError(f"unknown workload {workload!r}")
        rng.shuffle(cycle)
        self.first = cycle
        self._more = itertools.repeat(cycle)

    @property
    def cycle_size(self) -> int:
        return len(self.first)

    def reference_counts(self):
        """How many queries of a cycle expect each verdict; the same in every cycle."""
        related = sum(q.expected for q in self.first)
        return {"related": related, "not_related": len(self.first) - related}

    def cycles(self):
        """Cycles in run order, endless.  Drawing a corpus cycle writes its files."""
        yield self.first
        yield from self._more

    def cleanup(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# untraced execution
# ---------------------------------------------------------------------------


def run_library_query(q: Query) -> bool:
    """Source text to verdict (with witness when asked) through the library."""
    left = compile_tree(parse_term(q.left))[1]
    right = compile_tree(parse_term(q.right))[1]
    kind = RelationKind(q.kind)
    if q.op == "bisim":
        return bisim(left, right, kind, want_witness=q.witness).related
    if q.op == "prebisim":
        return pb.prebisim(left, right, kind, want_witness=q.witness).related
    return pb.fin_preorder(left, right, kind, want_witness=q.witness).related


def run_cli_query(q: Query):
    """(exit code, captured stdout) of ``pomcheck.cli.main`` on the query."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(q.argv)
    return code, out.getvalue()


def describe_failure(q: Query, exc=None) -> str:
    what = (f"{type(exc).__name__}: {exc}" if exc is not None
            else f"wrong verdict or exit code (expected {q.expected})")
    return f"{q.op}/{q.kind}/{q.semantics}: {what} on {q.left!r} vs {q.right!r}"


def execute(q: Query):
    """Run one query: its verdict, or for the command line (exit code, stdout)."""
    if q.path:
        return run_cli_query(q)
    return run_library_query(q)


def outcome_ok(q: Query, outcome) -> bool:
    """Whether ``execute``'s outcome matches the reference.

    For the command line the exit code must match, and under --json the
    ``related`` field too.
    """
    if not q.path:
        return outcome is q.expected
    code, stdout = outcome
    if code != q.expected_exit:
        return False
    if q.json_out:
        lines = stdout.strip().splitlines()
        return bool(lines) and json.loads(lines[-1])["related"] is q.expected
    return True


def run_timed(inputs: Inputs, seconds: float, errors: list, limit=None):
    """Closed loop, one client: queries in order until ``seconds`` have passed.

    The loop stops between queries, so a run ends on time whatever the
    cost of one cycle; with ``limit`` it stops after that many queries
    at the latest.  Drawing a fresh corpus cycle is not measured: it
    counts neither in a latency nor in the run time.  Returns per-query
    latencies (s), the failure count, the measured run time and the
    process's peak RSS (MB), read once ``FIXED_QUERIES`` queries have
    completed (or at the end of a run too short to get there).
    """
    latencies = []
    failed = 0
    rss_mb = None
    rss_after = FIXED_QUERIES[inputs.workload]
    paused = 0.0
    start = time.perf_counter()
    cycles = inputs.cycles()
    while True:
        t = time.perf_counter()
        cycle = next(cycles)
        paused += time.perf_counter() - t
        for q in cycle:
            t0 = time.perf_counter()
            try:
                outcome = execute(q)
            except Exception as exc:  # a raising query is a failed query
                outcome, error = None, describe_failure(q, exc)
            else:
                error = None
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if error is None and not outcome_ok(q, outcome):
                error = describe_failure(q)
            if error is not None:
                failed += 1
                errors.append(error)
            if len(latencies) == rss_after:
                rss_mb = peak_rss_mb()
            if t1 - paused - start >= seconds or len(latencies) == limit:
                wall = t1 - paused - start
                return latencies, failed, wall, rss_mb or peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
