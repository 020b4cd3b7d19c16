"""pomcheck query benchmark: one workload per invocation.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a pomcheck checkout; the package is imported from
its ``src/``.  With ``--trace 0`` it prints the end-to-end metrics of an
untraced run, with ``--trace 1`` the per-layer metrics of two traced
replays of the workload's fixed prefix of queries.  Metric names, units
and their order come from BENCHMARK.json.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
The exit code is 0 only when every verdict and exit code matched its
reference.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Set-up is timed in this many processes per run and reported as their
# median (the timed process is one of them).
SETUP_SAMPLES = 7
# All worker processes of one run must end within this many seconds.
RUN_BUDGET_S = 170

# ratio metric -> (numerator count, denominator count)
RATIOS = {
    "pomset.distinct_ratio": ("pomset.distinct", "estructure.extensions"),
    "engine.reachable_pair_ratio": ("engine.reachable_pairs", "engine.pairs"),
    "engine.triple_ratio": ("engine.triples", "engine.config_pairs"),
}


def load_spec():
    """Workload names, and metric name -> unit per mode, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {section: {m["name"]: m["unit"] for m in spec[section]}
             for section in ("end_to_end", "per_layer")}
    return [w["name"] for w in spec["workloads"]], units


class BenchError(Exception):
    """A worker failed to produce a result."""


@dataclass
class Report:
    run: dict  # the result of the untraced timed worker
    metrics: dict
    notes: dict
    lines: list
    attempted: int
    failed: int
    ok: bool  # no worker reported an error, and counts repeated


def worker(mode, args, *extra):
    timeout = args.deadline - time.monotonic()
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_BUDGET_S} s in a {mode} worker") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for err in result["errors"]:
        print(f"{mode}: {err}", file=sys.stderr)
    return result


def percentile(values, pct):
    """The ``pct``-th percentile, with the count of samples above it."""
    cut = statistics.quantiles(values, n=100)[pct - 1] if len(values) > 1 else values[0]
    return cut, sum(v > cut for v in values)


def end_to_end(args):
    # The timed pass goes first, so no earlier process's file writes
    # and deletions are still being flushed while it runs.
    run = worker("timed", args)
    setups = [run["setup_s"]] + [worker("setup", args)["setup_s"]
                                 for _ in range(SETUP_SAMPLES - 1)]
    lat_ms = [x * 1000 for x in run["latencies"]]
    attempted, failed = len(lat_ms), run["failed"]
    # Percentiles over whole cycles, so every run weighs the query mix
    # alike; a partial last cycle counts only towards queries_per_s.
    whole = attempted - attempted % run["cycle"] or attempted
    sample = lat_ms[:whole]
    p90, beyond = percentile(sample, 90)
    metrics = {
        "query_p50_ms": statistics.median(sample),
        "query_p90_ms": p90,
        "queries_per_s": attempted / run["wall"],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    notes = {
        "query_p50_ms": f"samples={whole}",
        "query_p90_ms": f"samples={whole}, beyond={beyond}",
        "queries_per_s": f"{attempted} queries in {run['wall']:.2f} s",
        "setup_s": f"median of {len(setups)}",
    }
    lines = [f"failed_frac {failed / attempted} ratio ({failed}/{attempted})"]
    return Report(run, metrics, notes, lines, attempted, failed, not run["errors"])


def per_layer(args):
    # The untraced reference and both traced replays run the same fixed
    # prefix of queries, so counts and busy times are per fixed work.
    ref = worker("timed", args, "--fixed")
    n = len(ref["latencies"])
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    traced = [
        worker("traced", args, "--trace-out",
               os.path.join(ROOT, ".perfbench",
                            f"trace-{args.workload}-seed{args.seed}-{i}.json"))
        for i in (1, 2)
    ]
    counts = traced[0]["counts"]
    lines = []
    counts_repeat = counts == traced[1]["counts"]
    if not counts_repeat:
        diff = {k: (v, traced[1]["counts"].get(k)) for k, v in counts.items()
                if traced[1]["counts"].get(k) != v}
        print(f"per-layer counts differ between traced runs: {diff}", file=sys.stderr)
    lines.append(f"exact-count self-check: {'passed' if counts_repeat else 'FAILED'}")
    metrics = dict(counts)
    for name in traced[0]["times"]:
        metrics[name] = statistics.fmean(t["times"][name] for t in traced)
    for name, (num, den) in RATIOS.items():
        metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
    traced_wall = statistics.fmean(t["wall"] for t in traced)
    metrics["trace.overhead_frac"] = traced_wall / ref["wall"] - 1
    notes = {"trace.overhead_frac": f"traced {traced_wall:.2f} s / untraced "
                                    f"{ref['wall']:.2f} s over {n} queries"}
    attempted = n + sum(t["counts"]["trace.queries"] for t in traced)
    failed = ref["failed"] + sum(t["failed"] for t in traced)
    ok = (counts_repeat and counts["trace.queries"] == n and not ref["errors"]
          and not any(t["errors"] for t in traced))
    return Report(ref, metrics, notes, lines, attempted, failed, ok)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads, units = load_spec()
    if args.workload not in workloads:
        ap.error(f"--workload must be one of {', '.join(workloads)}")
    args.deadline = time.monotonic() + RUN_BUDGET_S
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "pomcheck", "__init__.py")):
        print(f"no pomcheck sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    units = units[("end_to_end", "per_layer")[args.trace]]
    measure = per_layer if args.trace else end_to_end
    try:
        rep = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(rep.metrics) != set(units):
        print(f"metrics measured {sorted(rep.metrics)} are not those listed in "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    rep.metrics = {name: rep.metrics[name] for name in units}
    run = rep.run
    print("env " + json.dumps(dict(run["env"], workload=args.workload,
                                   trace=args.trace)))
    print(f"inputs: cycles of {run['cycle']} queries; reference verdicts per "
          f"cycle: {json.dumps(run['reference'])}")
    for name, value in rep.metrics.items():
        note = f"  ({rep.notes[name]})" if name in rep.notes else ""
        print(f"{name} {value} {units[name]}{note}")
    for line in rep.lines:
        print(line)
    correct = rep.ok and rep.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in rep.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
