"""One pass of one workload, in a process of its own.

    python3 perfbench/worker.py --mode setup|timed|traced --workload W
        --seed N --seconds S [--fixed] [--trace-out FILE]

``setup`` only imports pomcheck and builds the inputs; ``timed`` then
runs the untraced closed loop for ``--seconds``, or with ``--fixed``
for the workload's fixed-work prefix (``workloads.FIXED_QUERIES``);
``traced`` replays that prefix layer by layer.  The result is one JSON
object on the last line of stdout.  run.py starts these processes; a
fresh process per pass keeps pomcheck's module-level caches from
carrying answers from one pass into the next.
"""

from __future__ import annotations

import time

# setup_s counts from here: imports, then input generation.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def environment(seed):
    import pomcheck

    return {
        "python": platform.python_version(),
        "backend": pomcheck.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--fixed", action="store_true")
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import pomcheck

    if os.path.dirname(os.path.abspath(pomcheck.__file__)) != os.path.join(SRC, "pomcheck"):
        print(f"pomcheck imported from {pomcheck.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = workloads.Inputs(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - _T0
    errors = []
    result = {"setup_s": setup_s, "env": environment(args.seed),
              "cycle": inputs.cycle_size, "reference": inputs.reference_counts()}
    fixed = workloads.FIXED_QUERIES[args.workload]
    try:
        if args.mode == "timed":
            seconds = math.inf if args.fixed else args.seconds
            latencies, failed, wall, rss = workloads.run_timed(
                inputs, seconds, errors, limit=fixed if args.fixed else None)
            result.update(latencies=latencies, failed=failed, wall=wall,
                          peak_rss_mb=rss)
        elif args.mode == "traced":
            import tracing

            tr, times, counts, failed, wall = tracing.run_traced(
                inputs, fixed, errors)
            result.update(times=times, counts=counts, failed=failed, wall=wall)
            if args.trace_out:
                with open(args.trace_out, "w", encoding="utf-8") as fh:
                    json.dump({"workload": args.workload, "env": result["env"],
                               "span_fields": ["name", "start_s", "end_s",
                                               "parent", "query"],
                               "spans": tr.spans, "times": times,
                               "counts": counts}, fh)
    finally:
        inputs.cleanup()
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # Skip interpreter teardown: freeing pomcheck's memo tables object by
    # object takes up to 8 s after a 20 s f1-posetal run.
    os._exit(code)
