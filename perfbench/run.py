"""The cylshell benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload korn-sweep --seed 1 --seconds 48 --trace 0

Workloads are ``korn-sweep`` and ``component-studies`` (see
``workloads.py``).  Each is a closed loop with one client: passes run one
after another in one fresh process (``worker.py``) with ``src`` on
PYTHONPATH, ``--jobs`` at its default of 1 and the BLAS thread count as
inherited.  Passes start while the longest one so far still ends within
``--seconds`` of the start of that process; there is always at least one.
Then fresh processes that only set up run until there have been at least
eleven set-ups in the run.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:
the median pass wall time, the median set-up time of a fresh process, the
peak RSS of the pass process through its set-up and first pass, and the share of cases that passed their
checks.  With ``--trace 1`` an untraced process and then a traced one each
get half of ``--seconds`` and at least two passes, and the last line reports
the median per-layer metrics of the traced passes (``spans.py``), the median
process metrics of the untraced ones, the difference of their median wall
times as the tracing overhead, and the time spent inside the span wrappers.
Earlier lines give a readable summary (with ``error_rate``) and the machine
and provenance block.  The whole record, spans included, goes
to ``perfbench/out``.  The exit code is 0 only when every case passed.

The benchmark never sets a BLAS thread count: the workers inherit the
caller's environment.  The single-threaded reference is a run with the
thread count limited in that environment:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/run.py --workload korn-sweep --seed 1 --seconds 48
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

WORKLOADS = ("korn-sweep", "component-studies")
MIN_SETUPS = 11
MIN_TRACE_PASSES = 2  # of each kind, untraced and traced
OUT = os.path.join("perfbench", "out")


class Worker:
    """One finished worker process and the passes it ran."""

    def __init__(self, traced, setup_only):
        self.traced = traced
        self.setup_only = setup_only
        self.setup_s = None
        self.ready = None
        self.records = []
        self.error = None


def spawn(args, env, index, traced=False, setup_only=False, budget=0.0, min_passes=1):
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--budget", repr(budget),
           "--min-passes", str(min_passes),
           "--artifacts", os.path.join(OUT, "artifacts", args.workload),
           "--spans", os.path.join(OUT, f"{args.workload}-seed{args.seed}-worker{index}-spans.json")]
    if setup_only:
        cmd.append("--setup-only")
    if index == 0:
        cmd.append("--provenance")
    if args.plant:
        cmd.append("--plant")
    worker = Worker(traced, setup_only)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    with proc.stdout:
        ready = proc.stdout.readline()
        worker.setup_s = time.monotonic() - t0
        rest = proc.stdout.read()
    proc.wait()
    try:
        worker.ready = json.loads(ready)
        worker.records = [json.loads(line) for line in rest.splitlines()]
        if not setup_only and not worker.records:
            raise ValueError
    except ValueError:
        worker.error = f"worker printed no result (exit code {proc.returncode})"
    if proc.returncode != 0:
        worker.error = f"worker exited with code {proc.returncode}"
    return worker


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def end_to_end(plain, setups, rss, attempted, failed):
    return {
        "wall_s": (median([r["wall_s"] for r in plain]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "pass_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(plain, traced, workers):
    metrics = {}
    for key, (_, unit) in traced[0]["layers"].items():
        metrics[key] = (median([r["layers"][key][0] for r in traced]), unit)
    plain_wall = median([r["wall_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    metrics.update({
        "proc.cpu_s": (median([r["cpu_s"] for r in plain]), "s"),
        "proc.cpu_per_wall": (median([r["cpu_s"] / r["wall_s"] for r in plain]), "ratio"),
        "proc.nivcsw": (median([r["nivcsw"] for r in plain]), "count"),
        "setup.import_s": (median([w.ready["import_s"] for w in workers]), "s"),
        "setup.warmup_s": (median([w.ready["warmup_s"] for w in workers]), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.wrapper_s": (median([r["wrapper_s"] for r in traced]), "s"),
    })
    return metrics


def main():
    parser = argparse.ArgumentParser(description="cylshell benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", action="store_true",
                        help="plant a wrong reference value (self-check only)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "cylshell", "cli.py")):
        print("error: run from the root of a cylshell checkout (no src/cylshell)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    env.pop("SHELLSPEC_SEED", None)  # rect-korn would take it over --seed

    if args.trace:
        budget = args.seconds / 2
        workers = [spawn(args, env, 0, budget=budget, min_passes=MIN_TRACE_PASSES)]
        if workers[0].error is None:
            workers.append(spawn(args, env, 1, traced=True, budget=budget,
                                 min_passes=MIN_TRACE_PASSES))
    else:
        workers = [spawn(args, env, 0, budget=args.seconds)]
        while len(workers) < MIN_SETUPS and workers[-1].error is None:
            workers.append(spawn(args, env, len(workers), setup_only=True))

    attempted = failed = 0
    failures = []
    for w in workers:
        cases = [case for r in w.records for case in r["cases"]]
        if w.error is not None:
            cases.append({"name": "worker", "failed": [w.error]})
        attempted += len(cases)
        for case in cases:
            if case["failed"]:
                failed += 1
                failures.append(f"{case['name']}: {'; '.join(case['failed'])}")
    plain = [r for w in workers if not w.traced for r in w.records]
    traced = [r for w in workers if w.traced for r in w.records]
    if not plain or (args.trace and not traced):
        print("error: no complete pass of each kind", *failures, sep="\n", file=sys.stderr)
        return 1
    ready = [w for w in workers if w.ready is not None]
    setups = [w.setup_s for w in ready]
    if args.trace:
        metrics = per_layer(plain, traced, ready)
    else:
        rss = [w.records[0]["maxrss_mb"] for w in workers if w.records]
        metrics = end_to_end(plain, setups, rss, attempted, failed)

    prov = dict(plain[0].pop("provenance"), git_commit=git_commit(),
                seed=args.seed, argv=sys.argv, workload=args.workload)
    walls = [r["wall_s"] for r in plain]
    record = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setups_s": setups,
        "workers": [{"traced": w.traced, "setup_s": w.setup_s, "passes": len(w.records)}
                    for w in workers if w.records],
        "passes": [{"traced": w.traced, **{k: v for k, v in r.items() if k != "event"}}
                   for w in workers for r in w.records],
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced, {len(traced)} traced  set-ups {len(setups)}")
    print(f"  wall_s per untraced pass: min {min(walls):.4f}  median {median(walls):.4f}"
          f"  max {max(walls):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} cases failed)")
    for line in failures:
        print(f"  FAILED {line}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
