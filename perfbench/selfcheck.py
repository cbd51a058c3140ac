"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py --workloads component-studies,korn-sweep --seed 7

For each workload it makes two traced runs of ``run.py`` with the same seed
(each has two untraced and two traced passes) and one run with a planted
wrong reference, and checks that:

1. traced and untraced passes give bit-identical checked outputs;
2. the exact counts ``korn.scan.evals``, ``korn.solve.calls`` and
   ``fields.quad_points`` repeat exactly across traced passes;
3. the planted wrong reference makes ``error_rate`` nonzero and the exit
   code nonzero.

It exits nonzero when any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

# counts that must repeat exactly across passes with the same inputs
EXACT_COUNTS = ("korn.scan.evals", "korn.solve.calls", "fields.quad_points")


def run(workload, seed, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    return out.returncode, json.loads(out.stdout.splitlines()[-1])


def check_workload(workload, seed):
    problems = []
    passes = []
    for _ in range(2):
        code, _ = run(workload, seed, "--trace", "1")
        if code != 0:
            problems.append(f"traced run exited with {code}")
        with open(os.path.join("perfbench", "out", f"{workload}-seed{seed}-trace1.json")) as f:
            passes.extend(json.load(f)["passes"])
    outputs = [p["outputs"] for p in passes]
    if any(o != outputs[0] for o in outputs):
        problems.append("checked outputs differ between passes")
    traced = [p["layers"] for p in passes if p["traced"]]
    for name in EXACT_COUNTS:
        counts = [layers[name][0] for layers in traced]
        if len(set(counts)) != 1:
            problems.append(f"{name} does not repeat: {counts}")
    code, result = run(workload, seed, "--trace", "0", "--plant")
    if code == 0 or result["failed"] == 0:
        problems.append(f"planted wrong reference not caught (exit {code}, "
                        f"{result['failed']} failed)")
    counts = {name: traced[0][name][0] for name in EXACT_COUNTS}
    return problems, len(passes), counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="component-studies,korn-sweep")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        problems, n, counts = check_workload(workload, args.seed)
        ok = ok and not problems
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"{workload}: {n} passes compared, counts {counts}: {status}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
