"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload component-studies --seeds 1-10 --seconds 48

For each metric it prints the median of the per-seed values, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and the spread, the
distance between the quartiles as a share of the median.  ``--save FILE``
adds the summary and every run's result line, under the workload's name, to
a JSON file such as ``perfbench/baseline.json``.  Extra arguments after
``--`` go to ``run.py`` unchanged.  The runs inherit the environment, so
``OPENBLAS_NUM_THREADS=1 python3 perfbench/spread.py ...`` records the
single-threaded reference.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="48")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--save", default=None)
    parser.add_argument("--key", default=None, help="entry name in --save (default: workload)")
    args, extra = parser.parse_known_args()
    extra = [a for a in extra if a != "--"]
    results = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace, *extra],
            stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(out.stdout.splitlines()[-1])
        results.append(result)
        values = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: exit {out.returncode} correct={result['correct']} {values}",
              flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:12.6g} {s['unit']:10s} "
              f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}")
    if args.save:
        saved = {}
        if os.path.exists(args.save):
            with open(args.save) as f:
                saved = json.load(f)
        record = os.path.join("perfbench", "out",
                              f"{args.workload}-seed{args.seeds[0]}-trace{args.trace}.json")
        with open(record) as f:
            provenance = json.load(f)["provenance"]
        saved[args.key or args.workload] = {
            "argv": sys.argv, "provenance": provenance, "summary": summary, "runs": results}
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
            f.write("\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
