"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads model_pipeline,cli_battery --seeds 1-10 [--trace 0]

Runs are sequential (one benchmark process at a time).  For every workload
and metric it prints the median of the runs and the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median, next to the bound in BENCHMARK.json.  `--out FILE` also
writes the raw results as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                                  capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print("%s seed %d correct %s %s" % (workload, seed, result["correct"], " ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items()
                if k in bounds)), flush=True)
        results[workload] = runs
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            if metric in bounds or args.trace:
                print("  %-14s %-40s median %12.6g  spread %.4f  bound %s"
                      % (workload, metric, med, spread, bounds.get(metric)))
        print("  %s: all correct %s" % (workload, all(r["correct"] for r in runs)), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
