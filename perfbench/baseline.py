"""Run the benchmark over several seeds and summarise how steady it is.

Usage (from the repository root):

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10] [--seconds 20]
                                  [--out perfbench/baseline.json]

For every workload it runs ``run.py --trace 0`` once per seed, one run at
a time, and reports each end-to-end metric's median, quartiles and spread
(interquartile distance over the median, from
``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound in BENCHMARK.json.  It then makes one ``--trace 1`` run with the
first seed for the per-layer numbers.  With ``--out`` the summary, with
the run's provenance, is written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, provenance
from workloads import BENCH, WORKLOADS


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.monotonic() - started
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit("run failed: %s (exit %d)\n%s%s" % (" ".join(cmd), proc.returncode,
                                                    proc.stdout, proc.stderr))
    return result, took


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    seconds = args.seconds or BENCH["run_seconds"]
    seeds = parse_seeds(args.seeds)
    summary = {"provenance": provenance(), "seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in args.workloads.split(","):
        values, took = {}, []
        for seed in seeds:
            result, secs = one_run(name, seed, seconds, 0)
            took.append(secs)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        end_to_end = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            end_to_end[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print("%-13s %-12s median %-12.6g spread %.4f (third of bound %.4f)"
                  % (name, metric, med, spread, bounds[metric] / 3), flush=True)
        traced, secs = one_run(name, seeds[0], seconds, 1)
        print("%-13s run seconds: max %.1f, traced %.1f" % (name, max(took), secs), flush=True)
        summary["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": {m: e["value"] for m, e in traced["metrics"].items()},
            "run_s_max": max(took),
        }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
