#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json in two back-to-back sets of runs,
each run with its own seed, and checks the end-to-end metrics against
their bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Run from the repository root. Set 1 uses seeds first-seed .. first-seed +
runs - 1, set 2 the next `runs` seeds. For each (workload, metric) the
script prints both sets' medians and spreads, how much worse the second
median is than the first (in the metric's direction; negative is
better), and a verdict:

- FAIL: a spread above the bound (setup_s exempt), or a second median
  worse than the first by more than the bound. This is the acceptance
  rule, and the script exits 1 if any pair fails it.
- wide: passes, but a spread is at or above a third of the bound, the
  margin the benchmark aims for.
- ok: both spreads below a third of the bound.

The spread is (Q3 - Q1) / median over one set, with the quartiles of
Python's statistics.quantiles(values, n=4). Each run's values go to
stderr as one JSON line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = [
        *bench["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct: {result}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(json.dumps({"workload": workload, "seed": seed, "metrics": values}),
          file=sys.stderr, flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {}
    for s in range(2):
        for w in workloads:
            first = args.first_seed + s * args.runs
            runs[w, s] = [run_once(bench, w, first + i) for i in range(args.runs)]
    passed = True
    print(f"{'workload':18} {'metric':20} {'bound':>5} {'median 1':>11} {'spread 1':>8} "
          f"{'median 2':>11} {'spread 2':>8} {'worse by':>8}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in runs[w, s]] for s in range(2)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            fail = worse > bound or (name != "setup_s" and max(spreads) > bound)
            passed &= not fail
            verdict = "FAIL" if fail else "wide" if max(spreads) >= bound / 3 else "ok"
            print(f"{w:18} {name:20} {bound:>5} {medians[0]:>11.6g} {spreads[0]:>8.3f} "
                  f"{medians[1]:>11.6g} {spreads[1]:>8.3f} {worse:>+8.3f}  {verdict}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
