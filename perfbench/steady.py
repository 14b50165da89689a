#!/usr/bin/env python3
"""Steadiness mode: repeat a workload over several seeds and summarise.

    python3 perfbench/steady.py --workload open-filter --seeds 10

Runs ``perfbench/run.py`` untraced once per seed (101, 102, ...), for
``run_seconds`` of BENCHMARK.json, one run at a time, and prints
for every metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the distance between the quartiles as a share
of the median. For end-to-end metrics it prints the bound from
BENCHMARK.json and whether the spread stays below a third of it; the
bounds in BENCHMARK.json were set from this output (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 101


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed share={share:.6g}", flush=True)

    steady = True
    print(f"\n{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            ok = spread < bound / 3.0
            steady &= ok
            note = f"{bound:<5g} {'ok' if ok else 'SPREAD ABOVE BOUND/3'}"
        print(f"{name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {note}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\nfailed share per run: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in results)}")
    return 0 if steady and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
