"""Steadiness of the benchmark: repeated runs of one workload.

Run from the repository root::

    python3 perfbench/steady.py --workload kdd98-cont --runs 10 --first-seed 1

Each run is a fresh ``perfbench/run.py`` process with the next seed.  For
every metric the command prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the bound
``BENCHMARK.json`` sets.  A spread under a third of its bound is marked
``ok``.  It also checks that every run had the same share of failed
operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append(result)
        values = " ".join(f"{name}={entry['value']:.4g}"
                          for name, entry in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{values}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}")
    steady = True
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        mid = statistics.median(values)
        spread = (q3 - q1) / abs(mid) if mid else float("inf")
        bound = bounds.get(name) if not args.trace else None
        verdict = ""
        if bound is not None and name != "setup_s":
            ok = spread < bound / 3
            steady &= ok
            verdict = "ok" if ok else "WIDE"
        print(f"{name:<28} {mid:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3%} {bound if bound is not None else '':>6} {verdict}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    print(f"all correct: {all(r['correct'] for r in runs)}")
    return 0 if steady and len(shares) == 1 and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
