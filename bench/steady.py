#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics over repeated runs.

Run from the root of a checkout:

    python3 bench/steady.py --runs 10 [--workload pa-lfa ...] [--first-seed 1]

Runs ``bench/run.py`` once per seed (first-seed, first-seed + 1, ...), one
run at a time, with the run length from BENCHMARK.json.  For every workload
and end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median next to the metric's bound, plus the share of failed
operations in each run.  A metric whose spread exceeds its bound is marked
UNSTEADY, one above a third of its bound ``wide``; ``setup_s`` is judged
like the others.  Exits 1 if any workload is unsteady, reported a wrong
output, or varied in its failed share.  Every run's result line is kept
in ``.bench_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = {}
    steady = True
    for name in args.workload or workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed} ({elapsed:.0f} s): " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in runs[-1]["metrics"].items()), flush=True)
        results[name] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        if not all(r["correct"] for r in runs) or len(shares) != 1:
            steady = False
            print(f"{name}: correct {[r['correct'] for r in runs]}, failed shares {sorted(shares)}")
        print(f"{name}: failed share {sorted(shares)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            mark = "ok"
            if spread > bound:
                mark, steady = "UNSTEADY", False
            elif spread > bound / 3:
                mark = "wide"
            print(f"  {metric['name']:18s} median {med:.6g} {metric['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  bound {bound}  {mark}")
    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
