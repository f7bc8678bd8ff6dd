"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds S \
        [--trace 0|1] [--json OUT]

Runs `run.py` once per seed, one after another, and prints for every
metric its median, first and third quartiles (statistics.quantiles with
n=4) and the spread (Q3 - Q1) / median, plus the failed share.  --json
writes the raw results, with the raw host.* figures of each run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--json")
    args = p.parse_args()
    results = []
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        res["seed"] = seed
        res["host"] = {line.split(":")[0]: float(line.split()[1])
                       for line in lines if line.startswith("host.")}
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    print(f"{'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} spread")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
