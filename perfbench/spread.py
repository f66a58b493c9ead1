"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload approx-ladder --runs 10 [--first-seed 1]

Runs ``run.py --trace 0`` once per seed and prints, per metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
range as a share of the median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {line}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {(q3 - q1) / med:>8.3f} "
              f"{metric['bound']:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
