"""Self-check of the traced run's work counters.

    python3 perfbench/selfcheck.py [--workload W ...] [--seed 1]

Runs ``run.py --trace 1`` twice per workload with the same seed and fails
(exit 1) unless every per-layer count repeats exactly.  It also prints the
reference query's counts (Poisson(1) on Gamma(1, 3), f = 1.5, n = 400,
u = 1.0) next to the values measured when the benchmark was defined, and the
tracing overhead of each run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Reference-query counts at the commit that defined the benchmark.  A change
#: to the twist solver is expected to move them; the counters must still repeat.
DEFINED_AT = {"levy.ref_deriv_calls_per_solve": 153, "twist.ref_newton_iters_per_solve": 6}

WORKLOADS = ("approx-ladder", "validate-scatter", "cli-cold")


def traced(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    counts = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
              if m["unit"] == "count"]
    ok = True
    for workload in args.workload or WORKLOADS:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        diff = [name for name in counts
                if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        ok = ok and not diff
        print(f"{workload}: {len(counts) - len(diff)} of {len(counts)} counts repeat"
              + (f"; differ: {', '.join(diff)}" if diff else ""))
        for name, value in DEFINED_AT.items():
            got = first["metrics"][name]["value"]
            print(f"  {name} = {got:g} (at definition: {value})")
        overhead = [r["metrics"]["trace.overhead_ratio"]["value"] for r in (first, second)]
        print(f"  trace.overhead_ratio = {overhead[0]:.3f}, {overhead[1]:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
