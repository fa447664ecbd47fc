"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload fine_grid --runs 10 [--first-seed 100]

Runs ``run.py`` once per seed, one run at a time, and prints each metric's
median and the distance between its first and third quartiles as a share
of the median, as ``statistics.quantiles(values, n=4)`` gives them, next to
the metric's bound in BENCHMARK.json.
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                               "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload:<20} {metric['name']:<22} median {statistics.median(vals):.5g} "
              f"spread {(q3 - q1) / statistics.median(vals):.3f} (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
