"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload shallow --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, then prints for each end-to-end
metric its median, its quartiles (``statistics.quantiles(n=4)``) and the
quartile distance as a share of the median, next to the metric's bound.
A metric is steady when that share stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed "
              + " ".join(f"{k}={v:.4f}" for k, v in row.items()), flush=True)
        for name in values:
            values[name].append(row[name])
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{metric['name']}: median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
              f"spread={share:.4f} bound={metric['bound']} "
              f"{'steady' if share < metric['bound'] / 3 else 'NOT steady'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
