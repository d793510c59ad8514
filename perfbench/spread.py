#!/usr/bin/env python3
"""Run the benchmark once per seed 1-10 and report each end-to-end metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --label set1

Runs are sequential, over BENCHMARK.json's workloads at its run length.  For
every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the inter-quartile distance as a
share of the median, next to the metric's bound, and writes the table to
``results/spread-<label>.json``.
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
SEEDS = range(1, 11)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table: dict[str, dict] = {}
    for name in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {m: [] for m in bounds}
        shares = set()
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: outputs incorrect", file=sys.stderr)
                return 1
            shares.add(result["failed"] / result["attempted"])
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        rows = {}
        for metric, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            rows[metric] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median, "bound": bounds[metric],
                            "values": series}
            print(f"{name:14s} {metric:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {rows[metric]['spread']:.3f} (bound {bounds[metric]})", flush=True)
        table[name] = {"failed_shares": sorted(shares), "metrics": rows}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / f"spread-{args.label}.json").write_text(
        json.dumps(table, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
