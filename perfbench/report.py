"""Run every workload once and print one table of its metrics.

    python3 perfbench/report.py [--seed 1] [--trace 0|1]

Run from the root of a checkout.  Rows are metrics (with their units),
columns are workloads.  Each run measures for BENCHMARK.json's
``run_seconds``.  With ``--trace 0`` the table also has
``fail_ratio`` (failed / attempted operations).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    names = list(workloads.WORKLOADS)
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    columns = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{name} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        if not args.trace:
            metrics["fail_ratio"] = (result["failed"] / result["attempted"], "ratio")
        columns[name] = metrics
    rows = list(dict.fromkeys(k for col in columns.values() for k in col))
    width = max(len(r) for r in rows) + 8
    print(f"{'metric':<{width}}" + "".join(f"{n:>14}" for n in names))
    for row in rows:
        unit = next(col[row][1] for col in columns.values() if row in col)
        cells = "".join(
            f"{columns[n][row][0]:>14.5g}" if row in columns[n] else f"{'-':>14}"
            for n in names
        )
        print(f"{row + ' [' + unit + ']':<{width}}" + cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
