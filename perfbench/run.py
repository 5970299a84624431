"""gridcube benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

    python3 perfbench/run.py --workload embed-cube3 --seed 1 --seconds 1 --trace 0

Run from the root of a checkout.  Every measurement runs in a fresh child
interpreter (perfbench/child.py), one child at a time, each on one thread:

* ``--trace 0``: one child that sets up, makes timed passes over the
  workload until ``--seconds`` seconds have passed (at least one pass), and
  reads its peak RSS.
* ``--trace 1``: one plain child (one pass) and one traced child; the
  per-layer metrics come from the traced one, and ``trace.overhead_ratio``
  compares the two.  Workloads that run ``audit_grid`` get a third child
  for ``checks.pipeline_battery.peak_mb`` (tracemalloc slows the code it
  watches, so it never runs inside a timed span).

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIME_LIMIT_S = 170.0
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, args, deadline: float, seconds: float) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
    ]
    env = {**os.environ, **CHILD_ENV}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before the child started")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child ran out of time") from None
    if proc.returncode != 0:
        raise ChildFailed(
            f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> float:
    """Highest of p90/p99/p99.9 with at least ten samples above it; 100 (the
    maximum) when there are too few samples for any of them."""
    best = 100.0
    for p in (90.0, 99.0, 99.9):
        if n - math.ceil(p / 100 * n) >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def end_to_end(main: dict) -> tuple[dict, list[str]]:
    op_s = main["op_s"]
    tail_p = tail_percentile(len(op_s))
    metrics = {
        "setup_s": main["import_s"] + main["labelings_s"],
        "run_s": statistics.median(main["pass_s"]),
        "op_s.p50": statistics.median(op_s),
        "op_s.tail": percentile(op_s, tail_p),
        "peak_rss_mb": main["peak_rss_mb"],
        "dilation.max": main["dilation_max"],
    }
    notes = [
        f"passes: {len(main['pass_s'])}, operations: {len(op_s)}, "
        f"op_s.tail is p{tail_p:g}",
        f"fail_ratio: {main['failed'] / main['attempted']:.6g} "
        f"({main['failed']} of {main['attempted']} operations)",
    ]
    return metrics, notes


def per_layer(plain: dict, traced: dict, memory: dict | None) -> tuple[dict, list[str]]:
    layers = dict(traced["layers"])
    if memory is None:
        # pipeline_battery never runs in this workload
        layers["checks.pipeline_battery.peak_mb"] = 0.0
    else:
        layers.update(memory["layers"])
    layers["setup.import_s"] = plain["import_s"]
    layers["setup.labelings_s"] = plain["labelings_s"]
    layers["trace.overhead_ratio"] = layers["trace.run_s"] / plain["pass_s"][0]
    own = sum(v for k, v in traced["layers"].items() if k.endswith(".s"))
    notes = [
        f"spans: {traced['spans_file']}",
        f"layer self times {own:.4f} s + trace.unattributed_s "
        f"{layers['trace.unattributed_s']:.4f} s = trace.labelings_s "
        f"{layers['trace.labelings_s']:.4f} s + trace.run_s {layers['trace.run_s']:.4f} s",
    ]
    if traced["absent"]:
        notes.append(f"absent (not in this gridcube): {', '.join(traced['absent'])}")
    return dict(sorted(layers.items())), notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not Path("src/gridcube/__init__.py").is_file():
        print("error: run from the root of a gridcube checkout (no src/gridcube)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    units = metric_units()
    try:
        if args.trace:
            plain = run_child("run", args, deadline, 0)
            traced = run_child("trace", args, deadline, 0)
            runs = [plain, traced]
            memory = None
            if any(kind == workloads.AUDIT_GRID for kind, _ in workloads.WORKLOADS[args.workload]):
                memory = run_child("memory", args, deadline, 0)
                runs.append(memory)
            metrics, notes = per_layer(plain, traced, memory)
        else:
            main_run = run_child("run", args, deadline, args.seconds)
            metrics, notes = end_to_end(main_run)
            runs = [main_run]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload}, seed {args.seed}")
    for line in notes:
        print(line)
    for r in runs:
        for problem in r["problems"]:
            print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
