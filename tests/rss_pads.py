"""Peak RSS of one benchmark workload over a range of environment sizes.

    python tests/rss_pads.py CHECKOUT WORKLOAD [--seed N] [--seconds S]

The size of the environment moves where the interpreter's heap starts, and
with it whether a large string freed and allocated again across passes
finds room below the heap top, so one run's ``peak_rss_mb`` can read one
heap layout's mode.  This runs ``perfbench/run.py --trace 0`` from the root
of CHECKOUT once per pad, with the environment padded by one variable of
0, 300, 500, 900, 1500, 2500, 4000 and 6000 characters, and prints the
workload's ``peak_rss_mb`` at each.  It writes nothing: bytecode writing is
off and ``--trace 0`` writes no span file.  Not a test module: pytest does
not collect it.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PADS = (0, 300, 500, 900, 1500, 2500, 4000, 6000)


def peak_rss(checkout: Path, workload: str, seed: int, seconds: float, pad: int) -> float:
    """One benchmark run's peak_rss_mb with the environment padded by `pad`
    characters."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "RSS_PAD": "x" * pad}
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    run = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"pad {pad}: {result['failed']} failed operations")
    return result["metrics"]["peak_rss_mb"]["value"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    for pad in PADS:
        mb = peak_rss(args.checkout, args.workload, args.seed, args.seconds, pad)
        print(f"pad {pad:5d}: peak_rss_mb {mb:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
