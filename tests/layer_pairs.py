"""In-process time of one gridcube layer in two checkouts, run in pairs.

    python tests/layer_pairs.py A B LAYER GRID... [--pairs N] [--repeat R]

LAYER is a gridcube function: `build_blank_plan` (every stage 2..k-1 of
each grid), `build_f2`, `build_fk`, `pipeline_battery`, `assemble_Hk`,
`dilation`, `dump_embedding`, `parse_embedding`, `audit_file` (each
grid's embedding text, dumped untimed) or `audit_grid`.  A GRID
is its sides joined by "x", e.g. 3x3x3x3x3x3x3x3x3x3x3x3.  Each of N pairs
runs a fresh process in checkout A and one in checkout B, A first in even
pairs and B first in odd ones.  A process imports gridcube from the
checkout's `src`, then R times builds the layer's inputs for every grid
untimed and times the layer's calls over all the grids, and reports the
fastest total.  The inputs are built afresh for each repeat because a
chain caches what it composes (its steps) and would hand a later repeat
work done in an earlier one.  Once more, on inputs built afresh, it runs
the calls untimed under tracemalloc and reports the largest peak of one
call above what was allocated before it, so memory readings come in the
same alternating pairs as times.  The script prints each side's median and
quartiles of its N readings of each, and in how many pairs B was the faster
and the lower.  It writes nothing: bytecode writing is off, and the
processes print their readings.  Not a test module: pytest does not
collect it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r'''
import json, sys, time, tracemalloc
import gridcube as g

layer, repeat = sys.argv[1], int(sys.argv[2])
grids = [g.GridSpec(tuple(map(int, grid.split("x")))) for grid in sys.argv[3:]]


def calls(spec):
    """The (function, args) calls a reading times for the grid."""
    if layer == "build_blank_plan":
        return [(g.build_blank_plan, (spec, i)) for i in range(2, spec.k)]
    if layer in ("build_f2", "build_fk", "audit_grid"):
        return [(getattr(g, layer), (spec,))]
    fk = g.build_fk(spec)
    if layer == "pipeline_battery":
        return [(g.pipeline_battery, (fk,))]
    if layer == "assemble_Hk":
        return [(g.assemble_Hk, (fk,))]
    emb = g.assemble_Hk(fk)
    if layer in ("dilation", "dump_embedding"):
        return [(getattr(g, layer), (emb,))]
    if layer in ("parse_embedding", "audit_file"):
        return [(getattr(g, layer), (g.dump_embedding(emb),))]
    raise SystemExit(f"unknown layer {layer!r}")


best = float("inf")
for _ in range(repeat):
    work = [call for spec in grids for call in calls(spec)]
    total = 0.0
    for function, args in work:
        start = time.perf_counter()
        function(*args)
        total += time.perf_counter() - start
    best = min(best, total)
    del work
work = [call for spec in grids for call in calls(spec)]
tracemalloc.start()
peak = 0
for function, args in work:
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    function(*args)
    peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
tracemalloc.stop()
print(json.dumps({"ms": best * 1e3, "mib": peak / (1 << 20)}))
'''


def reading(checkout: Path, layer: str, grids: list[str], repeat: int) -> dict:
    """One fresh process's fastest time of the layer over the grids ("ms")
    and the largest tracemalloc peak of one of its calls ("mib")."""
    env = {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": str(checkout.resolve() / "src"),
    }
    cmd = [sys.executable, "-c", CHILD, layer, str(repeat), *grids]
    run = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"{checkout}: {run.stderr.strip()}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def summary(name: str, values: list[float], unit: str) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{name}: median {median:.2f} {unit}, quartiles {q1:.2f} / {q3:.2f} {unit}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("layer")
    parser.add_argument("grids", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    a, b = [], []
    for pair in range(args.pairs):
        order = [(args.a, a), (args.b, b)]
        for checkout, readings in order if pair % 2 == 0 else order[::-1]:
            readings.append(reading(checkout, args.layer, args.grids, args.repeat))
        x, y = a[-1], b[-1]
        print(
            f"pair {pair + 1}: A {x['ms']:.2f} ms {x['mib']:.2f} MiB, "
            f"B {y['ms']:.2f} ms {y['mib']:.2f} MiB",
            flush=True,
        )
    for key, unit, better in [("ms", "ms", "faster"), ("mib", "MiB", "lower")]:
        xs, ys = [x[key] for x in a], [y[key] for y in b]
        print(summary(f"A {args.a}", xs, unit))
        print(summary(f"B {args.b}", ys, unit))
        print(f"B {better} in {sum(y < x for x, y in zip(xs, ys))} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
