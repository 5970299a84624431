"""One benchmark run in a fresh interpreter, started by run.py.

    python3 perfbench/child.py MODE --workload NAME --seed N --seconds S

MODE is ``run`` (set-up: import gridcube and build the workload's
labelings; then timed passes over the operations until S seconds have
passed, at least one; then peak RSS), ``trace`` (set-up and one pass with
every layer's public functions wrapped in spans) or ``memory`` (set-up and
one pass with tracemalloc around ``pipeline_battery`` only).  Run from the
root of a checkout; gridcube is imported from its ``src`` directory.  The
last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import ops
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"


def import_gridcube():
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import gridcube

    if src.resolve() not in Path(gridcube.__file__).resolve().parents:
        raise SystemExit(f"gridcube imported from {gridcube.__file__}, not {src}")
    return gridcube


def block_widths(g, op_list) -> list[int]:
    widths = set()
    for _, dims in op_list:
        spec = g.GridSpec(dims)
        widths.update(spec.block_width(j) for j in range(1, spec.k + 1))
    return sorted(widths)


def file_inputs(g, op_list, reference) -> tuple[dict, dict]:
    """Embedding files for the audit_file operations, and their problems."""
    texts, problems = {}, {}
    for kind, dims in op_list:
        if kind != workloads.AUDIT_FILE:
            continue
        text = ops.embed_text(g, dims)
        pinned = reference.get(workloads.op_key(kind, dims), {}).get("input")
        if ops.sha256(text) != pinned:
            problems[workloads.op_key(kind, dims)] = [
                f"input file differs from pinned {pinned}"
            ]
        texts[dims] = text
    return texts, problems


def run_op(g, kind, dims, texts):
    if kind == workloads.EMBED:
        return ops.run_embed(g, dims)
    if kind == workloads.AUDIT_GRID:
        return ops.run_audit_grid(g, dims)
    return ops.run_audit_file(g, texts[dims])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["run", "trace", "memory"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    op_list = workloads.operations(args.workload, args.seed)

    start = time.perf_counter()
    g = import_gridcube()
    imported = time.perf_counter()
    tracer = None
    if args.mode in ("trace", "memory"):
        import tracing

        tracer = tracing.Tracer(memory=args.mode == "memory")
        tracer.install()
        tracer.op = "setup"
    for t in block_widths(g, op_list):
        g.best_labeling(t)
    labeled = time.perf_counter()
    result = {"import_s": imported - start, "labelings_s": labeled - imported}
    if tracer is not None:
        tracer.op = None

    reference = json.loads(REFERENCE.read_text())
    texts, input_problems = file_inputs(g, op_list, reference)
    pass_s, op_s, problems = [], [], []
    dilation_max = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        elapsed_pass = 0.0
        for op_id, (kind, dims) in enumerate(op_list):
            if tracer is not None:
                tracer.op = op_id
            began = time.perf_counter()
            try:
                elapsed, outcome = run_op(g, kind, dims, texts)
            except Exception as exc:  # a raising operation counts as failed
                elapsed = time.perf_counter() - began
                traceback.print_exc()
                outcome = None
                found = [f"raised {exc!r}"]
            if tracer is not None:
                tracer.op = None
            if outcome is not None:
                key = workloads.op_key(kind, dims)
                found = ops.compare(outcome, reference.get(key)) + input_problems.get(key, [])
                dilation_max = max(dilation_max, outcome["dilation"] or 0)
            del outcome
            gc.collect()  # free the op's cyclic garbage before the next op
            if found:
                problems.append(f"{workloads.op_key(kind, dims)}: {'; '.join(found)}")
            op_s.append(elapsed)
            elapsed_pass += elapsed
        pass_s.append(elapsed_pass)
        if tracer is not None or time.perf_counter() >= deadline:
            break

    result.update(
        pass_s=pass_s,
        op_s=op_s,
        dilation_max=dilation_max,
        attempted=len(op_s),
        failed=len(problems),
        problems=problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.mode == "memory":
        result["layers"] = tracer.memory_metrics()
        result["absent"] = sorted(tracer.absent)
    elif tracer is not None:
        layers = tracer.metrics(result["labelings_s"] + pass_s[0])
        layers["trace.run_s"] = pass_s[0]
        layers["trace.labelings_s"] = result["labelings_s"]
        result["layers"] = layers
        result["absent"] = sorted(tracer.absent | {f"{f} sizes" for f in tracer.unsized})
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                     "spans": tracer.spans}))
        result["spans_file"] = os.path.relpath(spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
