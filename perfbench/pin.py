"""Record the pinned reference outputs that every benchmark run is checked
against, from the gridcube in ``src`` of the current directory.

    python3 perfbench/pin.py        # from the repository root

For every operation of every workload it stores the output digest and the
dilation, and for each ``audit_file`` operation the sha256 of its input
file.  Run it only at a commit whose outputs are known good; a later change
that alters embedding files or battery verdicts must show up as failures,
not as a new reference.
"""
from __future__ import annotations

import json

import ops
import workloads
from child import REFERENCE, import_gridcube


def main() -> None:
    g = import_gridcube()
    reference = {}
    for name in workloads.WORKLOADS:
        for kind, dims in workloads.operations(name, 0):
            key = workloads.op_key(kind, dims)
            if kind == workloads.EMBED:
                _, outcome = ops.run_embed(g, dims)
                entry = {}
            elif kind == workloads.AUDIT_GRID:
                _, outcome = ops.run_audit_grid(g, dims)
                entry = {}
            else:
                text = ops.embed_text(g, dims)
                _, outcome = ops.run_audit_file(g, text)
                entry = {"input": ops.sha256(text)}
            if outcome["problems"]:
                raise SystemExit(f"{key}: {outcome['problems']}")
            entry.update(digest=outcome["digest"], dilation=outcome["dilation"])
            reference[key] = entry
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(reference)} operations in {REFERENCE.name}")


if __name__ == "__main__":
    main()
