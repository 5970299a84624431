"""Every output the benchmark pins reproduces: the embedding files, the
audit verdict lists and the file audits of `perfbench/reference.json`.

The benchmark checks these digests only when it runs; here tier-1 checks
all of them, through the benchmark's own operations (`perfbench/ops.py`)
over its own grid set (`perfbench/workloads.py`), which are loaded by path
and left unchanged.
"""
from __future__ import annotations

import json

import gridcube
from test_tracing_names import PERFBENCH, load_perfbench

ops = load_perfbench("ops")
workloads = load_perfbench("workloads")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def pinned_operations() -> dict[str, tuple[str, tuple[int, ...]]]:
    """Every distinct operation of every workload, by its reference key."""
    return {
        workloads.op_key(kind, dims): (kind, dims)
        for name in workloads.WORKLOADS
        for kind, dims in workloads.operations(name, 0)
    }


def test_every_benchmark_operation_has_a_pinned_reference():
    keys = pinned_operations()
    assert sorted(keys) == sorted(REFERENCE)
    kinds = [kind for kind, _ in keys.values()]
    counts = {kind: kinds.count(kind) for kind in set(kinds)}
    assert counts == {workloads.EMBED: 2, workloads.AUDIT_GRID: 776, workloads.AUDIT_FILE: 2}


def test_every_pinned_output_reproduces():
    """All 780 entries, each with its digest and dilation, and each audited
    file's own digest: any change to an embedding file, a check name or a
    verdict fails here."""
    mismatched = []
    for key, (kind, dims) in pinned_operations().items():
        ref = REFERENCE[key]
        if kind == workloads.EMBED:
            _, outcome = ops.run_embed(gridcube, dims)
        elif kind == workloads.AUDIT_GRID:
            _, outcome = ops.run_audit_grid(gridcube, dims)
        else:
            text = ops.embed_text(gridcube, dims)
            if ops.sha256(text) != ref["input"]:
                mismatched.append(f"{key}: input file differs")
            _, outcome = ops.run_audit_file(gridcube, text)
        problems = ops.compare(outcome, ref)
        if problems:
            mismatched.append(f"{key}: {'; '.join(problems)}")
    assert mismatched == []
