"""Workload definitions: which grids each workload runs, and in what order.

An operation is one ``(kind, dims)`` pair, where kind is ``embed`` (the
``gridcube embed`` chain: build_fk, assemble_Hk, dilation, dump_embedding),
``audit_grid`` or ``audit_file``.  The grid set of a workload never changes;
the workload seed only permutes the order of its operations.
"""
from __future__ import annotations

import random
from itertools import product

EMBED, AUDIT_GRID, AUDIT_FILE = "embed", "audit_grid", "audit_file"


def sweep_grids() -> list[tuple[int, ...]]:
    """The 774-grid audit family: all 3-d grids with sides 2..9, all 4-d
    grids with sides 2..5, and six larger or higher-dimensional grids."""
    grids = [tuple(d) for d in product(range(2, 10), repeat=3)]
    grids += [tuple(d) for d in product(range(2, 6), repeat=4)]
    grids += [
        (2,) * 6,
        (3,) * 6,
        (2, 3, 4, 2, 3, 4),
        (17, 17, 17),
        (33, 33, 33),
        (5,) * 5,
    ]
    return grids


LARGE_GRIDS = [(5, 5, 4000), (64, 64, 64)]

WORKLOADS = {
    "embed-cube3": [(EMBED, (100, 100, 100))],
    "embed-deep": [(EMBED, (3,) * 12)],
    "audit-sweep": [(AUDIT_GRID, dims) for dims in sweep_grids()],
    "audit-large": [(AUDIT_GRID, dims) for dims in LARGE_GRIDS]
    + [(AUDIT_FILE, dims) for dims in LARGE_GRIDS],
}


def operations(workload: str, seed: int) -> list[tuple[str, tuple[int, ...]]]:
    """The workload's operations in the order given by the seed."""
    ops = list(WORKLOADS[workload])
    random.Random(seed).shuffle(ops)
    return ops


def op_key(kind: str, dims: tuple[int, ...]) -> str:
    """Key of an operation's pinned reference, e.g. ``audit_grid:5x5x4000``."""
    return f"{kind}:{'x'.join(str(a) for a in dims)}"
