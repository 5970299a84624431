"""The digest corpus: sha256s of the files `gridcube embed` writes.

    PYTHONPATH=src python tests/digests.py    # rewrites tests/data/digests.json

It holds the embedding file of every audit-sweep grid of the benchmark
(`perfbench/workloads.py`), of the six grids whose audits are strict xfails
and of 5x5x4000, each as `ops.embed_text` renders it (the text
`gridcube embed GRID` writes), and the files that `gridcube embed` itself
writes for 3x7x4 and 3x7x4x3, plain and seeded from `tests/data`, both the
embedding and the `--dump-stage 2` and `--dump-stage 3` dumps.  It also
holds the `render_report` of `audit_grid` (every check's name, status and
detail, one line each) of a fixed family of grids with k = 5..7
(`report_grids`).  `tests/test_digests.py` recomputes the corpus on every
run.

The corpus pins today's outputs: a change that moves any of them fails the
test.  Regenerate it only when a change of output has been decided on, and
list every digest that changed in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import gridcube
from gridcube import cli

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
CORPUS = DATA / "digests.json"

# the grids whose audits are strict xfails in test_checks.py
XFAIL_GRIDS = [
    (12, 17, 22, 14),
    (14, 17, 19, 8),
    (14, 17, 19, 15),
    (13, 18, 18, 19),
    (26, 36, 18, 9),
    (10, 23, 38, 30),
]

# `gridcube embed` runs: grid, seed files (concatenated), outputs
CLI_RUNS = [
    ((3, 7, 4), ["seed_374_stage2.txt"]),
    ((3, 7, 4, 3), ["seed_3743_stage2.txt", "seed_3743_stage3.txt"]),
]
CLI_OUTPUTS = [[], ["--dump-stage", "2"], ["--dump-stage", "3"]]


# grids whose audits downgrade a gated FAIL to REPORTED (test_checks.py)
DOWNGRADING_GRIDS = [(9, 3, 5, 2, 9), (7, 2, 5, 4, 2, 3, 2), (5, 9, 6, 2, 8)]


def report_grids() -> list[tuple[int, ...]]:
    """A fixed family of 51 grids: 16 each with k = 5, 6 and 7, sides
    2..9 and at most 2^14 vertices, drawn from a seeded generator, and the
    three `DOWNGRADING_GRIDS`, so that a status a gate set is pinned too."""
    rng = random.Random(1905)
    grids = []
    for k in (5, 6, 7):
        while len(grids) < 16 * (k - 4):
            dims = tuple(rng.choice((2, 2, 3, 4, 5, 6, 7, 8, 9)) for _ in range(k))
            if math.prod(dims) <= 1 << 14 and dims not in grids:
                grids.append(dims)
    return grids + DOWNGRADING_GRIDS


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grid_files(ops, workloads) -> dict[str, str]:
    """The embedding-file digest of every grid of the corpus, by grid."""
    grids = [*workloads.sweep_grids(), *XFAIL_GRIDS, (5, 5, 4000)]
    return {
        "embed:" + "x".join(map(str, dims)): sha256(ops.embed_text(gridcube, dims).encode())
        for dims in grids
    }


def cli_files() -> dict[str, str]:
    """The digest of each file `gridcube embed` writes in `CLI_RUNS`, by its
    command line (the seed by the files it joins)."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.txt"
        for dims, seeds in CLI_RUNS:
            seed = Path(tmp) / "seed.txt"
            seed.write_text("".join((DATA / name).read_text() for name in seeds))
            for seeded in (False, True):
                for extra in CLI_OUTPUTS:
                    args = ["embed", *map(str, dims), *extra]
                    key = " ".join(args)
                    if seeded:
                        args += ["--seed", str(seed)]
                        key += " --seed " + "+".join(seeds)
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main([*args, "--out", str(path)])
                    if code != 0:
                        raise RuntimeError(f"{key} exited {code}")
                    out["cli:" + key] = sha256(path.read_bytes())
    return out


def report(dims) -> str:
    """The digest of the grid's audit report."""
    checks, _, _ = gridcube.audit_grid(gridcube.GridSpec(dims))
    return sha256(gridcube.render_report(checks).encode())


def reports() -> dict[str, str]:
    """The digest of each `report_grids` grid's audit report, by grid."""
    return {"report:" + "x".join(map(str, dims)): report(dims) for dims in report_grids()}


def corpus(ops, workloads) -> dict[str, str]:
    """Every digest of the corpus, by key."""
    return {**grid_files(ops, workloads), **cli_files(), **reports()}


def main() -> int:
    sys.path.insert(0, str(TESTS))
    from test_tracing_names import load_perfbench

    digests = corpus(load_perfbench("ops"), load_perfbench("workloads"))
    CORPUS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
