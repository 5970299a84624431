"""Every function in the package runs under the command line.

A fixed set of small ``gridcube`` commands runs in a fresh interpreter
under ``sys.settrace`` call events, and every ``def`` in ``src/gridcube``
must have been entered.  The interpreter is fresh because the per-a_1
chain-battery cache and the caterpillar memo would otherwise hide calls
made earlier in the test session.  A function only the tests call belongs
in ``tests/oracles.py``, or nowhere.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gridcube

SRC = Path(gridcube.__file__).resolve().parent
DATA = Path(__file__).resolve().parent / "data"

# perfbench/tracing.py names search_caterpillar, and test_tracing_names
# requires every traced name to resolve, so the search and its helpers stay
# until the benchmark retires the metric; perfbench/ops.py times
# dump_embedding, the joined text of the blocks `gridcube embed` streams
EXEMPT = {
    "caterpillars.py:_check_params",
    "caterpillars.py:search_caterpillar",
    "caterpillars.py:search_caterpillar.<locals>.dfs",
    "checks.py:dump_embedding",
}

CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path

src, data, tmp = map(Path, sys.argv[1:4])
called = set()


def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(str(src)):
        called.add((Path(code.co_filename).name, code.co_firstlineno))


sys.settrace(trace)
from gridcube import cli

seeds = tmp / "seeds.txt"
seeds.write_text(
    (data / "seed_3743_stage2.txt").read_text()
    + (data / "seed_3743_stage3.txt").read_text()
)
out = str(tmp / "out.txt")
commands = [
    ["embed", "3", "7", "4", "--out", out],
    ["audit", out],
    ["audit", out, "--cap", "84"],
    ["embed", "3", "7", "4", "--dump-stage", "3", "--out", str(tmp / "stage.txt")],
    ["embed", "3", "7", "4", "3", "--seed", str(seeds), "--out", str(tmp / "s.txt")],
    ["embed", "5", "6", "--windows", "3", "0", "--out", str(tmp / "w.txt")],
    ["embed", "3", "3", "300", "--out", str(tmp / "long.txt")],
    ["audit", "3", "7", "4"],
    ["audit", "5", "5", "6"],
    ["cat", "7", "3"],
]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        codes.append(cli.main(argv))
sys.settrace(None)
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """Every def in the package, keyed by (file name, first line) as its
    code object reports them (a decorator's line, if it has one), with its
    qualified name as the value."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min(d.lineno for d in [child, *child.decorator_list])
                found[(path.name, first)] = f"{path.name}:{qual}"
                visit(child, qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "")
    return found


def test_cli_reaches_every_function(tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), str(DATA), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["codes"] == [0] * len(result["codes"])
    called = {tuple(pair) for pair in result["called"]}
    unreached = sorted(
        name for key, name in defined_functions().items() if key not in called
    )
    assert sorted(set(unreached) - EXEMPT) == []
