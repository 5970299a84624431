"""The benchmark's span tracer must find every function it names.

perfbench/tracing.py wraps functions by name and silently leaves out the
metric of a name no gridcube module defines, so a rename in the library
would drop a per-layer metric without any error.
"""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import gridcube
from gridcube.base2d import build_f2
from gridcube.grids import GridSpec, level_budget

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_gridcube_callables():
    tracing = load_tracing()
    modules = [gridcube] + [
        importlib.import_module(f"gridcube.{info.name}")
        for info in pkgutil.iter_modules(gridcube.__path__)
    ]
    names = {*tracing.LAYER_OF, *tracing.CALLS_OF, *tracing.SIZE_OF}
    missing = sorted(
        name
        for name in names
        if not any(callable(getattr(mod, name, None)) for mod in modules)
    )
    assert missing == []
    # the size metric base2d.cells reads the result's column count
    spec = GridSpec((3, 7, 4))
    assert build_f2(spec).m == level_budget(spec, 2)
