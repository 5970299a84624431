"""The benchmark's span tracer must find every function it names, and read
every argument and result attribute its size metrics need.

perfbench/tracing.py wraps functions by name and silently leaves out the
metric of a name no gridcube module defines; it also leaves out the size
metrics of a traced call whose arguments or result lost an attribute it
reads.  A rename in the library would drop a per-layer metric without any
error.
"""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import gridcube
from gridcube import checks
from gridcube.base2d import build_f2
from gridcube.grids import GridSpec, level_budget

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """The module perfbench/<name>.py, loaded by path."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def gridcube_modules():
    return [gridcube] + [
        importlib.import_module(f"gridcube.{info.name}")
        for info in pkgutil.iter_modules(gridcube.__path__)
    ]


def test_traced_names_resolve_to_gridcube_callables():
    tracing = load_tracing()
    modules = gridcube_modules()
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


def test_traced_calls_yield_every_size_metric(monkeypatch):
    """One embed and one audit under an installed tracer: no traced call
    loses its size metrics, and each metric counts what its reads mean
    (the spec's X and n for build_FX, the labelings and their windows for
    assemble_Hk, the report's spec for dilation, the int a1 that
    chain_battery is called with, the length of the dumped text)."""
    tracing = load_tracing()
    # the tracer rebinds the traced names; monkeypatch puts them back
    for mod in gridcube_modules():
        for name in tracing.LAYER_OF:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, getattr(mod, name))
    checks._chain_checks.cache_clear()  # so that the audit runs chain_battery
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "test"
    spec = GridSpec((3, 7, 4, 3))
    emb = gridcube.assemble_Hk(gridcube.build_fk(spec))
    gridcube.dilation(emb)
    text = gridcube.dump_embedding(emb)
    gridcube.audit_grid(spec)
    tracer.op = None

    assert tracer.absent == set() and tracer.unsized == set()
    widths = [1 << spec.block_width(i) for i in range(2, spec.k)]
    pages = [spec.page_count(i) for i in range(2, spec.k)]
    windowed = sum(lab.window > 0 for lab in emb.labelings)
    assert tracer.sizes == {
        "base2d.cells": 2 * spec.dims[0] * level_budget(spec, 2),
        "rounding.cells": 2 * sum(p * w for p, w in zip(pages, widths)),
        "checks.edges": 2 * tracing._grid_edges(spec),
        "checks.dump_bytes": len(text),
        "blocks": 2 * spec.k,
        "windowed_blocks": 2 * windowed,
    }
    assert [type(a1) for a1 in tracer.chain_a1] == [int]
    assert tracer.chain_a1 == {spec.dims[0]}
