"""Span tracing around the public functions of each gridcube layer.

Each traced function is replaced, in every ``gridcube`` module namespace
that holds it, by a wrapper that records a span ``[name, start, end,
parent, op]``.  Spans stay in memory; self time (a span's duration minus
its child spans) and the per-layer metrics are computed from them at the
end.  A function that no longer exists is skipped and its metric is left
out of the report.

``tracemalloc`` would slow every allocation inside the span it runs in, so
a span tracer never uses it; a separate memory tracer (``memory=True``)
wraps only ``pipeline_battery`` and records its tracemalloc peak.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# traced function -> the per-layer time metric its self time adds to
LAYER_OF = {
    "build_f2": "base2d.build_f2.s",
    "build_FX": "rounding.build_FX.s",
    "build_blank_plan": "stages.build_blank_plan.s",
    "inflate": "stages.inflate_stack.s",
    "stack": "stages.inflate_stack.s",
    "search_caterpillar": "caterpillars.search.s",
    "double_caterpillar": "caterpillars.double.s",
    "label_from_caterpillar": "caterpillars.label.s",
    "gray_label": "caterpillars.label.s",
    "coordinate_diffs": "checks.coordinate_diffs.s",
    "assemble_Hk": "checks.assemble_Hk.s",
    "dilation": "checks.dilation.s",
    "chain_battery": "checks.chain_battery.s",
    "pipeline_battery": "checks.pipeline_battery.s",
    "diff_case_checks": "checks.diff_case_checks.s",
    "dump_embedding": "checks.dump_embedding.s",
    "parse_embedding": "checks.parse_embedding.s",
    "audit_file": "checks.audit_file.s",
}

# traced function -> the metrics counting its calls
CALLS_OF = {
    "build_FX": "rounding.build_FX.calls",
    "stack": "stages.transitions",
    "search_caterpillar": "caterpillars.searches",
    "double_caterpillar": "caterpillars.doublings",
    "coordinate_diffs": "checks.coordinate_diffs.calls",
    "chain_battery": "checks.chain_battery.calls",
}

# traced function -> the size metric its calls add to
SIZE_OF = {
    "build_f2": "base2d.cells",
    "build_FX": "rounding.cells",
    "dilation": "checks.edges",
    "dump_embedding": "checks.dump_bytes",
}

# the only function the memory tracer wraps
MEMORY_TRACED = "pipeline_battery"


def _grid_edges(spec) -> int:
    return sum(spec.size - spec.size // a for a in spec.dims)


class Tracer:
    """Records spans (or, with ``memory``, tracemalloc peaks) while ``op`` is
    set; ``op`` names the running operation."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.absent: set[str] = set()
        self.unsized: set[str] = set()
        self.sizes = dict.fromkeys([*SIZE_OF.values(), "blocks", "windowed_blocks"], 0)
        self.stage_maps: set = set()
        self.chain_a1: set = set()
        self.peak_bytes = 0

    def install(self) -> None:
        """Wrap every traced function in every gridcube namespace holding it."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "gridcube" or name.startswith("gridcube."))
        ]
        for fname in [MEMORY_TRACED] if self.memory else LAYER_OF:
            originals = {
                id(fn): fn
                for fn in (getattr(mod, fname, None) for mod in modules)
                if callable(fn)
            }
            if not originals:
                self.absent.add(fname)
                continue
            for fn in originals.values():
                wrapper = self._wrap(fname, fn)
                for mod in modules:
                    if getattr(mod, fname, None) is fn:
                        setattr(mod, fname, wrapper)

    def _wrap(self, fname, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if self.memory:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    self.peak_bytes = max(self.peak_bytes, peak)
                    tracemalloc.stop()
            parent = self.stack[-1] if self.stack else -1
            span = [fname, time.perf_counter(), 0.0, parent, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter()
            try:
                self._count(fname, args, result)
            except AttributeError:
                # the call's arguments or result changed shape; leave its
                # size metrics out rather than stop the run
                self.unsized.add(fname)
            return result

        return wrapper

    def _count(self, fname, args, result) -> None:
        sizes = self.sizes
        if fname == "build_f2":
            sizes["base2d.cells"] += args[0].dims[0] * result.m
        elif fname == "build_FX":
            sizes["rounding.cells"] += len(args[0].X) * args[0].n
        elif fname == "assemble_Hk":
            sizes["blocks"] += len(result.labelings)
            sizes["windowed_blocks"] += sum(lab.window > 0 for lab in result.labelings)
        elif fname == "coordinate_diffs":
            # the stage map is alive for the whole operation, so its id is
            # unique within one op
            self.stage_maps.add((self.op, id(args[0])))
        elif fname == "dilation":
            sizes["checks.edges"] += _grid_edges(result.spec)
        elif fname == "chain_battery":
            self.chain_a1.add(args[0])
        elif fname == "dump_embedding":
            sizes["checks.dump_bytes"] += len(result)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, traced_s: float) -> dict[str, float]:
        """Per-layer metrics; ``traced_s`` is the wall time the spans fall in."""
        out: dict[str, float] = {}
        present = [f for f in LAYER_OF if f not in self.absent]
        for fname in present:
            out.setdefault(LAYER_OF[fname], 0.0)
            if fname in CALLS_OF:
                out[CALLS_OF[fname]] = 0
        own = self.self_times()
        for span, s in zip(self.spans, own):
            out[LAYER_OF[span[0]]] += s
            if span[0] in CALLS_OF:
                out[CALLS_OF[span[0]]] += 1
        out["trace.unattributed_s"] = traced_s - sum(own)
        sizes = self.sizes
        sized = [f for f in present if f not in self.unsized]
        for fname, name in SIZE_OF.items():
            if fname in sized:
                out[name] = sizes[name]
        if "assemble_Hk" in sized:
            out["caterpillars.windowed_ratio"] = _ratio(
                sizes["windowed_blocks"], sizes["blocks"]
            )
        if "coordinate_diffs" in present:
            out["checks.coordinate_diffs.distinct_ratio"] = _ratio(
                len(self.stage_maps), out["checks.coordinate_diffs.calls"]
            )
        if "chain_battery" in present:
            out["checks.chain_battery.distinct_ratio"] = _ratio(
                len(self.chain_a1), out["checks.chain_battery.calls"]
            )
        return out

    def memory_metrics(self) -> dict[str, float]:
        if MEMORY_TRACED in self.absent:
            return {}
        return {"checks.pipeline_battery.peak_mb": self.peak_bytes / 2**20}


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0 when the layer never ran."""
    return part / whole if whole else 0.0
