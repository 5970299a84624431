"""Embeddings of k-dimensional grids into their optimal hypercubes.

The package builds, stage by stage, an embedding of an arbitrary grid
[a_1 x ... x a_k] into the hypercube of dimension ceil(log2 |G|), together
with every intermediate object (circulant column-count matrix, consistent
roundings, blank-level designation matrices, the inflation/stacking pipeline,
and cyclic caterpillar labelings of the coordinate blocks), plus a
verification suite that checks the construction's structural guarantees on
concrete instances.
"""
from .base2d import BaseMap, CirculantR, Embedding2D, build_R, build_f2, fill_columns
from .caterpillars import (
    Caterpillar,
    CubeLabeling,
    SearchExhausted,
    best_labeling,
    caterpillar_for,
    double_caterpillar,
    gray_label,
    label_from_caterpillar,
    search_caterpillar,
    verify_window,
)
from .checks import (
    CheckResult,
    CoordinateDiffs,
    DilationReport,
    HypercubeEmbedding,
    assemble_Hk,
    audit_file,
    audit_grid,
    chain_battery,
    coordinate_diffs,
    diff_case_checks,
    dilation,
    dump_embedding,
    embedding_blocks,
    parse_embedding,
    pipeline_battery,
    render_report,
)
from .grids import GridSpec, compute_exponents, level_budget
from .rounding import BinaryMatrix, RoundingSpec, balance_violations, build_FX
from .stages import (
    BlankPlan,
    StageEmbedding,
    build_blank_plan,
    build_fk,
    s_sequence,
)

__all__ = [
    "BaseMap",
    "BinaryMatrix",
    "BlankPlan",
    "Caterpillar",
    "CheckResult",
    "CirculantR",
    "CoordinateDiffs",
    "CubeLabeling",
    "DilationReport",
    "Embedding2D",
    "GridSpec",
    "HypercubeEmbedding",
    "RoundingSpec",
    "SearchExhausted",
    "StageEmbedding",
    "assemble_Hk",
    "audit_file",
    "audit_grid",
    "balance_violations",
    "best_labeling",
    "build_FX",
    "build_R",
    "build_blank_plan",
    "build_f2",
    "build_fk",
    "caterpillar_for",
    "chain_battery",
    "compute_exponents",
    "coordinate_diffs",
    "diff_case_checks",
    "dilation",
    "double_caterpillar",
    "dump_embedding",
    "embedding_blocks",
    "fill_columns",
    "gray_label",
    "label_from_caterpillar",
    "level_budget",
    "parse_embedding",
    "pipeline_battery",
    "render_report",
    "s_sequence",
    "search_caterpillar",
    "verify_window",
]
