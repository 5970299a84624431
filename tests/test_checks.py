"""Tests for the verification batteries, assembly, dilation, and file IO."""
from __future__ import annotations

import dataclasses
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_tracing_names import load_tracing

from gridcube import base2d, caterpillars
from gridcube import checks as checks_module
from gridcube.checks import (
    TRANSITION_CHECKS,
    CheckResult,
    assemble_Hk,
    audit_file,
    audit_grid,
    chain_battery,
    coordinate_diffs,
    diff_case_checks,
    dilation,
    dump_embedding,
    failed,
    parse_embedding,
    pipeline_battery,
    render_report,
)
from gridcube.caterpillars import (
    CubeLabeling,
    caterpillar_for,
    gray_label,
    label_from_caterpillar,
    verify_window,
)
from gridcube.grids import GridSpec, unsigned_dtype
from gridcube.rounding import BinaryMatrix, parse_matrices
from gridcube.stages import BlankPlan, build_fk, s_sequence

DATA = Path(__file__).parent / "data"
TRACING = load_tracing()
# grids with unequal sides, where a transposed grid view gives other edges
UNEQUAL_GRIDS = [
    (2, 2),
    (3, 7, 4),
    (2, 9, 3, 5),
    (2, 3, 4, 2, 3, 4),
    (5, 5, 4000),
    (7, 11, 13, 97),
]


def triples(checks):
    return [(c.name, c.status, c.detail) for c in checks]


# ---------------------------------------------------------------------------
# check results
# ---------------------------------------------------------------------------


def test_check_result_lines():
    assert CheckResult("x.y", "PASS").line() == "x.y: PASS"
    assert CheckResult("x.y", "FAIL", "boom").line() == "x.y: FAIL boom"
    assert CheckResult("x.y", "REPORTED", "7").line() == "x.y: REPORTED(7)"
    assert CheckResult("x.y", "REPORTED", "7").ok
    assert not CheckResult("x.y", "FAIL").ok
    with pytest.raises(ValueError):
        CheckResult("x.y", "MAYBE")


def test_render_report_one_line_per_check():
    checks = [CheckResult("a", "PASS"), CheckResult("b", "REPORTED", "3")]
    text = render_report(checks)
    assert text == "a: PASS\nb: REPORTED(3)\n"
    assert failed(checks) == []


# ---------------------------------------------------------------------------
# chain battery
# ---------------------------------------------------------------------------


def test_chain_battery_spot_checks():
    for a1 in (3, 8, 33, 64):
        results = chain_battery(a1)
        assert failed(results) == [], [c.line() for c in failed(results)]
        names = {c.name for c in results}
        assert "chain.occupancy-and-monotone" in names
        assert "chain.window-counts" in names
        assert "chain.grid-cover" in names
        assert "chain.page-prefixes" in names
        reported = [c for c in results if c.status == "REPORTED"]
        assert [c.name for c in reported] == ["chain.adjacent-step-total"]


def test_chain_battery_matches_oracle():
    for a1 in range(2, 65):
        assert triples(chain_battery(a1)) == triples(oracles.chain_battery(a1)), a1


def clumped_circulant(emb):
    """The base map with its circulant's doubles moved to the first chains."""
    R = emb.R
    first = tuple(sorted(R.first_column, reverse=True))
    return dataclasses.replace(emb, R=base2d.CirculantR(R.a1, first))


def flip_first_double(emb, value):
    """The base map with the first entry ``1 - value`` of its circulant's
    first column set to ``value``: one double more (1) or one fewer (0)
    than the 2^{e1} - a1 of the construction."""
    R = emb.R
    first = list(R.first_column)
    first[first.index(1 - value)] = value
    return dataclasses.replace(emb, R=base2d.CirculantR(R.a1, tuple(first)))


def extra_double(emb):
    return flip_first_double(emb, 1)


def missing_double(emb):
    return flip_first_double(emb, 0)


def late_first_chain(emb):
    """The base map with chain 1 one column further right from point 31."""
    cols = emb.cols.copy()
    tail = slice(30, int(emb.offsets[1]))
    cols[tail] = np.minimum(cols[tail] + 1, emb.m)
    return dataclasses.replace(emb, cols=cols)


@pytest.mark.parametrize(
    "corrupt", [clumped_circulant, late_first_chain, extra_double, missing_double]
)
def test_chain_battery_matches_oracle_on_corrupted_maps(monkeypatch, corrupt):
    real = base2d.fill_columns

    def fill_columns(a1, m):
        return corrupt(real(a1, m))

    monkeypatch.setattr(base2d, "fill_columns", fill_columns)
    monkeypatch.setattr(checks_module, "fill_columns", fill_columns)
    failing = set()
    for a1 in (5, 12, 33):
        results = chain_battery(a1)
        assert triples(results) == triples(oracles.chain_battery(a1))
        failing |= {c.name for c in failed(results)}
    assert {"chain.prefix-balance", "chain.page-prefixes"} & failing


def test_window_counts_look_past_one_period(monkeypatch):
    # a1 = 16 fills its box with no doubles; one extra double keeps every
    # window of width up to a1 in range and first overflows at a1 + 1
    real = base2d.fill_columns

    def fill_columns(a1, m):
        return extra_double(real(a1, m))

    monkeypatch.setattr(base2d, "fill_columns", fill_columns)
    monkeypatch.setattr(checks_module, "fill_columns", fill_columns)
    results = chain_battery(16)
    assert triples(results) == triples(oracles.chain_battery(16))
    assert "chain.window-counts" in {c.name for c in failed(results)}


def test_chain_battery_rejects_degenerate():
    with pytest.raises(ValueError):
        chain_battery(1)


# ---------------------------------------------------------------------------
# pipeline battery
# ---------------------------------------------------------------------------


def test_pipeline_battery_above_threshold():
    fk = build_fk(GridSpec((5, 5, 5)))
    results = pipeline_battery(fk)
    assert failed(results) == [], [c.line() for c in failed(results)]
    names = {c.name for c in results}
    assert "pipeline.stage2.injective" in names
    assert "pipeline.stage3.injective" in names
    assert "pipeline.stage2.blank-budget" in names
    assert "pipeline.stage3.stack-two-value" in names
    assert "pipeline.stage3.stack-height-formula" in names
    assert "pipeline.stage3.page-stack-pair" in names
    assert "pipeline.stage3.subpage-level-alignment" in names
    assert "pipeline.stage3.section-height-spread" in names


def test_pipeline_battery_below_threshold_reports_instead_of_failing():
    fk = build_fk(GridSpec((3, 7, 4, 3)))
    results = pipeline_battery(fk)
    assert failed(results) == [], [c.line() for c in failed(results)]


def test_pipeline_battery_two_dimensional_grid():
    fk = build_fk(GridSpec((6, 9)))
    results = pipeline_battery(fk)
    assert failed(results) == []
    assert {c.name for c in results} == {
        "pipeline.stage2.injective",
        "pipeline.stage2.coordinate-range",
    }


def test_pipeline_battery_detects_corruption():
    fk = build_fk(GridSpec((5, 5, 5)))
    final = oracles.final(fk)
    final[:, 0] = final[:, 1]
    results = pipeline_battery(oracles.per_vertex(fk, final))
    bad = failed(results)
    assert any(c.name == "pipeline.stage3.injective" for c in bad)


def test_pipeline_battery_fails_a_broken_budget_identity():
    # the 3x7x4 plan has blanks per section (2, 3, 3, 3); with its first two
    # rows swapped the identity breaks after the first section
    fk = build_fk(GridSpec((3, 7, 4)))
    plan = fk.plan
    rows = plan.F.bits[[1, 0, 2, 3]]
    swapped = BlankPlan(plan.spec, plan.stage, BinaryMatrix(rows))
    [step] = fk.steps
    results = pipeline_battery(
        dataclasses.replace(fk, plans=(swapped,), sources=(step,))
    )
    assert [c.name for c in results] == [c.name for c in pipeline_battery(fk)]
    status = {c.name: c.status for c in results}
    assert status["pipeline.stage2.blank-budget"] == "FAIL"


def malformed_stage2_plans(plan):
    """The plan one section short, with its last section all blank, cut to
    its first section, and one slot wider, with the same row sums."""
    bits = plan.F.bits
    blank = bits.copy()
    blank[-1] = 1
    wider = np.zeros((plan.F.m, plan.F.n + 1), dtype=np.uint8)
    wider[:, :-1] = bits
    for rows in (bits[:-1], blank, bits[:1], wider):
        yield BlankPlan(plan.spec, plan.stage, BinaryMatrix(rows))


@pytest.mark.parametrize("dims", [(3, 7, 4), (3, 7, 4, 3)])
def test_pipeline_battery_fails_a_malformed_plan_without_raising(dims):
    # the steps are composed up to the plan refused; each check that reads
    # a step past it fails, naming the plan, and the check names stay
    fk = build_fk(GridSpec(dims))
    names = [c.name for c in pipeline_battery(fk)]
    for bad in malformed_stage2_plans(fk.plans[0]):
        chain = dataclasses.replace(fk, plans=(bad, *fk.plans[1:]))
        results = pipeline_battery(chain)
        assert [c.name for c in results] == names
        status = {c.name: c for c in results}
        budget = status["pipeline.stage2.blank-budget"]
        assert budget.status == "FAIL" and budget.detail.startswith("stage 2 plan refused")
        refused = [c for c in failed(results) if c.detail.startswith("stage 2 plan refused")]
        assert {c.name for c in refused} >= {
            "pipeline.stage2.injective",
            "pipeline.stage3.level-coverage",
            "pipeline.stage3.subpage-level-alignment",
        }


@pytest.mark.parametrize("dims", [(3, 7, 4), (3, 7, 4, 3)])
def test_pipeline_battery_range_checks_the_stored_base_column(dims):
    # a read by rank clips the column into 1..u_2, so only the range check
    # can see a column of 0 or u_2 + 1
    fk = build_fk(GridSpec(dims))
    for value in (0, len(fk.tables[0]) + 1):
        column = fk.column.copy()
        column[0] = value
        status = {c.name: c.status for c in pipeline_battery(dataclasses.replace(fk, column=column))}
        assert status["pipeline.stage2.coordinate-range"] == "FAIL"


@pytest.mark.parametrize(
    "dims, coordinate, value",
    [
        ((3, 7, 4), 2, 8),
        ((3, 7, 4), 2, 255),
        ((3, 7, 4, 3), 2, 8),
        ((3, 7, 4, 3), 3, 4),
        ((5, 6, 7), 2, 4),
        ((5, 6, 7), 1, 0),
        ((5, 6, 7), 1, -1),
    ],
)
def test_pipeline_battery_fails_an_address_outside_its_box(dims, coordinate, value):
    # a settled coordinate out of its block puts the address of every later
    # stage outside its box; the transition checks, which index tables by
    # address, fail unrun there, naming the coordinate
    fk = build_fk(GridSpec(dims))
    if coordinate == 1:
        row = fk.row.copy()
        row[0] = value
        chain = dataclasses.replace(fk, row=row)
    else:
        tables = list(fk.tables)
        tables[coordinate - 2] = tables[coordinate - 2].copy()
        tables[coordinate - 2][0] = value
        chain = dataclasses.replace(fk, tables=tuple(tables))
    results = pipeline_battery(chain)
    assert [c.name for c in results] == [c.name for c in pipeline_battery(fk)]
    by_name = {c.name: c for c in results}
    detail = f"coordinate {coordinate} outside 1..{fk.box()[coordinate - 1]}"
    for j in range(max(3, coordinate + 1), fk.stage + 1):
        assert by_name[f"pipeline.stage{j}.coordinate-range"].status == "FAIL"
        for name in TRANSITION_CHECKS:
            check = by_name[f"pipeline.stage{j}.{name}"]
            assert (check.status, check.detail) == ("FAIL", f"stage {j} {detail}")


PLAN_FAULTS = ["short", "long", "transposed", "more", "fewer"]


def malformed_bits(draw, bits: np.ndarray, kind: str) -> np.ndarray:
    """A designation matrix with the fault `kind` (one of PLAN_FAULTS)
    drawn into it: a row short or long, transposed (if not square), or one
    row with a blank more or fewer."""
    if kind == "short":
        return bits[:-1]
    if kind == "long":
        return np.concatenate([bits, bits[-1:]])
    if kind == "transposed":
        assume(bits.shape[0] != bits.shape[1])
        return np.ascontiguousarray(bits.T)
    r = draw(st.integers(0, len(bits) - 1))
    slots = np.flatnonzero(bits[r] == (kind == "fewer"))
    assume(len(slots))
    bits = bits.copy()
    bits[r, draw(st.sampled_from(slots.tolist()))] ^= 1
    return bits


@st.composite
def malformed_chains(draw):
    """A chain built for a grid with k = 3..5 and sides 2..6, with one fault
    drawn into it: a plan a section short or long, transposed, or with one
    blank too many or too few in a section; a table entry past its
    coordinate's range; or a row or column value of 0 or past its range."""
    k = draw(st.integers(3, 5))
    fk = build_fk(GridSpec(tuple(draw(st.lists(st.integers(2, 6), min_size=k, max_size=k)))))
    kind = draw(st.sampled_from([*PLAN_FAULTS, "table", "row", "column"]))
    if kind in ("row", "column"):
        values = getattr(fk, kind).copy()
        top = 1 << fk.spec.block_width(1) if kind == "row" else len(fk.tables[0])
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([0, top + 1]))
        return dataclasses.replace(fk, **{kind: values})
    if kind == "table":
        t = draw(st.integers(0, len(fk.tables) - 1))
        table = fk.tables[t].copy()
        # entry c - 1 holds coordinate c minus 1, so its box value is past it
        past, most = fk.box()[t + 1], int(np.iinfo(table.dtype).max)
        assume(most >= past)
        table[draw(st.integers(0, len(table) - 1))] = draw(st.integers(past, most))
        return dataclasses.replace(fk, tables=(*fk.tables[:t], table, *fk.tables[t + 1 :]))
    n = draw(st.integers(0, len(fk.plans) - 1))
    plan = fk.plans[n]
    bad = BlankPlan(plan.spec, plan.stage, BinaryMatrix(malformed_bits(draw, plan.F.bits, kind)))
    return dataclasses.replace(fk, plans=(*fk.plans[:n], bad, *fk.plans[n + 1 :]))


@settings(max_examples=150)
@given(malformed_chains())
def test_pipeline_battery_fails_every_malformed_chain_without_raising(chain):
    assert failed(pipeline_battery(chain))


def test_pipeline_battery_matches_oracle(battery_grids):
    seeds = parse_matrices(
        "".join((DATA / f"seed_3743_stage{i}.txt").read_text() for i in (2, 3))
    )
    spec = GridSpec((3, 7, 4, 3))
    fks = [*battery_grids.values(), build_fk(spec), build_fk(spec, seed_matrices=seeds)]
    for fk in fks:
        assert triples(pipeline_battery(fk)) == triples(oracles.pipeline_battery(fk))


def with_source(stage, level):
    """The chain of a stacked stage with that stage's source levels
    replaced by `level`, as its top stage, over the identity column."""
    sources = oracles.source_levels(stage)
    sources[stage.stage - 3] = level
    return oracles.per_vertex(stage, sources=sources)


def with_coords(stage, coords):
    """The chain of a stage with that stage's coordinates replaced by
    `coords`, as its top stage, over the identity column: the first j - 1
    columns are the chain's coordinates (so later stages see them too), and
    the last is its top coordinate at the top stage and otherwise, through
    the next plan's level table, the next stage's source levels."""
    j = stage.stage
    final = oracles.final(stage)
    final[: j - 1] = coords[:, : j - 1].T
    sources = oracles.source_levels(stage)
    if j == stage.top:
        final[j - 1] = coords[:, j - 1]
    else:
        sources[j - 2] = stage.plans[j - 2].level_table[coords[:, j - 1] - 1]
    return oracles.per_vertex(stage, final, sources)


def stage_mutants(stage):
    """Seeded corruptions of one stacked stage, each as the top of its
    chain: a source level at a far ordinal of its section, swapped heights,
    a source level moved to the next section, two points at one address,
    and a duplicated row: two points at one address and height from
    different source sections, whose stacking order is the rank order;
    then the last section emptied into the first nonblank level."""
    j = stage.stage
    rng = np.random.default_rng(j)
    plan = stage.plan
    zeros = oracles.zeros_per_row(plan)
    sections, nus = oracles.source_section(stage), oracles.source_nu(stage)

    def moved_source(v, section, nu):
        """The chain with vertex v's source level moved to the nu-th
        nonblank level of the section."""
        level = oracles.source_level(stage)
        level[v] = plan.level_table[sum(zeros[: section - 1]) + nu - 1]
        return with_source(stage, level)

    for v, w in rng.choice(stage.spec.size, size=(8, 2), replace=False):
        section, nu = int(sections[v]), int(nus[v])
        row = zeros[section - 1]
        yield moved_source(v, section, (nu - 1 + row // 2) % row + 1)
        coords = oracles.stage_coords(stage)
        coords[[v, w], j - 1] = coords[[w, v], j - 1]
        yield with_coords(stage, coords)
        moved = section % plan.pages + 1
        yield moved_source(v, moved, min(nu, zeros[moved - 1]))
        coords = oracles.stage_coords(stage)
        coords[v, : j - 1] = coords[w, : j - 1]
        yield with_coords(stage, coords)
        other = np.flatnonzero(sections != section)
        coords = oracles.stage_coords(stage)
        coords[v] = coords[other[rng.integers(len(other))]]
        yield with_coords(stage, coords)
    level = oracles.source_level(stage)
    level[sections == plan.pages] = plan.level_table[0]
    yield with_source(stage, level)


@pytest.mark.parametrize(
    "dims",
    [(5, 5, 6), (3, 7, 4, 3), (17, 17, 17), (2, 3, 4, 2, 3), (2, 300, 2), (5, 60, 5)],
)
def test_pipeline_battery_matches_oracle_on_mutants(dims):
    # at k = 5 the subpage view's last axis a_1...a_{j-2} and the j-page
    # view's rows span several dimensions; the thin grids have many subpage
    # positions, so their far ordinal pairs sit in late rows
    fk = build_fk(GridSpec(dims))
    for stage in fk.stage_chain()[1:]:
        for mutant in stage_mutants(stage):
            expected = triples(oracles.pipeline_battery(mutant))
            assert triples(pipeline_battery(mutant)) == expected


@pytest.mark.parametrize("dims", [(5, 5, 6), (3, 7, 4, 3), (17, 17, 17), (4, 6, 5)])
def test_pipeline_battery_matches_oracle_outside_the_box(dims):
    # heights of 0 put the top stage outside its box, where the stacking
    # orders are lexsorts: the two lowest vertices of a stack both drop to
    # 0, so the order of their tie decides the stacking-order checks
    fk = build_fk(GridSpec(dims))
    k = fk.stage
    h, addr = oracles.level(fk), oracles.address(fk)
    bottoms = np.flatnonzero(h == 1)
    mutants = 0
    for v in bottoms[:: max(1, len(bottoms) // 4)]:
        above = np.flatnonzero((addr == addr[v]) & (h == 2))
        if len(above):
            coords = oracles.stage_coords(fk)
            coords[[v, above[0]], k - 1] = 0
            mutant = with_coords(fk, coords)
            assert not mutant.in_box
            expected = triples(oracles.pipeline_battery(mutant))
            results = pipeline_battery(mutant)
            assert triples(results) == expected
            # the oracle decides the side threshold itself; the library's
            # gate-5 checks fail at side 5 and up, and report below it
            gated = {c.status for c in results if c.gate == 5} - {"PASS"}
            assert gated == {"FAIL" if min(dims) >= 5 else "REPORTED"}
            mutants += 1
    assert mutants >= 3


@pytest.mark.parametrize("dims", [(5, 5, 6), (3, 7, 4, 3), (4, 6, 5)])
def test_height_above_the_bracket_fails_instead_of_raising(dims):
    # a height is stored as given only at the top stage; below it, it is
    # where the next stage's source level sits in the next level table
    fk = build_fk(GridSpec(dims))
    for stage in fk.stage_chain()[1:]:
        # a source level past the plan's levels, or 0, puts stage j - 1's
        # level column off the next table
        j, plan = stage.stage, stage.plan
        for bad in (plan.pages * plan.width + 1, 0):
            level = oracles.source_level(stage)
            level[7] = bad
            status = {c.name: c.status for c in pipeline_battery(with_source(stage, level))}
            assert status[f"pipeline.stage{j}.prefix-stability"] == "FAIL"
    k = fk.stage
    coords = oracles.stage_coords(fk)
    coords[7, k - 1] = 50
    mutant = with_coords(fk, coords)
    with pytest.raises(IndexError):
        oracles.pipeline_battery(mutant)
    by_name = {c.name: c for c in pipeline_battery(mutant)}
    assert by_name[f"pipeline.stage{k}.coordinate-range"].status == "FAIL"
    bounds = by_name[f"pipeline.stage{k}.page-level-bounds"]
    expected = "FAIL" if min(dims) >= 5 else "REPORTED"
    assert (bounds.status, bounds.gate) == (expected, 5)


@pytest.mark.parametrize("dims", [(5, 5, 6), (3, 7, 4, 3), (5, 6, 5, 4)])
def test_prefix_stability_fails_on_a_corrupted_chain(dims):
    # the chain stores stage j - 1's level column as stage j's source levels;
    # one level moved by one slot is blank, past the table, or at another
    # offset than the column stage j settled, and so is one offset moved
    fk = build_fk(GridSpec(dims))
    name = "pipeline.stage{}.prefix-stability"
    status = {c.name: c.status for c in pipeline_battery(fk)}
    assert all(status[name.format(i)] == "PASS" for i in range(3, fk.stage + 1))
    for stage in fk.stage_chain()[1:]:
        j = stage.stage
        level = oracles.source_level(stage)
        level[0] += 1
        coords = oracles.stage_coords(stage)
        coords[0, j - 2] = coords[0, j - 2] % (1 << fk.spec.block_width(j - 1)) + 1
        for mutant in (with_source(stage, level), with_coords(stage, coords)):
            status = {c.name: c.status for c in pipeline_battery(mutant)}
            assert status[name.format(j)] == "FAIL"
            others = [i for i in range(3, fk.stage + 1) if i != j]
            assert all(status[name.format(i)] == "PASS" for i in others)


@st.composite
def family_grids(draw, side=40, budget=1 << 16):
    """k in 2..6, sides in 2..side, at most budget vertices."""
    k = draw(st.integers(2, 6))
    dims = []
    for rest in range(k - 1, -1, -1):
        a = draw(st.integers(2, min(side, budget >> rest)))
        dims.append(a)
        budget //= a
    return tuple(dims)


@settings(max_examples=40)
@given(family_grids())
def test_batteries_and_dilation_over_random_grids(dims):
    spec = GridSpec(dims)
    a1 = dims[0]
    assert triples(chain_battery(a1)) == triples(oracles.chain_battery(a1))
    fk = build_fk(spec)
    assert triples(pipeline_battery(fk)) == triples(oracles.pipeline_battery(fk))
    assert coordinate_diffs(fk).cyclic == oracles.coordinate_diffs(fk)
    emb = assemble_Hk(fk)
    assert len(np.unique(emb.labels)) == spec.size
    report = assert_dilation_matches_edge_oracle(emb)
    assert report.dilation <= report.implied_bound
    if report.guaranteed_3k:
        assert report.dilation <= 3 * spec.k
    text = dump_embedding(emb)
    assert np.array_equal(parse_embedding(text).labels, emb.labels)
    assert_parses_like_oracle(text)


def test_power_of_two_grid_has_no_blanks():
    spec = GridSpec((8, 8, 8))
    fk = build_fk(spec)
    for st in fk.stage_chain():
        if st.plan is not None:
            assert set(s_sequence(spec, st.plan.stage)) == {0}
    assert failed(pipeline_battery(fk)) == []


# ---------------------------------------------------------------------------
# coordinate differences
# ---------------------------------------------------------------------------


def test_coordinate_diffs_two_dimensional_bounds():
    fk = build_fk(GridSpec((5, 5)))
    diffs = coordinate_diffs(fk)
    per_dim = diffs.per_dimension()
    assert per_dim[0] <= 3
    assert per_dim[1] <= 1


def test_coordinate_diffs_match_per_column_oracle(battery_grids):
    fks = [*battery_grids.values(), build_fk(GridSpec((3,) * 6))]
    fks += [build_fk(GridSpec(dims)) for dims in UNEQUAL_GRIDS]
    for fk in fks:
        diffs = coordinate_diffs(fk)
        assert diffs.cyclic == oracles.coordinate_diffs(fk), fk.spec.dims


@pytest.mark.parametrize(
    "dims, widths",
    [
        ((3, 300), (2, 8)),
        ((3, 600), (2, 9)),
        ((3, 60000), (2, 16)),
        ((3, 100000), (2, 17)),
        ((2, 256), (1, 8)),
        ((2, 65536), (1, 16)),
    ],
)
def test_coordinate_diffs_at_the_dtype_boundaries(dims, widths):
    """Blocks exactly 8, 9, 16 and 17 bits wide, the edges of the uint8,
    uint16 and uint32 scans, match the oracle on the built chain and on
    chains of random coordinates, where every cyclic distance turns up;
    coordinate 2^t, which wraps to 0 in a t-bit dtype, is on every chain."""
    spec = GridSpec(dims)
    assert tuple(spec.block_width(j) for j in range(1, spec.k + 1)) == widths
    fk = build_fk(spec)
    assert coordinate_diffs(fk).cyclic == oracles.coordinate_diffs(fk)
    rng = np.random.default_rng(sum(dims))
    coords = np.stack([rng.integers(1, (1 << t) + 1, spec.size) for t in widths])
    coords[:, 0] = [1 << t for t in widths]
    coords[:, 1] = 1
    chain = oracles.per_vertex(fk, coords)
    assert oracles.stage_coords(chain).max(axis=0).tolist() == [1 << t for t in widths]
    assert coordinate_diffs(chain).cyclic == oracles.coordinate_diffs(chain)


@pytest.mark.parametrize("t", range(1, 11))
def test_cyclic_distance_is_exact_on_every_pair(t):
    """Every pair a, b in 1..2^t, in the narrowest dtype and in the widest:
    the rotated difference lies the cyclic difference away from 2^{t-1}."""
    a, b = np.meshgrid(np.arange(1, (1 << t) + 1), np.arange(1, (1 << t) + 1))
    want = np.minimum(np.abs(a - b), (1 << t) - np.abs(a - b))
    for dtype in (unsigned_dtype(t), np.uint32):
        d = b.astype(dtype) - a.astype(dtype)
        s = checks_module._rotate(d, dtype((1 << t) - 1)).astype(np.int64)
        assert np.array_equal(np.abs(s - (1 << (t - 1))), want)


def test_apply_gates_reports_a_failure_below_its_gate_only():
    made = [
        checks_module._check("a", False, "x", gate=8),
        checks_module._check("b", False, "y"),
        checks_module._check("c", True, gate=8),
        checks_module._report("d", 1),
    ]
    for side, status in ((7, "REPORTED"), (8, "FAIL")):
        gated = checks_module._apply_gates(made, GridSpec((9, side)))
        assert [(c.status, c.detail, c.gate) for c in gated] == [
            (status, "x", 8),
            ("FAIL", "y", 0),
            ("PASS", "", 8),
            ("REPORTED", "1", 0),
        ]


def test_diff_case_checks_asserted_at_threshold():
    fk = build_fk(GridSpec((8, 8)))
    results = diff_case_checks(coordinate_diffs(fk))
    assert failed(results) == []
    assert all(c.status == "PASS" for c in results)


def test_diff_case_checks_below_threshold_never_fails():
    fk = build_fk(GridSpec((3, 7, 4)))
    results = diff_case_checks(coordinate_diffs(fk))
    assert all(c.status in ("PASS", "REPORTED") for c in results)


# ---------------------------------------------------------------------------
# hypercube assembly
# ---------------------------------------------------------------------------


def test_smallest_grid_embeds_with_dilation_one():
    emb = assemble_Hk(build_fk(GridSpec((2, 2))))
    assert emb.spec.n == 2
    report = dilation(emb)
    assert report.dilation == 1
    assert report.window_implication_sound


def test_three_dim_example_assembles_into_its_optimal_cube():
    fk = build_fk(GridSpec((3, 7, 4)))
    emb = assemble_Hk(fk)
    assert emb.spec.n == 7
    assert len(np.unique(emb.labels)) == 84
    assert emb.windows() == (0, 3, 0)
    for rank in (0, 17, 83):
        for jdim in (1, 2, 3):
            # block jdim of the label is the labeling's vertex for coordinate jdim
            shift = emb.spec.n - emb.spec.exponents[jdim]
            block = (int(emb.labels[rank]) >> shift) % (1 << emb.labelings[jdim - 1].t)
            coordinate = int(np.flatnonzero(emb.labelings[jdim - 1].order == block)[0]) + 1
            assert coordinate == int(oracles.stage_coords(fk)[rank, jdim - 1])


def test_assembly_rejects_mismatched_labelings():
    fk = build_fk(GridSpec((3, 7, 4)))
    with pytest.raises(ValueError):
        assemble_Hk(fk, [gray_label(2), gray_label(3)])
    with pytest.raises(ValueError):
        assemble_Hk(fk, [gray_label(2), gray_label(3), gray_label(4)])


def test_dilation_histogram_counts_every_edge():
    spec = GridSpec((3, 7, 4))
    emb = assemble_Hk(build_fk(spec))
    report = dilation(emb)
    edges = sum(
        (a - 1) * spec.size // a for a in spec.dims
    )
    assert sum(report.histogram) == edges
    assert report.dilation <= report.implied_bound
    assert report.histogram[report.dilation] > 0


def assert_dilation_matches_edge_oracle(emb):
    """`dilation` and `audit_file` against the per-edge rank-index oracle;
    the benchmark's ``checks.edges`` count must equal the histogram's total."""
    report = dilation(emb)
    histogram, dil, sound = oracles.dilation(emb)
    assert report.histogram == histogram
    assert report.dilation == dil
    assert report.window_implication_sound == sound
    assert sum(report.histogram) == TRACING._grid_edges(emb.spec)
    audit = {c.name: c for c in audit_file(dump_embedding(emb))}
    assert audit["file.dilation"].detail == str(dil)
    return report


@pytest.mark.parametrize("dims", UNEQUAL_GRIDS)
def test_dilation_matches_edge_oracle(dims):
    assert_dilation_matches_edge_oracle(assemble_Hk(build_fk(GridSpec(dims))))


def test_dilation_matches_edge_oracle_on_battery_grids(battery_grids):
    for fk in battery_grids.values():
        assert_dilation_matches_edge_oracle(assemble_Hk(fk))


def test_window_implication_fails_for_a_counting_labeling():
    # binary counting is no windowed labeling: labels 8 and 9 of the 4-bit
    # block (vertices 0111 and 1000) sit at label distance 1 and Hamming 4
    fk = build_fk(GridSpec((9, 9, 9)))
    counting = CubeLabeling(4, tuple(range(16)), 5)
    emb = assemble_Hk(fk, [counting, gray_label(3), gray_label(3)])
    report = assert_dilation_matches_edge_oracle(emb)
    assert not report.window_implication_sound
    status = {c.name: c.status for c in report.checks()}
    assert status["dilation.window-implication"] == "FAIL"
    assert counting.window_breach == verify_window(counting, 5, 3) is not None


def test_window_breach_is_verified_once_per_labeling(monkeypatch):
    calls = []
    real = caterpillars.verify_window

    def verify_window_counted(lab, w, dbound):
        calls.append((lab, w, dbound))
        return real(lab, w, dbound)

    monkeypatch.setattr(caterpillars, "verify_window", verify_window_counted)
    lab = label_from_caterpillar(caterpillar_for(4, 1))
    fk = build_fk(GridSpec((9, 9, 9)))
    emb = assemble_Hk(fk, [lab, gray_label(3), gray_label(3)])
    for _ in range(3):
        assert dilation(emb).window_implication_sound
    assert lab.window_breach is None and gray_label(3).window_breach is None
    assert calls[:1] == [(lab, lab.window, 3)]
    assert [c for c in calls if c[0] is lab] == calls[:1]


def test_array_holders_compare_and_hash_by_identity():
    # their fields hold numpy arrays, so a field-wise == or hash cannot work
    spec = GridSpec((3, 7, 4))
    fk = build_fk(spec)
    emb = assemble_Hk(fk)
    text = dump_embedding(emb)
    pairs = [
        (base2d.build_f2(spec), base2d.build_f2(spec)),
        (fk, build_fk(spec)),
        (emb, assemble_Hk(fk)),
        (parse_embedding(text), parse_embedding(text)),
    ]
    for a, b in pairs:
        assert a == a and a != b and not a == b
        assert hash(a) == object.__hash__(a)
        assert len({a, b, a}) == 2 and {a: 1}[a] == 1


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def test_brute_force_known_instances():
    assert not oracles.brute_force_dilation(GridSpec((2, 3)), 0)
    assert oracles.brute_force_dilation(GridSpec((2, 3)), 1)
    assert oracles.brute_force_dilation(GridSpec((3, 3)), 2)
    assert not oracles.brute_force_dilation(GridSpec((2, 2)), 0)
    assert oracles.brute_force_dilation(GridSpec((2, 2)), 1)


TINY_GRIDS = [
    dims
    for k in (2, 3)
    for dims in itertools.product(range(2, 7), repeat=k)
    if math.prod(dims) <= 12
]


def test_tool_dilation_is_at_least_the_brute_force_optimum():
    assert len(TINY_GRIDS) == 16
    fits = oracles.brute_force_dilation
    for dims in TINY_GRIDS:
        spec = GridSpec(dims)
        tool = dilation(assemble_Hk(build_fk(spec))).dilation
        # the tool's own embedding witnesses its dilation
        assert fits(spec, tool), dims
        optimum = next(d for d in range(spec.n + 1) if fits(spec, d))
        assert optimum <= tool, dims


def test_brute_force_rejects_large_instances():
    with pytest.raises(ValueError):
        oracles.brute_force_dilation(GridSpec((4, 4)), 2)
    with pytest.raises(ValueError):
        oracles.brute_force_dilation(GridSpec((2, 2, 2, 2, 2)), 2)


def test_brute_force_negative_dilation_is_infeasible():
    assert not oracles.brute_force_dilation(GridSpec((2, 2)), -1)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_dump_and_parse_round_trip():
    spec = GridSpec((3, 7, 4))
    emb = assemble_Hk(build_fk(spec))
    text = dump_embedding(emb)
    lines = text.strip().splitlines()
    assert lines[0] == "GRIDCUBE 1"
    assert lines[1] == "dims 3 7 4"
    assert lines[2] == "7 2 5 7"
    assert lines[3] == "labelings 0 3 0"
    assert len(lines) == 4 + 84
    parsed = parse_embedding(text)
    assert parsed.spec.dims == (3, 7, 4)
    assert parsed.windows == (0, 3, 0)
    assert np.array_equal(parsed.labels, emb.labels)


def assert_dump_matches_oracles(emb):
    text = dump_embedding(emb)
    assert text == oracles.dump_embedding(emb)
    assert np.array_equal(parse_embedding(text).labels, emb.labels)
    assert_parses_like_oracle(text)


@pytest.mark.parametrize(
    "dims",
    [
        (2, 2),
        (3, 7, 4),
        (5, 3, 2, 4),
        (9, 9, 9),
        (2, 3, 4, 2, 3, 4),
        (3,) * 7,
        # digit-width boundaries, and |G| not a multiple of a render block
        (10, 3),
        (9, 10, 2),
        (99, 101),
        (5, 5, 4000),
        (7, 11, 13, 97),
    ],
)
def test_dump_matches_per_rank_reference(dims):
    assert_dump_matches_oracles(assemble_Hk(build_fk(GridSpec(dims))))


@settings(max_examples=25)
@given(family_grids(side=150, budget=1 << 15))
def test_dump_matches_per_rank_reference_over_random_grids(dims):
    assert_dump_matches_oracles(assemble_Hk(build_fk(GridSpec(dims))))


@settings(max_examples=60)
@given(family_grids(side=150, budget=1 << 15), st.integers(0, 2**32 - 1))
@example((checks_module.RANK_BLOCK + 7, 2), 0)
@example((2, checks_module.RANK_BLOCK + 7), 0)
def test_line_blocks_match_the_per_line_renderer(dims, seed):
    """Any n-bit labels, not only an embedding's, render as the oracle's
    lines, in whole lines per block; with no labels every bit is "."."""
    spec = GridSpec(dims)
    a1, n = spec.dims[0], spec.n
    labels = np.random.default_rng(seed).integers(0, 1 << n, spec.size)
    fields = [format(label, f"0{n}b") for label in labels.tolist()]
    rows = (fields[r : r + a1] for r in range(0, spec.size, a1))
    want = "".join(oracles.vertex_lines(spec, rows)).encode()
    blocks = list(checks_module._line_blocks(spec, labels))
    assert b"".join(blocks) == want
    assert all(len(block) and block[-1] == ord("\n") for block in blocks)
    blank = itertools.repeat(["." * n] * a1)
    want = "".join(oracles.vertex_lines(spec, blank)).encode()
    assert b"".join(checks_module._line_blocks(spec, None)) == want


def traced_peak(f, *args):
    """f(*args), and its tracemalloc peak above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "dims",
    [(64, 64, 64), (5, 5, 4000), (12, 17, 22, 14), (3,) * 10, (7, 11, 13, 97), (100, 100, 100)],
)
def test_pipeline_battery_memory_is_bounded_per_vertex(dims):
    """A stage holds no row by rank: its heights, source levels and packed
    addresses are tables over base columns, read a block of ranks at a
    time, and each check group holds at most one |G|-sized table or sort
    key beside its block scratch.  Its tracemalloc peak stays within 24 B
    per vertex (8-23 B here; 44-64 B while a stage held its level, source
    level, section and address rows and each group its own key, 151-195 B
    when every check's scratch lived until the stage's checks returned)."""
    fk = build_fk(GridSpec(dims))
    _, peak = traced_peak(pipeline_battery, fk)
    assert peak <= 24 * fk.spec.size, peak / fk.spec.size


def stage_setup(stage):
    """Stage `stage.stage` of its chain built afresh, with its box test,
    per-column packed addresses and injectivity read."""
    st = dataclasses.replace(stage)
    return st.in_box, st.column_address, st.is_injective()


@pytest.mark.parametrize("dims", [(3,) * 10, (7, 11, 13, 97), (12, 17, 22, 14)])
def test_stage_setup_memory_is_bounded_per_vertex(dims):
    """A stage holds its packed address row, and its injectivity keys and
    mask for a moment, a block of ranks at a time, never a level row or a
    rank-major copy of its coordinates: set up, it peaks within 18 B per
    vertex at every stage (10-16 B at the worst stage here; 21 B with the
    level row, and 53, 29 and 29 B with the copy)."""
    fk = build_fk(GridSpec(dims))
    for stage in fk.stage_chain():
        (in_box, _, injective), peak = traced_peak(stage_setup, stage)
        assert in_box and injective
        assert peak <= 18 * fk.spec.size, (stage.stage, peak / fk.spec.size)


def test_audit_memory_is_bounded_per_vertex():
    """A whole audit of 64^3 peaks at 18 B per vertex, in the pipeline
    battery over the chain that `build_fk` leaves (53 B while the battery
    held a stage's rows by rank, 167 B while it held every check's scratch
    to the end of a stage)."""
    spec = GridSpec((64, 64, 64))
    _, peak = traced_peak(audit_grid, spec)
    assert peak <= 20 * spec.size, peak / spec.size


@pytest.mark.parametrize("dims", [(64, 64, 64), (5, 5, 4000), (7, 11, 13, 97)])
def test_edge_scan_memory_is_bounded_by_the_input(dims):
    """The edge scans hold one edge-sized temporary per dimension at a time,
    never per-edge rank or index arrays."""
    fk = build_fk(GridSpec(dims))
    emb = assemble_Hk(fk)
    _, peak = traced_peak(dilation, emb)
    assert peak <= 5 * emb.labels.nbytes, peak / emb.labels.nbytes
    final = oracles.final(fk).nbytes
    _, peak = traced_peak(coordinate_diffs, fk)
    assert peak <= 1.98 * final, peak / final


@pytest.mark.parametrize("dims", [(64, 64, 64), (5, 5, 4000), (3,) * 12])
def test_dump_memory_is_bounded_by_the_text(dims):
    """The text grows in place, so beside it only one block's scratch is
    live, and the few blocks copied before CPython resizes in place: 2.5-6.1
    MiB above the text here (the text again, 2.0 x, when it was a join of
    its pieces).  The writer's and the reader's labels are equal uint32."""
    emb = assemble_Hk(build_fk(GridSpec(dims)))
    text, peak = traced_peak(dump_embedding, emb)
    assert peak <= len(text) + (8 << 20), (peak - len(text)) / (1 << 20)
    parsed = parse_embedding(text)
    assert emb.labels.dtype == parsed.labels.dtype == np.uint32
    assert np.array_equal(emb.labels, parsed.labels)


def test_parse_memory_is_bounded_per_vertex():
    """The reader encodes the text one block at a time: on 100^3's 29.8 MB
    file it peaks at 11.0 MiB above the text, 4 B per vertex of labels and
    one block's scratch (38.4 MiB when it encoded the whole text first)."""
    spec = GridSpec((100, 100, 100))
    emb = assemble_Hk(build_fk(spec))
    text = dump_embedding(emb)
    parsed, peak = traced_peak(parse_embedding, text)
    assert peak <= 4 * spec.size + (12 << 20), peak / (1 << 20)
    assert np.array_equal(parsed.labels, emb.labels)


def test_dump_is_deterministic():
    spec = GridSpec((3, 7, 4))
    a = dump_embedding(assemble_Hk(build_fk(spec)))
    b = dump_embedding(assemble_Hk(build_fk(spec)))
    assert a == b


def test_parse_rejects_malformed_files():
    text = dump_embedding(assemble_Hk(build_fk(GridSpec((3, 7, 4)))))
    cases = [
        text.replace("GRIDCUBE 1", "GRIDCUBE 2"),
        "\n".join(text.splitlines()[:-1]) + "\n",
        text.replace("7 2 5 7", "7 2 5 6"),
        text.replace("labelings 0 3 0", "labels 0 3 0"),
        text.replace("labelings 0 3 0", "labelings 0 -3 0"),
        text.replace("labelings 0 3 0", "labelings 0 3"),
        text.replace("1 1 1 0000000", "1 1 1 000000x"),
        text.replace("1 1 1 0000000", "1 1 1 000000"),
    ]
    for bad in cases:
        with pytest.raises(ValueError):
            parse_embedding(bad)
    dup = text.splitlines()
    dup[5] = dup[4]
    with pytest.raises(ValueError):
        parse_embedding("\n".join(dup) + "\n")


def assert_parses_like_oracle(text):
    got, want = parse_embedding(text), oracles.parse_embedding(text)
    assert (got.spec, got.windows) == (want.spec, want.windows)
    assert np.array_equal(got.labels, want.labels)


def test_parse_matches_oracle(battery_grids):
    seeds = parse_matrices(
        "".join((DATA / f"seed_3743_stage{i}.txt").read_text() for i in (2, 3))
    )
    spec = GridSpec((3, 7, 4, 3))
    fks = [*battery_grids.values(), build_fk(spec), build_fk(spec, seed_matrices=seeds)]
    for fk in fks:
        assert_parses_like_oracle(dump_embedding(assemble_Hk(fk)))


def noncanonical_files():
    """Files the line-at-a-time oracle reads as the (10, 3) embedding but
    the writer never produces."""
    text = dump_embedding(assemble_Hk(build_fk(GridSpec((10, 3)))))
    lines = text.splitlines(keepends=True)
    head, body = "".join(lines[:4]), lines[4:]
    return {
        "underscore": text.replace("\n10 1 ", "\n1_0 1 ", 1),
        "doubled-space": text.replace("\n1 1 ", "\n1  1 ", 1),
        "plus-sign": text.replace("\n2 1 ", "\n+2 1 ", 1),
        "swapped-lines": head + "".join([body[1], body[0], *body[2:]]),
        "trailing-blank-line": text + "\n",
        "missing-final-newline": text[:-1],
        "crlf-body": head + "".join(ln.replace("\n", "\r\n") for ln in body),
    }


@pytest.mark.parametrize("case", list(noncanonical_files()))
def test_parse_rejects_what_the_oracle_accepts(case):
    emb = assemble_Hk(build_fk(GridSpec((10, 3))))
    text = noncanonical_files()[case]
    assert np.array_equal(oracles.parse_embedding(text).labels, emb.labels)
    with pytest.raises(ValueError):
        parse_embedding(text)
    assert [c.line()[:16] for c in audit_file(text)] == ["file.parse: FAIL"]


FUZZ_TEXT = dump_embedding(assemble_Hk(build_fk(GridSpec((3, 5, 2)))))
FUZZ_CHARS = (
    st.sampled_from("01")
    | st.sampled_from(list("29 \n\r\t_+-.x\x00\u00e9\u0661"))
    | st.characters()
)


@st.composite
def mutated_files(draw):
    """FUZZ_TEXT with one character substituted, inserted or deleted, or with
    two of its lines swapped."""
    text = FUZZ_TEXT
    kind = draw(st.sampled_from(["substitute", "insert", "delete", "swap"]))
    if kind == "swap":
        lines = text.splitlines(keepends=True)
        pair = st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2)
        i, j = draw(pair.filter(lambda ij: ij[0] != ij[1]))
        lines[i], lines[j] = lines[j], lines[i]
        return "".join(lines)
    at = draw(st.integers(0, len(text) - (kind != "insert")))
    new = "" if kind == "delete" else draw(FUZZ_CHARS)
    return text[:at] + new + text[at + (kind != "insert") :]


@settings(max_examples=400)
@given(mutated_files())
@example(FUZZ_TEXT.replace("labelings 0 0 0", "labelings 0 70 0"))
def test_mutated_files_fail_to_parse_or_flip_one_label_bit(text):
    assume(text != FUZZ_TEXT)
    results = audit_file(text)
    try:
        parsed = parse_embedding(text)
    except ValueError as exc:
        assert results == [CheckResult("file.parse", "FAIL", str(exc))]
        return
    assert results[0] == CheckResult("file.parse", "PASS")
    original = parse_embedding(FUZZ_TEXT)
    assert parsed.spec == original.spec
    lines, original_lines = text.split("\n"), FUZZ_TEXT.split("\n")
    if parsed.windows != original.windows:
        # windows are declared, not derived from the labels: any the writer
        # could have written read back as written
        assert parsed.windows == tuple(int(w) for w in lines[3].split()[1:])
        del lines[3], original_lines[3]
        assert lines == original_lines
        assert np.array_equal(parsed.labels, original.labels)
        return
    (at,) = [i for i, (a, b) in enumerate(zip(text, FUZZ_TEXT)) if a != b]
    assert len(text) == len(FUZZ_TEXT) and {text[at], FUZZ_TEXT[at]} == {"0", "1"}
    rank = FUZZ_TEXT.count("\n", 0, at) - 4
    bit = FUZZ_TEXT.index("\n", at) - at - 1
    assert rank >= 0 and bit < original.spec.n
    expected = original.labels.copy()
    expected[rank] ^= 1 << bit
    assert np.array_equal(parsed.labels, expected)


def test_audit_file_reports_dilation():
    emb = assemble_Hk(build_fk(GridSpec((3, 7, 4))))
    measured = dilation(emb).dilation
    results = audit_file(dump_embedding(emb))
    assert failed(results) == []
    by_name = {c.name: c for c in results}
    assert by_name["file.dilation"].status == "REPORTED"
    assert by_name["file.dilation"].detail == str(measured)


def test_audit_file_flags_garbage():
    results = audit_file("not a file at all\n")
    assert len(results) == 1
    assert results[0].name == "file.parse"
    assert not results[0].ok


# ---------------------------------------------------------------------------
# full audit
# ---------------------------------------------------------------------------


def test_audit_grid_smoke():
    checks, emb, report = audit_grid(GridSpec((5, 5)))
    assert failed(checks) == [], [c.line() for c in failed(checks)]
    assert report.dilation >= 1
    assert emb.spec.n == GridSpec((5, 5)).n
    names = {c.name for c in checks}
    assert "chain.occupancy-and-monotone" in names
    assert "pipeline.stage2.injective" in names
    assert "diffs.within-17" in names
    assert "dilation.value" in names


def test_audit_grid_fails_colliding_labels(monkeypatch):
    real = checks_module.assemble_Hk

    def colliding(fk):
        emb = real(fk)
        labels = emb.labels.copy()
        labels[1] = labels[0]
        object.__setattr__(emb, "labels", labels)
        return emb

    monkeypatch.setattr(checks_module, "assemble_Hk", colliding)
    checks, _, _ = audit_grid(GridSpec((5, 5)))
    status = {c.name: c.status for c in checks}
    assert status["embedding.injective"] == "FAIL"


def test_label_mask_agrees_with_distinct_rows(battery_grids):
    # is_injective counts the labels in a 2^n-entry mask; the sort in
    # distinct_rows counts them too, on built labels and on one collision
    rng = np.random.default_rng(19)
    fks = [fk for fk in battery_grids.values() if fk.spec.size <= 1 << 16]
    fks += [build_fk(GridSpec(dims)) for dims in UNEQUAL_GRIDS]
    for fk in fks:
        emb = assemble_Hk(fk)
        v, w = rng.choice(fk.spec.size, size=2, replace=False)
        labels = emb.labels.copy()
        labels[v] = labels[w]
        for planted in (False, True):
            if planted:
                object.__setattr__(emb, "labels", labels)
            distinct = len(oracles.distinct_rows(emb.labels)[0]) == fk.spec.size
            assert emb.is_injective() == distinct == (not planted), fk.spec.dims
    # audit_file counts a parsed file's labels in the same mask
    emb = assemble_Hk(build_fk(GridSpec((5, 6, 7))))
    text = dump_embedding(emb)
    lines = text.split("\n")
    lines[4 + 10] = lines[4 + 10][: -emb.spec.n] + lines[4 + 3][-emb.spec.n :]
    duplicated = "\n".join(lines)
    for body, injective in ((text, True), (duplicated, False)):
        labels = parse_embedding(body).labels
        assert (len(oracles.distinct_rows(labels)[0]) == emb.spec.size) == injective
        status = {c.name: c.status for c in audit_file(body)}
        assert status["file.label-injective"] == ("PASS" if injective else "FAIL")


def test_audit_grid_reports_a_colliding_stage_map(monkeypatch):
    spec = GridSpec((5, 5, 6))
    fk = build_fk(spec)
    final = oracles.final(fk)
    final[:, 1] = final[:, 0]
    mutant = oracles.per_vertex(fk, final)
    monkeypatch.setattr(checks_module, "build_fk", lambda spec, seed_matrices: mutant)
    checks, emb, _ = audit_grid(spec)
    status = {c.name: c.status for c in checks}
    assert status["embedding.injective"] == "FAIL"
    assert status["pipeline.stage3.injective"] == "FAIL"
    with pytest.raises(RuntimeError, match="labels collide"):
        dump_embedding(emb)


# the checks held at every side: the per-stage ones, the one transition
# check proved for every grid, and the measurements, REPORTED by definition
HARD_STAGE_CHECKS = {
    "injective",
    "coordinate-range",
    "prefix-stability",
    "blank-budget",
    "stack-section-monotone",
}
MEASURED = re.compile(
    r"chain\.adjacent-step-total|pipeline\.stage\d+\.stack-top-occupancy-first"
    r"|dilation\.value|dilation\.implied-bound|diffs\.max\.dim\d+|file\.dilation"
)


def expected_gate(name: str) -> int:
    """The least side at which a FAIL of the named check stands."""
    if MEASURED.fullmatch(name):
        return 0
    if name.startswith("pipeline."):
        return 0 if name.split(".", 2)[2] in HARD_STAGE_CHECKS else 5
    return 8 if name == "diffs.within-17" or name.startswith("diffs.case-") else 0


@pytest.mark.parametrize(
    "dims", [(3, 7, 4, 3), (5, 6, 5, 4), (8, 8, 8, 8), (13, 18, 18, 3)]
)
def test_every_check_carries_its_gate(dims):
    checks, emb, _ = audit_grid(GridSpec(dims))
    checks += audit_file(dump_embedding(emb))
    assert [c.gate for c in checks] == [expected_gate(c.name) for c in checks]
    # 14 gated checks per stacking transition, and 5 of the case table
    gates = [c.gate for c in checks]
    assert (gates.count(5), gates.count(8)) == (14 * (len(dims) - 2), 5)
    # a REPORTED result of gate 0 is a measurement, never a downgraded FAIL
    measured = [c.name for c in checks if c.status == "REPORTED" and c.gate == 0]
    assert measured and all(MEASURED.fullmatch(name) for name in measured)


@pytest.mark.parametrize(
    "dims, stage",
    [((9, 3, 5, 2, 9), 5), ((7, 2, 5, 4, 2, 3, 2), 6), ((5, 9, 6, 2, 8), 5)],
)
def test_side_two_grids_downgrade_only_the_page_window_pair(dims, stage):
    # grids with no corrupted map that reach the transition gate: among
    # random grids with k = 5..7 and sides 2..9, each one that downgrades a
    # check has a side of 2, and downgrades just this pair at one stage
    checks, _, _ = audit_grid(GridSpec(dims))
    assert failed(checks) == []
    downgraded = {c.name: c.gate for c in checks if c.status == "REPORTED" and c.gate}
    pre = f"pipeline.stage{stage}."
    pair = [pre + "page-section-containment", pre + "section-page-window"]
    assert downgraded == dict.fromkeys(pair, 5)


@pytest.mark.xfail(
    strict=True,
    reason="diffs.case-step-above reads 7 against the bound 6 "
    "(coordinate 3 across dimension-4 edges)",
)
def test_audit_of_12_17_22_14_has_no_failure():
    checks, _, _ = audit_grid(GridSpec((12, 17, 22, 14)))
    assert failed(checks) == []


@pytest.mark.xfail(
    strict=True,
    reason="diffs.case-step-above reads 7 against the bound 6 "
    "(coordinate 3 across dimension-4 edges)",
)
@pytest.mark.parametrize(
    "dims",
    [
        (14, 17, 19, 8),
        (14, 17, 19, 15),
        (13, 18, 18, 19),
        (26, 36, 18, 9),
        (10, 23, 38, 30),
    ],
)
def test_audit_of_the_case_step_family_has_no_failure(dims):
    # the first three are the three of 1,500 random 4-d grids with sides
    # 8..24 that read 7, and like 12x17x22x14 have e_1, e_2, e_3 = 4, 8,
    # 13; the last two came from random grids with sides up to 40 and have
    # e_1, e_2, e_3 = 5, 10, 15 and 4, 8, 14
    checks, _, _ = audit_grid(GridSpec(dims))
    assert failed(checks) == []


def test_audit_of_13_18_18_3_reports_the_case_step_excess():
    # the smallest grid known to read 7; a side below 8 makes the case
    # bounds a reported finding, not an assertion
    checks, _, _ = audit_grid(GridSpec((13, 18, 18, 3)))
    lines = [c.line() for c in checks]
    assert "diffs.case-step-above: REPORTED(max 7 vs bound 6)" in lines
    assert failed(checks) == []


@pytest.mark.parametrize(
    "dims",
    [
        (13, 18, 18, 3),
        (14, 17, 19, 8),
        (12, 17, 22, 14),
        (13, 18, 18, 19),
        (26, 36, 18, 9),
        (10, 23, 38, 30),
        (27, 17, 18, 38),
    ],
)
def test_case_step_above_excess_lies_on_wrap_edges(dims):
    # coordinate 3 across dimension-4 edges: the edges that do not cross
    # coordinate 2's cyclic wrap read at most 5, so every edge reading 6 or
    # 7 crosses it; the wrap edges read 7 on each of these grids
    fk = build_fk(GridSpec(dims))
    assert oracles.step_above_wrap_split(fk) == (5, 7)
    assert coordinate_diffs(fk).cyclic[2][3] == 7


def count_coordinate_diffs(monkeypatch) -> list[int]:
    calls = [0]
    real = checks_module.coordinate_diffs

    def counted(fk):
        calls[0] += 1
        return real(fk)

    monkeypatch.setattr(checks_module, "coordinate_diffs", counted)
    return calls


def test_embedding_scans_coordinate_differences_once(monkeypatch):
    calls = count_coordinate_diffs(monkeypatch)
    fk = build_fk(GridSpec((9, 9, 9)))
    emb = assemble_Hk(fk)
    report = dilation(emb)
    assert calls[0] == 1
    assert report.diffs is emb.diffs
    assert emb.diffs == coordinate_diffs(fk)
    # labelings given up front: the assembly still scans once
    calls[0] = 0
    emb = assemble_Hk(fk, list(emb.labelings))
    assert dilation(emb).diffs is emb.diffs
    assert calls[0] == 1


def test_audit_grid_scans_coordinate_differences_once(monkeypatch):
    calls = count_coordinate_diffs(monkeypatch)
    checks, emb, report = audit_grid(GridSpec((5, 6, 7)))
    assert calls[0] == 1
    assert failed(checks) == []
    names = [c.name for c in checks]
    assert names.index("pipeline.stage3.injective") < names.index("diffs.within-17")
    assert names.index("diffs.max.dim3") < names.index("embedding.injective")
    assert names.index("embedding.injective") < names.index("dilation.value")


def test_audit_grid_builds_the_chain_battery_once_per_first_side(monkeypatch):
    calls = []
    real = checks_module.chain_battery

    def counted(a1):
        calls.append(a1)
        return real(a1)

    checks_module._chain_checks.cache_clear()
    monkeypatch.setattr(checks_module, "chain_battery", counted)
    first, _, _ = audit_grid(GridSpec((5, 5, 6)))
    second, _, _ = audit_grid(GridSpec((5, 7, 4)))
    assert calls == [5]
    fresh = triples(real(5))
    assert triples(first[: len(fresh)]) == fresh
    assert triples(second[: len(fresh)]) == fresh
    # each audit gets its own list, and the memo keeps no reference to it
    first.append(checks_module.CheckResult("extra", "FAIL"))
    assert triples(second[: len(fresh)]) == fresh
    assert triples(checks_module._chain_checks(5)) == fresh
