"""Stage pipeline tests: blank sequences, plans, inflation, stacking."""
from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coords_of,
    distinct_rows,
    full_stack_heights,
    nu_distance,
    rank_of,
    stack_heights,
)
from test_base2d import benchmark_grids
from test_checks import family_grids, traced_peak
from test_rounding import stage_rounding_specs

from gridcube import checks, stages
from gridcube.base2d import fill_columns
from gridcube.checks import assemble_Hk, audit_grid, dilation, failed, pipeline_battery
from gridcube.grids import GridSpec, level_budget, unsigned_dtype
from gridcube.rounding import BinaryMatrix, balance_violations, parse_matrices
from gridcube.stages import (
    BlankPlan,
    StageEmbedding,
    build_blank_plan,
    build_fk,
    by_rank,
    dump_stage,
    inflate,
    s_sequence,
    stack,
)

DATA = Path(__file__).parent / "data"


def load_matrix(name):
    [matrix] = parse_matrices((DATA / name).read_text())
    return matrix


@pytest.fixture(scope="module")
def emb_3743():
    spec = GridSpec((3, 7, 4, 3))
    seeds = [load_matrix("seed_3743_stage2.txt"), load_matrix("seed_3743_stage3.txt")]
    return build_fk(spec, seed_matrices=seeds)


def test_s_sequence_3x7x4():
    spec = GridSpec((3, 7, 4))
    assert tuple(s_sequence(spec, 2)) == (2, 3, 3, 3)


def test_s_sequence_3x7x4x3():
    spec = GridSpec((3, 7, 4, 3))
    assert tuple(s_sequence(spec, 2)) == (2, 3, 3, 3) * 3
    assert tuple(s_sequence(spec, 3)) == (1, 1, 2)


def test_s_sequence_rejects_out_of_range_stage():
    spec = GridSpec((3, 7, 4))
    with pytest.raises(ValueError):
        s_sequence(spec, 1)
    with pytest.raises(ValueError):
        s_sequence(spec, 3)


def section_loop_specs():
    """Stage specs (spec, i) of grids with k = 3..6, sides 2..40 and at
    most 2^16 vertices, drawn from a fixed seed."""
    rng = random.Random(19)
    for _ in range(1500):
        k = rng.randint(3, 6)
        budget = 1 << 16
        dims = []
        for rest in range(k - 1, -1, -1):
            dims.append(rng.randint(2, min(40, budget >> rest)))
            budget //= dims[-1]
        spec = GridSpec(tuple(dims))
        for i in range(2, k):
            yield spec, i


def test_s_sequence_random_grids_hold_contracts():
    """The facts the docstring of `s_sequence` proves, held on every
    section-loop spec: the values are base = w - ceil(A/h) and base + 1,
    base + 1 is at most w/2, and no section prefix breaks the budget
    identity (the oracle's prefix loop)."""
    specs = 0
    for spec, i in section_loop_specs():
        s = s_sequence(spec, i)
        width = 1 << spec.block_width(i)
        lead = -(-spec.prefix_product(i) // (1 << spec.exponents[i - 1]))
        base = width - lead
        assert len(s) == spec.page_count(i)
        assert set(s) <= {base, base + 1}, (spec.dims, i)
        assert 2 * (base + 1) <= width, (spec.dims, i)
        assert oracles.budget_break(spec, i, s) is None, (spec.dims, i)
        specs += 1
    assert specs == 3723


def test_s_sequence_equals_the_section_loop():
    """The library evaluates every section's floors in one integer
    expression; the oracle walks the sections one at a time.  s_i repeats
    with period h / gcd(phi_num, h), and many specs run past one period.
    Every stage of every benchmark grid is compared too."""
    specs = repeated = 0
    for spec, i in section_loop_specs():
        s = s_sequence(spec, i)
        assert tuple(s.tolist()) == oracles.s_sequence(spec, i), (spec.dims, i)
        half = 1 << spec.exponents[i - 1]
        period = half // math.gcd(-spec.prefix_product(i) % half, half)
        specs += 1
        repeated += period < len(s)
    # 3,723 stage specs, 1,648 of them longer than one period
    assert specs > 3500 and repeated > 1500, (specs, repeated)
    stages = 0
    for dims in benchmark_grids():
        spec = GridSpec(dims)
        for i in range(2, spec.k):
            assert tuple(s_sequence(spec, i).tolist()) == oracles.s_sequence(spec, i), (dims, i)
            stages += 1
    assert stages == 1054


def stub_plan(spec: GridSpec, i: int, blanks) -> BlankPlan:
    """A stage-i plan whose section r leads with blanks[r - 1] blank slots."""
    bits = np.arange(1 << spec.block_width(i)) < np.array(blanks)[:, None]
    return BlankPlan(spec, i, BinaryMatrix(bits))


def budget_verdicts(spec: GridSpec, blanks: list) -> list[str]:
    """The battery's `blank-budget` status at each stage 2..k-1 of the grid,
    on plans with blanks[i - 2][r - 1] blanks in section r at stage i.  The
    chain is a stub on one base column, its tables and source levels one
    entry each; the caller stubs the battery's |G|-sized checks."""
    plans = tuple(stub_plan(spec, i, b) for i, b in enumerate(blanks, start=2))
    one = np.broadcast_to(np.int32(1), (spec.size,))
    zero = np.zeros(1, dtype=np.int32)
    tables, sources = (zero,) * (spec.k - 1), (zero,) * (spec.k - 2)
    chain = StageEmbedding(spec, spec.k, one, one, tables, plans, sources)
    status = {c.name: c.status for c in pipeline_battery(chain)}
    return [status[f"pipeline.stage{i}.blank-budget"] for i in range(2, spec.k)]


def budget_variants(s: list) -> list[list]:
    """s itself; for r the first, a middle and the last section, s with a
    blank added to section r, and then moved on to section r + 1, so that
    only prefix r breaks; and s one section short."""
    P = len(s)
    out = [s]
    for r in sorted({1, (P + 1) // 2, P}):
        more = list(s)
        more[r - 1] += 1
        out.append(more)
        if r < P:
            moved = list(more)
            moved[r] -= 1
            out.append(moved)
    return out + [s[:-1]] if P > 1 else out


def test_blank_budget_verdict_equals_the_prefix_loop():
    """The battery checks a plan's row sums against s_i, the oracle the
    budget identity at every section prefix, and on plans of P_i sections
    the two agree: both pass s_i itself and fail each broken variant.  A
    plan one section short fails the battery, where the prefix loop passed
    it on the sections it had.  One stub chain per grid carries a variant
    at every stage at once, and the battery's injectivity, box and
    transition checks, which read |G| rows and no plan's row sums, are
    stubbed out."""
    grids = []
    for spec, i in section_loop_specs():
        if i == 2:
            grids.append((spec, []))
        grids[-1][1].append(budget_variants(s_sequence(spec, i).tolist()))
    broken = short = 0
    with (
        mock.patch.object(StageEmbedding, "is_injective", lambda self: True),
        mock.patch.object(StageEmbedding, "in_box", True),
        mock.patch.object(checks, "_transition_checks", lambda st, level: []),
    ):
        for spec, variants in grids:
            for n in range(max(map(len, variants))):
                blanks = [v[n] if n < len(v) else v[0] for v in variants]
                verdicts = budget_verdicts(spec, blanks)
                for i, (t, v, got) in enumerate(zip(blanks, variants, verdicts), 2):
                    held = oracles.budget_break(spec, i, t) is None
                    if len(t) < len(v[0]):
                        assert held and got == "FAIL", (spec.dims, i)
                        short += 1
                    else:
                        assert got == ("PASS" if held else "FAIL"), (spec.dims, i, t)
                        broken += not held
    assert broken > 10_000 and short > 3_000, (broken, short)


def test_blank_plan_from_seed_matches_hand_data():
    spec = GridSpec((3, 7, 4, 3))
    plan = build_blank_plan(spec, 3, matrix=load_matrix("seed_3743_stage3.txt"))
    assert plan.level_table.tolist() == [2, 3, 4, 5, 6, 8, 9, 11]
    assert oracles.zeros_per_row(plan) == (3, 3, 2)
    assert plan.section_of(8) == 2 and plan.offset_of(8) == 4
    assert plan.ordinal_table[8] == 3
    assert plan.ordinal_table[7] == 0  # blank slot


def test_blank_plan_rejects_wrong_row_sums():
    spec = GridSpec((3, 7, 4))
    assert tuple(s_sequence(spec, 2)) == (2, 3, 3, 3)
    # right row sums, but after two rows columns 1-2 hold 2 blanks, 4-8 none
    [bad] = parse_matrices("4 8\n11000000\n11100000\n11100000\n11100000\n")
    with pytest.raises(ValueError, match="rejected.*depth 2 spread 2 > 1"):
        build_blank_plan(spec, 2, matrix=bad)
    good = build_blank_plan(spec, 2).F
    swapped = BinaryMatrix(good.bits[[1, 0, 2, 3]])
    with pytest.raises(ValueError, match="rejected.*row 1 sums to 3, expected 2"):
        build_blank_plan(spec, 2, matrix=swapped)
    [narrow] = parse_matrices("4 4\n1100\n1010\n0101\n0011\n")
    with pytest.raises(ValueError, match="rejected: shape 4x4, want 4x8"):
        build_blank_plan(spec, 2, matrix=narrow)


def test_generated_plans_pass_the_seeded_check(monkeypatch):
    # a generated matrix is checked as a seeded one is: its shape first
    spec = GridSpec((4, 4, 4))
    for m, n in [(4, 5), (5, 4)]:
        wrong = BinaryMatrix(np.zeros((m, n), dtype=np.int8))
        monkeypatch.setattr(stages, "build_FX", lambda _: wrong)
        message = f"^stage 2 designation matrix rejected: shape {m}x{n}, want 4x4$"
        with pytest.raises(ValueError, match=message):
            build_blank_plan(spec, 2)


def test_generated_plans_reseed_bit_identically(battery_grids):
    specs = [fk.spec for fk in battery_grids.values()] + [GridSpec((3, 7, 4, 3))]
    for spec in specs:
        for i in range(2, spec.k):
            plan = build_blank_plan(spec, i)
            again = build_blank_plan(spec, i, matrix=plan.F)
            assert again.F is plan.F and (again.spec, again.stage) == (spec, i)
            assert np.array_equal(again.level_table, plan.level_table)


def assert_plan_tables_match_oracle(plan):
    width = plan.width
    zero_cols = oracles.zero_columns(plan.F)
    levels = oracles.nonblank_levels(zero_cols, width)
    assert tuple(plan.level_table.tolist()) == levels
    for g in range(1, plan.pages * width + 1):
        try:
            want = oracles.nu_of(zero_cols, width, g)
        except ValueError:
            want = 0
        assert plan.ordinal_table[g] == want


def test_plan_tables_match_per_row_oracle(battery_grids, emb_3743):
    plans = [st.plan for st in emb_3743.stage_chain()[1:]]
    for fk in battery_grids.values():
        plans.extend(st.plan for st in fk.stage_chain() if st.plan is not None)
    assert len(plans) == 2 + sum(k - 2 for k, _ in battery_grids)
    for plan in plans:
        assert_plan_tables_match_oracle(plan)


def test_plan_count_tables_are_int32_and_equal_the_wide_form():
    """Each count table is one int32 array, cumulated and masked in place
    and read off the matrix anew on each read: on every stage plan of the
    benchmark grids it equals the int64 form the tables had when a plan
    stored them.  Reading one table of 3^12's stage-2 plan peaks within 7 B
    per slot (5.2 for a count table, its int32 table and the int8 nonblank
    mask; 6.8 for the level table, whose nonzero scan is intp), and the
    plan a chain holds has read none and keeps no per-section tuple
    (building the three at once, the ordinals in int64, peaked at 29.0 B
    per slot and kept 14.3)."""
    plans = 0
    for dims in benchmark_grids():
        spec = GridSpec(dims)
        for i in range(2, spec.k):
            plan = build_blank_plan(spec, i)
            nonblank = 1 - plan.F.bits.astype(np.int64)
            wide = []
            for axis, table in ((1, plan.ordinal_table), (0, plan.height_table)):
                wide.append(np.zeros(nonblank.size + 1, dtype=np.int64))
                wide[-1][1:] = (nonblank.cumsum(axis=axis) * nonblank).ravel()
                assert table.dtype == np.int32 and np.array_equal(table, wide[-1])
            levels = plan.level_table
            assert levels.dtype == np.int32
            assert np.array_equal(levels, np.flatnonzero(wide[0])), (dims, i)
            plans += 1
    assert plans == 1054
    plan = build_blank_plan(GridSpec((3,) * 12), 2)
    slots = plan.F.bits.size
    for name in ("ordinal_table", "height_table", "level_table"):
        _, peak, held = traced_held(getattr, plan, name)
        assert peak <= 7 * slots and held <= 4 * slots + 1024, (name, peak / slots)
    for plan in build_fk(GridSpec((3,) * 12)).plans:
        assert vars(plan).keys() == {"spec", "stage", "F"}
        assert vars(plan.F).keys() == {"bits"}


def assert_plan_holds_the_level_budget(plan):
    # `inflate` reads each stage-i level, 1..u_i, through the plan's level
    # table unguarded: the table must hold exactly u_i levels
    spec, i = plan.spec, plan.stage
    assert len(plan.level_table) == level_budget(spec, i), (spec.dims, i)


def test_plans_hold_the_stage_level_budget(battery_grids):
    plans = 0
    for fk in battery_grids.values():
        for st in fk.stage_chain()[1:]:
            assert_plan_holds_the_level_budget(st.plan)
            plans += 1
    for dims in benchmark_grids():
        spec = GridSpec(dims)
        for i in range(2, spec.k):
            assert_plan_holds_the_level_budget(build_blank_plan(spec, i))
            plans += 1
    assert plans == 1054 + sum(k - 2 for k, _ in battery_grids)


@settings(max_examples=40)
@given(family_grids())
def test_plans_hold_the_stage_level_budget_over_random_grids(dims):
    spec = GridSpec(dims)
    for i in range(2, spec.k):
        assert_plan_holds_the_level_budget(build_blank_plan(spec, i))


def test_generated_plans_pass_contracts():
    for dims in [(3, 7, 4), (3, 7, 4, 3), (5, 6, 5), (6, 6, 6, 6)]:
        spec = GridSpec(dims)
        for i in range(2, spec.k):
            plan = build_blank_plan(spec, i)
            assert (plan.F.m, plan.F.n) == (plan.pages, plan.width)
            assert balance_violations(plan.F, s_sequence(spec, i)) == []
            assert len(plan.level_table) == level_budget(spec, i)


def test_nu_distance_wraps_both_ways():
    spec = GridSpec((3, 7, 4))
    plan = build_blank_plan(spec, 2, matrix=load_matrix("seed_374_stage2.txt"))
    assert oracles.zeros_per_row(plan) == (6, 5, 5, 5)
    # last nonblank of section 1 vs first of section 2: adjacent after wrap
    assert nu_distance(plan, 1, 6, 2, 1) == 1
    assert nu_distance(plan, 2, 1, 1, 6) == 1
    assert nu_distance(plan, 1, 2, 1, 5) == 3


def test_stage2_matches_base_embedding():
    spec = GridSpec((5, 9))
    emb = build_fk(spec)
    assert emb.stage == 2
    assert emb.is_injective()
    coords = oracles.stage_coords(emb)
    assert coords[0].tolist() == [1, 1]
    # vertex (2, 4) is point 4 of chain 2 in the base map
    base = fill_columns(5, level_budget(spec, 2))
    t = base.offsets[1] + 3
    assert coords[rank_of(spec, (2, 4))].tolist() == [base.rows[t], base.cols[t]]


def test_seeded_3743_reproduces_worked_stack(emb_3743):
    # stacks at slot 4 with first coordinate 3, after seven sections:
    # four points, in height order, with known preimages and levels
    emb3 = emb_3743.stage_chain()[1]
    assert emb3.stage == 3
    spec = emb_3743.spec
    expected = [
        ((2, 4, 1, 1), 1, 4),
        ((2, 4, 3, 1), 2, 20),
        ((2, 3, 1, 2), 3, 36),
        ((2, 4, 2, 2), 4, 44),
    ]
    for coords, height, lvl in expected:
        rank = rank_of(spec, coords)
        assert oracles.stage_coords(emb3)[rank].tolist() == [3, 4, height]
        assert int(oracles.source_level(emb3)[rank]) == lvl
    assert stack_heights(emb3, 7)[(3, 4)] == 4


def test_seeded_3743_stage3_full_heights(emb_3743):
    emb3 = emb_3743.stage_chain()[1]
    table = full_stack_heights(emb3)
    for x in range(1, 5):
        assert table[(x, 2)] == 7
        assert table[(x, 5)] == 8
    assert sum(table.values()) == emb3.spec.size


def test_seeded_3743_stage4_heights(emb_3743):
    table = full_stack_heights(emb_3743)
    assert len(table) == 128
    counts = {h: sum(1 for v in table.values() if v == h) for h in set(table.values())}
    assert counts == {2: 124, 1: 4}
    assert max(table.values()) == level_budget(emb_3743.spec, 4) == 2
    # the four short stacks sit at slot pair (2, 3), one per first coordinate
    short = sorted(addr for addr, h in table.items() if h == 1)
    assert short == [(x, 2, 3) for x in range(1, 5)]
    halfway = stack_heights(emb_3743, 2)
    split = {h: sum(1 for v in halfway.values() if v == h) for h in (1, 2)}
    assert split == {1: 64, 2: 64}


def test_seeded_3743_stage4_known_stack(emb_3743):
    spec = emb_3743.spec
    got = {}
    coords = oracles.stage_coords(emb_3743)
    for rank in range(spec.size):
        img = coords[rank].tolist()
        if img[:3] == [3, 1, 2]:
            got[img[3]] = coords_of(spec, rank)
    assert got == {1: (3, 2, 2, 1), 2: (2, 1, 4, 2)}


def test_374_max_height_is_budget():
    spec = GridSpec((3, 7, 4))
    seeded = build_fk(spec, seed_matrices=[load_matrix("seed_374_stage2.txt")])
    library = build_fk(spec)
    for emb in (seeded, library):
        table = full_stack_heights(emb)
        assert max(table.values()) == 3 == level_budget(spec, 3)
        assert sum(table.values()) == spec.size


def test_pipeline_injective_and_bounded():
    for dims in [(3, 7, 4, 3), (5, 6, 5), (6, 6, 6, 6), (2, 3, 2)]:
        spec = GridSpec(dims)
        emb = build_fk(spec)
        assert emb.stage == spec.k
        assert emb.is_injective()
        coords = oracles.stage_coords(emb)
        for j in range(spec.k - 1):
            width = 1 << spec.block_width(j + 1)
            col = coords[:, j]
            assert col.min() >= 1 and col.max() <= width
        heights = coords[:, spec.k - 1]
        assert heights.min() >= 1
        assert heights.max() <= level_budget(spec, spec.k)


def traced_held(f, *args):
    """f(*args), its tracemalloc peak above what was allocated before it,
    and what is still allocated after it, held by its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        held, peak = tracemalloc.get_traced_memory()
        return out, peak - base, held - base
    finally:
        tracemalloc.stop()


def stored_bytes(fk) -> int:
    """What a chain stores: the base row and column, the coordinate tables
    and the designation matrices."""
    arrays = [fk.row, fk.column, *fk.tables, *(plan.F.bits for plan in fk.plans)]
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("dims", [(3,) * 9, (7, 11, 13, 97)])
def test_build_fk_memory_is_bounded_by_the_final_map(dims):
    """The chain is stored by base column: the base map's int32 row and
    column of each rank, one u_2-entry table per coordinate 2..k in its
    block's narrowest unsigned dtype, and each stage's designation matrix,
    with nothing derived kept (no composed steps, no plan's count tables,
    no per-section tuple).  What build_fk leaves allocated is those arrays
    and at most 64 KiB more (11.5 and 8.6 B per vertex here, 14.2 and 8.9
    while the plans kept per-section tuples, against 59.3 and 24.6 with the
    k x |G| int32 chain stored).  With the rounding temporaries its
    tracemalloc peak stays within 8 x |G| k 4 bytes (1.2 and 1.0 x here,
    2.1 and 2.4 x with the chain stored)."""
    spec = GridSpec(dims)
    fk, peak, held = traced_held(build_fk, spec)
    u2 = level_budget(spec, 2)
    for j, table in enumerate(fk.tables, start=2):
        assert table.shape == (u2,) and table.dtype == unsigned_dtype(spec.block_width(j))
    assert "steps" not in vars(fk)
    assert all(vars(plan).keys() == {"spec", "stage", "F"} for plan in fk.plans)
    assert stored_bytes(fk) <= held <= stored_bytes(fk) + (64 << 10)
    assert peak <= 8 * spec.size * spec.k * 4, peak / (spec.size * spec.k * 4)


def test_embed_holds_each_vertex_array_once():
    """An embedded 3^12 holds its int32 base row and column (8 B per
    vertex), uint32 labels (4 B), eleven uint8 coordinate tables of u_2 =
    |G| / 4 entries (2.7 B) and ten designation matrices (0.7 B): 15.4 B
    per vertex in all, within 20 (18.1 B while each plan kept its blanks
    and row sums per section as tuples, 66 B with the k x |G| int32 chain
    stored, 96 B with a |G|-entry source-level row per stage and int64
    labels)."""
    spec = GridSpec((3,) * 12)

    def embed(spec):
        return assemble_Hk(build_fk(spec))

    emb, _, held = traced_held(embed, spec)
    assert held >= stored_bytes(emb.fk) + emb.labels.nbytes
    assert held <= 20 * spec.size, held / spec.size


@pytest.mark.parametrize("dims", [(3,) * 12, (100, 100, 100)])
def test_embed_builds_no_vertex_index(dims):
    """No pass of an embed builds a |G|-entry intp or int64 array: the base
    map is placed by rank a block at a time, and every table is read by
    rank a block at a time.  So build_fk peaks within 25 and 15 B per
    vertex (21.9 and 13.1 here: the base row and column and the rounding's
    scratch), assemble_Hk within 7 B above the stored chain (5.8 and 4.4:
    the labels, one narrow coordinate row and its differences) and dilation
    within 2 B above the labeled embedding (0.6 and 0.3: one block); an
    index of 8 B per vertex would break each bound."""
    spec = GridSpec(dims)
    fk, build, _ = traced_held(build_fk, spec)
    emb, assemble, _ = traced_held(assemble_Hk, fk)
    _, scan, _ = traced_held(dilation, emb)
    bounds = (25, 7, 2) if spec.k == 12 else (15, 7, 2)
    got = tuple(round(x / spec.size, 2) for x in (build, assemble, scan))
    assert all(x <= bound for x, bound in zip(got, bounds)), got


def test_chain_is_stored_coordinate_major(battery_grids):
    """The chain is stored by base column: the base row and column are
    read-only |G|-entry int32 rows, and coordinate j >= 2 is a u_2-entry
    table in its block's narrowest unsigned dtype, read by rank into a
    contiguous int32 row; each stage's level row is contiguous int32, and at
    the top stage it is coordinate k.  A chain whose rows, tables or source
    levels do not fit, or whose tables do not all have one entry per base
    column, is refused."""
    fks = [*battery_grids.values(), build_fk(GridSpec((7, 11, 13, 97)))]
    for fk in fks:
        spec = fk.spec
        for arr in (fk.row, fk.column):
            assert arr.shape == (spec.size,) and arr.dtype == np.int32
            assert not arr.flags.writeable
        assert len(fk.tables) == spec.k - 1
        for j, table in enumerate(fk.tables, start=2):
            assert table.shape == (level_budget(spec, 2),)
            assert table.dtype == unsigned_dtype(spec.block_width(j))
        assert np.array_equal(oracles.level(fk), oracles.coordinate(fk, spec.k))
        for st in fk.stage_chain():
            assert st.column_levels().dtype == np.int32
    fk = build_fk(GridSpec((5, 6, 7)))
    for bad in [
        {"row": fk.row[:-1]},
        {"column": fk.column.reshape(1, -1)},
        {"tables": fk.tables[:-1]},
        {"tables": (fk.tables[0][:-1], fk.tables[1])},
        {"sources": ()},
        {"sources": (fk.steps[0][:-1],)},
        {"stage": 4},
    ]:
        with pytest.raises(ValueError):
            dataclasses.replace(fk, **bad)


def test_stack_refuses_a_stage_already_stacked():
    # only the top stage of a chain is stacked: a stage below it is
    # refused, and the chain keeps its tables
    fk = build_fk(GridSpec((5, 5, 6)))
    tables = fk.tables
    with pytest.raises(ValueError, match="stage 2 is already stacked"):
        stack(fk.stage_chain()[0], fk.plan)
    assert fk.tables is tables and stack(unstacked(fk), fk.plan).stage == 3


def unstacked(st):
    """What `stack` took to make stacked stage st: stage st.stage - 1 as the
    top of a new chain, its level by base column as the top table."""
    prev = st.stage_chain()[-2]
    i = prev.stage
    tables = (*st.tables[: i - 2], prev.column_levels() - 1)
    return StageEmbedding(st.spec, i, st.row, st.column, tables, st.plans[: i - 2])


def assert_stacked_as_sorted(fk):
    """Every stacked stage's offset and height columns are those the
    lexsort form of the stacking step gives on the stage below it."""
    chain = fk.stage_chain()
    for prev, st in zip(chain, chain[1:]):
        offsets, heights = oracles.stack_columns(prev, st.plan)
        j = st.stage
        coords = oracles.stage_coords(st)
        assert np.array_equal(coords[:, j - 2], offsets), (fk.spec.dims, j)
        assert np.array_equal(coords[:, j - 1], heights), (fk.spec.dims, j)


def test_stack_heights_match_the_sorted_form(battery_grids):
    fks = [*battery_grids.values()]
    for dims in [(3,) * 9, (7, 11, 13, 97), (12, 17, 22, 14)]:
        fks.append(build_fk(GridSpec(dims)))
    for fk in fks:
        assert_stacked_as_sorted(fk)


@settings(max_examples=40)
@given(family_grids())
def test_stack_heights_match_the_sorted_form_over_random_grids(dims):
    assert_stacked_as_sorted(build_fk(GridSpec(dims)))


@settings(max_examples=40)
@given(family_grids(side=12, budget=1 << 12), st.integers(0, 2**32 - 1))
def test_source_levels_match_the_per_vertex_chain_over_random_grids(dims, seed):
    """Every stage's source levels and levels, read through the base-column
    tables, and the whole chain equal the per-vertex chain's, with the
    solver's roundings and with random consistent ones."""
    grid = GridSpec(dims)
    rng = random.Random(seed)
    seeds = [oracles.random_FX(spec, rng) for spec in stage_rounding_specs(grid)]
    for fk in (build_fk(grid), build_fk(grid, seeds)):
        final, chain = oracles.per_vertex_chain(grid, list(fk.plans))
        assert np.array_equal(oracles.final(fk), final)
        for st, (source, level) in zip(fk.stage_chain(), chain, strict=True):
            assert np.array_equal(oracles.level(st), level), st.stage
            if source is None:
                assert oracles.source_level(st) is None
            else:
                assert np.array_equal(oracles.source_level(st), source), st.stage


@settings(max_examples=40)
@given(family_grids(side=12, budget=1 << 12), st.integers(0, 2**32 - 1))
def test_audits_with_random_roundings_over_random_grids(dims, seed):
    """Every stage seeded with a random consistent rounding: stacking still
    matches its sorted form (the staircase holds for any plan), no check but
    the case table fails, the embedding is injective, and the dilation is
    within the labelings' implied bound."""
    grid = GridSpec(dims)
    rng = random.Random(seed)
    seeds = [oracles.random_FX(spec, rng) for spec in stage_rounding_specs(grid)]
    checks, emb, report = audit_grid(grid, seeds)
    assert_stacked_as_sorted(emb.fk)
    fails = [c.line() for c in failed(checks) if not c.name.startswith("diffs.case-")]
    assert fails == []
    assert "embedding.injective: PASS" in [c.line() for c in checks]
    assert report.dilation <= report.implied_bound


def test_sorted_heights_refuses_two_points_of_one_section_at_one_key():
    # with every address zeroed, the points a level of one section holds
    # share the key, and the sorted form refuses them, so the tests that
    # compare `stack` with it fail on any such collision
    fk = build_fk(GridSpec((5, 5, 6)))
    prev = unstacked(fk)
    levels = fk.plan.level_table[oracles.stage_coords(prev)[:, 1] - 1]
    zero = np.zeros(fk.spec.size, dtype=np.int64)
    match = "two same-section points share an address and slot"
    with pytest.raises(AssertionError, match=match):
        oracles.sorted_heights(zero, fk.plan.section_of(levels))


@pytest.mark.parametrize(
    "dims", [(3,) * 10, (7, 11, 13, 97), (64, 64, 64), (5, 5, 4000)]
)
def test_stack_memory_is_bounded_per_vertex(dims):
    """One stacking step works on tables over base columns and the plan's
    count tables, never by rank: its tracemalloc peak stays within 24 B per
    vertex (0.3-4.2 B here; 16 B when it gathered the offsets and heights
    by rank, 28-35 B when heights came from a per-vertex (address x
    section) count table, 57-62 B from a lexsort)."""
    fk = build_fk(GridSpec(dims))
    for st in fk.stage_chain()[1:]:
        prev = unstacked(st)
        out, peak = traced_peak(stack, prev, st.plan)
        assert np.array_equal(oracles.stage_coords(out), oracles.stage_coords(st))
        assert peak <= 24 * fk.spec.size, (st.stage, peak / fk.spec.size)


def test_distinct_rows_matches_unique():
    rng = np.random.default_rng(7)
    for shape in [(0,), (0, 3), (1,), (1, 2), (60,), (60, 3), (500, 4)]:
        a = rng.integers(0, 4, size=shape)
        rows, counts = distinct_rows(a)
        expected, expected_counts = np.unique(a, axis=0, return_counts=True)
        assert np.array_equal(rows, expected) and rows.shape == expected.shape
        assert np.array_equal(counts, expected_counts)


def test_is_injective_matches_unique(battery_grids):
    # built chains lie in their box, where is_injective counts packed keys
    # in a mask
    for fk in battery_grids.values():
        for st in fk.stage_chain():
            expected = len(np.unique(oracles.stage_coords(st), axis=0)) == st.spec.size
            assert st.in_box and st.is_injective() == expected
    st = build_fk(GridSpec((5, 6, 7)))
    final = oracles.final(st)
    final[:, 3] = final[:, 40]
    assert not oracles.per_vertex(st, final).is_injective()
    # a coordinate of 0, one above its block width and a level above u_i,
    # with and without a second vertex on the same tuple: out of the box a
    # key can alias another, so these chains sort their rows instead
    for dims in [(5, 6, 7), (3, 7, 4, 3), (6, 9)]:
        fk = build_fk(GridSpec(dims))
        top = fk.stage - 1
        box = fk.box()
        for row, value in [(0, 0), (1, box[1] + 1), (top, box[top] + 1)]:
            for collide in (False, True):
                final = oracles.final(fk)
                final[row, 3] = value
                if collide:
                    final[:, 40] = final[:, 3]
                st = oracles.per_vertex(fk, final)
                assert not st.in_box
                coords = oracles.stage_coords(st)
                expected = len(np.unique(coords, axis=0)) == st.spec.size
                assert expected == (not collide)
                assert st.is_injective() == expected, (dims, row, value, collide)


def searchsorted_levels(st):
    """A stage's level row below the top, in its searchsorted form."""
    plan, step = st.plans[st.stage - 2], st.steps[st.stage - 2]
    return np.searchsorted(plan.level_table, by_rank(step, st.column)) + 1


def test_stage_levels_gather_as_the_searchsorted_form(battery_grids):
    # below the top stage, a stage's level is where the next step sits in
    # the next plan's level_table, for built chains ...
    for fk in [*battery_grids.values(), build_fk(GridSpec((3, 7, 4, 3)))]:
        for st in fk.stage_chain()[:-1]:
            assert np.array_equal(oracles.level(st), searchsorted_levels(st))
    # ... and for any int32 source level: blank, zero, negative, just past
    # the plan's last level or far beyond it
    fk = build_fk(GridSpec((3, 7, 4, 3)))
    for i, plan in enumerate(fk.plans, start=2):
        top = plan.F.bits.size
        blank = np.flatnonzero(plan.F.bits.ravel()) + 1
        assert len(blank)
        odd = [0, -1, top, top + 1, top + 2, 2**31 - 1, -(2**31), *blank[:8]]
        sources = oracles.source_levels(fk)
        sources[i - 2][: len(odd)] = odd
        st = dataclasses.replace(oracles.per_vertex(fk, sources=sources), stage=i)
        assert np.array_equal(oracles.level(st), searchsorted_levels(st)), i
        assert st.column_levels().dtype == np.int32


def test_stack_heights_two_value_contract_asserts():
    spec = GridSpec((5, 6, 5))
    emb = build_fk(spec)
    for r in range(1, spec.page_count(2)):
        table = stack_heights(emb, r)  # raises internally on violation
        assert sum(table.values()) == int((oracles.source_section(emb) <= r).sum())


def test_stack_heights_rejects_bad_prefix():
    spec = GridSpec((3, 7, 4))
    emb = build_fk(spec)
    with pytest.raises(ValueError):
        stack_heights(emb, 0)
    with pytest.raises(ValueError):
        stack_heights(emb, spec.page_count(2))
    with pytest.raises(ValueError):
        stack_heights(build_fk(GridSpec((5, 9))), 1)


def test_seed_count_validation():
    spec = GridSpec((3, 7, 4, 3))
    with pytest.raises(ValueError, match="seed matrices"):
        build_fk(spec, seed_matrices=[load_matrix("seed_374_stage2.txt")])


def test_stage_chain_and_sources(emb_3743):
    chain = emb_3743.stage_chain()
    assert [e.stage for e in chain] == [2, 3, 4]
    assert chain[0].plan is None
    for emb in chain[1:]:
        assert emb.plan is not None
        secs = oracles.source_section(emb)
        pages = emb.spec.page_count(emb.stage - 1)
        assert secs.min() >= 1 and secs.max() <= pages
        nus = oracles.source_nu(emb)
        assert nus.min() >= 1
        zeros = oracles.zeros_per_row(emb.plan)
        for sec, nu in zip(secs, nus):
            assert nu <= zeros[sec - 1]


def test_inflate_preserves_order_and_injectivity(emb_3743):
    emb3 = emb_3743.stage_chain()[1]
    plan = emb_3743.plan
    levels = by_rank(inflate(emb3, plan), emb3.column)
    coords = oracles.stage_coords(emb3)
    assert len(np.unique(np.column_stack([coords[:, :2], levels]), axis=0)) \
        == emb3.spec.size
    # level ordinals map through the plan's nonblank list
    for rank in [0, 5, 100, 251]:
        c = int(coords[rank, 2])
        assert int(levels[rank]) == plan.level_table[c - 1]
    assert np.array_equal(levels, oracles.source_level(emb_3743))


def stage_text(emb) -> str:
    """`dump_stage`'s blocks joined into one text."""
    return b"".join(bytes(block) for block in dump_stage(emb)).decode("ascii")


def test_dump_stage_format():
    spec = GridSpec((3, 7, 4))
    emb = build_fk(spec)
    text = stage_text(emb)
    lines = text.splitlines()
    assert lines[0] == f"STAGE 3 {level_budget(spec, 3)}"
    assert lines[1].startswith("0: (")
    assert len(lines) == spec.size + 1
    first = oracles.stage_coords(emb)[0].tolist()
    assert lines[1] == "0: (" + ", ".join(str(c) for c in first) + ")"


def test_dump_stage_matches_per_rank_reference(battery_grids):
    # (7, 11, 13, 97): five-digit ranks, and |G| not a multiple of a block
    fks = [*battery_grids.values(), build_fk(GridSpec((7, 11, 13, 97)))]
    assert max(fk.spec.size for fk in fks) >= 10_000
    for fk in fks:
        for st in fk.stage_chain():
            assert stage_text(st) == oracles.dump_stage(st), (fk.spec.dims, st.stage)


@pytest.mark.parametrize("stage", [2, 3])
def test_dump_stage_memory_is_bounded_per_vertex(stage):
    """Taking every block of a stage dump of 100^3 peaks below 4 B per
    vertex: each block reads its own ranks' row and column and the u_2-entry
    tables, never a |G|-entry row of the stage."""
    spec = GridSpec((100, 100, 100))
    emb = build_fk(spec).view(stage)

    def consume():
        return sum(len(block) for block in dump_stage(emb))

    size, peak = traced_peak(consume)
    assert size > 15 * spec.size
    assert peak < 4 * spec.size, peak / spec.size
