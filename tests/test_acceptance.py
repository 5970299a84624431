"""Acceptance suite: ten criteria, one test (and one result line) each.

Each test carries its stated time budget and asserts it; the grids shared by
the battery criteria (the ``battery_grids`` fixture of conftest.py) are built
once per session.
"""
from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
from oracles import (
    brute_force_dilation,
    full_stack_heights,
    matrix_rounding_violations,
    solver_round_matrix,
    window_violations,
)

from gridcube.caterpillars import (
    caterpillar_for,
    double_caterpillar,
    label_from_caterpillar,
    search_caterpillar,
    verify_window,
)
from gridcube.checks import (
    assemble_Hk,
    chain_battery,
    coordinate_diffs,
    diff_case_checks,
    dilation,
    pipeline_battery,
)
from gridcube.grids import GridSpec, level_budget
from gridcube.rounding import RoundingSpec, balance_violations, build_FX, parse_matrices
from gridcube.stages import build_blank_plan, build_fk, s_sequence

DATA = Path(__file__).parent / "data"


def load_seed(name: str):
    [matrix] = parse_matrices((DATA / name).read_text())
    return matrix


def test_criterion_01_golden_sequences():
    start = time.monotonic()
    g374 = GridSpec((3, 7, 4))
    g3743 = GridSpec((3, 7, 4, 3))
    assert tuple(s_sequence(g374, 2)) == (2, 3, 3, 3)
    assert tuple(s_sequence(g3743, 2)) == (2, 3, 3, 3) * 3
    assert tuple(s_sequence(g3743, 3)) == (1, 1, 2)
    assert g374.exponents == (0, 2, 5, 7)
    assert level_budget(g3743, 2) == 63
    assert level_budget(g3743, 3) == 8
    assert level_budget(g3743, 4) == 2
    assert time.monotonic() - start < 1.0


def test_criterion_02_golden_matrices():
    start = time.monotonic()
    cases = [
        ("seed_374_stage2.txt", GridSpec((3, 7, 4)), 2),
        ("seed_3743_stage2.txt", GridSpec((3, 7, 4, 3)), 2),
        ("seed_3743_stage3.txt", GridSpec((3, 7, 4, 3)), 3),
    ]
    for name, spec, stage in cases:
        X = s_sequence(spec, stage)
        width = 1 << spec.block_width(stage)
        for F in (load_seed(name), build_blank_plan(spec, stage).F):
            T = [[Fraction(x, width)] * width for x in X]
            assert matrix_rounding_violations(T, F) == []
            assert balance_violations(F, X) == []
    assert time.monotonic() - start < 1.0


def test_criterion_03_golden_stack_heights():
    start = time.monotonic()
    spec = GridSpec((3, 7, 4, 3))
    seeds = [load_seed("seed_3743_stage2.txt"), load_seed("seed_3743_stage3.txt")]
    fk = build_fk(spec, seed_matrices=seeds)
    stage3 = {st.stage: st for st in fk.stage_chain()}[3]
    heights = full_stack_heights(stage3)
    for (c1, c2), h in heights.items():
        if c2 == 2:
            assert h == 7, (c1, c2, h)
        if c2 == 5:
            assert h == 8, (c1, c2, h)
    # the 252 grid points cannot fill 128 stacks of height 2 exactly; the
    # four stacks addressed (x, 2, 3) stop at height 1 and the rest reach 2
    final = full_stack_heights(fk)
    assert len(final) == 128
    short = {addr for addr, h in final.items() if h == 1}
    assert short == {(x, 2, 3) for x in range(1, 5)}
    assert all(h == 2 for addr, h in final.items() if addr not in short)
    assert max(final.values()) == level_budget(spec, 4) == 2

    g374 = GridSpec((3, 7, 4))
    stage3 = build_fk(g374)
    assert max(full_stack_heights(stage3).values()) == level_budget(g374, 3) == 3
    assert time.monotonic() - start < 5.0


def test_criterion_04_chain_battery_exhaustive():
    start = time.monotonic()
    for a1 in range(3, 65):
        results = chain_battery(a1)
        bad = [c.line() for c in results if not c.ok]
        assert bad == [], (a1, bad)
    assert time.monotonic() - start < 30.0


def test_criterion_05_rounding_contracts():
    start = time.monotonic()
    rng = Random(20260815)
    for _ in range(200):
        m, n = rng.randint(1, 16), rng.randint(1, 16)
        T = [
            [Fraction(rng.randint(0, d), d) for d in (rng.randint(1, 12) for _ in range(n))]
            for _ in range(m)
        ]
        F = solver_round_matrix(T)
        assert matrix_rounding_violations(T, F) == []
    for _ in range(200):
        n = rng.randint(2, 64)
        lo = rng.randint(0, max(0, n // 2 - 2))
        m = rng.randint(1, 64)
        spec = RoundingSpec(tuple(lo + rng.randint(0, 1) for _ in range(m)), n)
        F = build_FX(spec)
        assert balance_violations(F, spec.X) == []
        assert window_violations(spec, F) == []
    assert time.monotonic() - start < 30.0


def test_criterion_06_pipeline_battery(battery_grids):
    start = time.monotonic()
    for (k, a), fk in battery_grids.items():
        results = pipeline_battery(fk)
        bad = [c.line() for c in results if c.status == "FAIL"]
        assert bad == [], ((k, a), bad)
    assert time.monotonic() - start < 120.0


def test_criterion_07_coordinate_difference_bounds(battery_grids):
    start = time.monotonic()
    for (k, a), fk in battery_grids.items():
        diffs = coordinate_diffs(fk)
        assert max(diffs.per_dimension()) <= 17, (k, a)
        results = diff_case_checks(diffs)
        bad = [c.line() for c in results if c.status == "FAIL"]
        assert bad == [], ((k, a), bad)
        if a >= 8:
            assert all(c.status == "PASS" for c in results), (k, a)
    assert time.monotonic() - start < 60.0


def test_criterion_08_caterpillar_labelings():
    start = time.monotonic()
    cat31 = search_caterpillar(3, 1)
    assert (cat31.spine_length, cat31.leaf_degree) == (4, 1)
    cat63 = search_caterpillar(6, 3)
    assert (cat63.spine_length, cat63.leaf_degree) == (16, 3)
    # the search is the oracle for the built-in base caterpillars
    for found, built in ((cat31, caterpillar_for(3, 1)), (cat63, caterpillar_for(6, 3))):
        assert found.t == built.t
        assert np.array_equal(found.spine, built.spine)
        assert np.array_equal(found.leaves, built.leaves)
    family = [cat31, double_caterpillar(cat31)]
    assert family[-1].t == 4
    chain = [cat63]
    for _ in range(2):
        chain.append(double_caterpillar(chain[-1]))
    assert [c.t for c in chain] == [6, 7, 8]
    family += chain
    for cat in family:
        cat.validate()
        labeling = label_from_caterpillar(cat)
        assert labeling.window == cat.leaf_degree + 2
        assert verify_window(labeling, labeling.window, 3) is None
    # tightness: one window further, some pair exceeds distance 3 (the
    # leaf-degree-3 family; the degree-1 family has no such pair)
    for cat in chain:
        labeling = label_from_caterpillar(cat)
        assert verify_window(labeling, labeling.window + 1, 3) is not None
    assert time.monotonic() - start < 60.0


def test_criterion_09_conditional_three_per_dimension(battery_grids):
    start = time.monotonic()
    instances = list(battery_grids.values())
    instances += [build_fk(GridSpec((8, 8))), build_fk(GridSpec((32, 32)))]
    saw_guarantee = 0
    for fk in instances:
        report = dilation(assemble_Hk(fk))
        assert report.window_implication_sound, fk.spec.dims
        assert report.dilation <= report.implied_bound, fk.spec.dims
        if report.guaranteed_3k:
            saw_guarantee += 1
            assert report.dilation <= 3 * fk.spec.k, fk.spec.dims
    assert saw_guarantee >= 2
    assert time.monotonic() - start < 60.0


def test_criterion_10_brute_force_oracle():
    start = time.monotonic()
    assert not brute_force_dilation(GridSpec((2, 3)), 0)
    assert brute_force_dilation(GridSpec((2, 3)), 1)
    assert brute_force_dilation(GridSpec((3, 3)), 2)
    assert time.monotonic() - start < 60.0
