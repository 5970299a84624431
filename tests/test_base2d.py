from __future__ import annotations

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chain_prefix_count
from test_checks import family_grids, traced_peak
from test_tracing_names import load_perfbench

from gridcube.base2d import build_R, build_f2, fill_columns, place
from gridcube.grids import GridSpec, level_budget
from gridcube.stages import build_fk


def test_build_R_golden():
    R = build_R(5)
    assert (R.e1, R.first_column) == (3, (0, 1, 0, 1, 1))
    assert sum(R.first_column) == 3
    assert build_R(4).first_column == (0, 0, 0, 0)
    R3 = build_R(3)
    assert sum(R3.first_column) == 1
    assert R3.first_column == (0, 0, 1)
    assert [build_R(a1).e1 for a1 in (2, 3, 4, 5, 8, 9)] == [1, 2, 2, 3, 3, 4]


def test_build_R_rejects_inconsistent_exponent():
    # the exponent is derived from a1, so only the chain count can be wrong
    with pytest.raises(ValueError):
        build_R(1)


def circulant(R, i, j):
    """R(i, j) = first_column[(i - j) mod a1], 1-based, periodic in j."""
    return R.first_column[(i - j) % R.a1]


def test_circulant_accessor_periodic():
    R = build_R(5)
    # column 1 equals the first column
    assert [circulant(R, i, 1) for i in range(1, 6)] == list(R.first_column)
    # column sums stay 2^{e1} - a1 in every column
    for j in range(1, 6):
        assert sum(circulant(R, i, j) for i in range(1, 6)) == 3


def test_consecutive_sum_examples():
    R = build_R(5)
    assert oracles.consecutive_sum(R, 5) == 3  # full period is exact
    assert oracles.consecutive_sum(R, 2) == 1  # runs are 1 or 2
    assert oracles.consecutive_sum(build_R(8), 4) == 0
    assert oracles.consecutive_sum(R, 7) == 4  # spans more than one period


def test_first_image_is_origin():
    emb = fill_columns(3, 4)
    assert (emb.rows[0], emb.cols[0]) == (1, 1)


def test_fill_columns_structure():
    emb = fill_columns(5, 12)
    # prefix counts are counted only when read
    assert "prefix_counts" not in vars(emb)
    # every image distinct, every column exactly full
    seen = set(zip(emb.rows.tolist(), emb.cols.tolist()))
    assert len(seen) == len(emb.rows) == 12 * 8
    assert np.bincount(emb.cols)[1:].tolist() == [8] * 12
    # chain positions advance monotonically through columns
    for i in range(1, 6):
        cols = emb.cols[emb.offsets[i - 1] : emb.offsets[i]]
        assert (np.diff(cols) >= 0).all()
    for arr in (emb.rows, emb.cols, emb.offsets, emb.prefix_counts):
        assert not arr.flags.writeable


def column_positions(emb):
    """Chain position of the point in every cell, m x 2^{e1} like
    `column_inverse`, derived from the chain offsets; 0 marks an empty cell."""
    t = np.arange(len(emb.rows))
    chain = np.searchsorted(emb.offsets, t, side="right") - 1
    pos = np.zeros((emb.m, emb.height), dtype=np.int64)
    pos[emb.cols - 1, emb.rows - 1] = t - emb.offsets[chain] + 1
    return pos


def layout(emb):
    """The built arrays in the literal loop's form: (chains, columns)."""
    rows, cols, off = emb.rows.tolist(), emb.cols.tolist(), emb.offsets.tolist()
    chains = tuple(tuple(zip(rows[a:b], cols[a:b])) for a, b in zip(off, off[1:]))
    owner, pos = emb.column_inverse(), column_positions(emb)
    columns = tuple(
        tuple(zip(o, p)) for o, p in zip(owner.tolist(), pos.tolist())
    )
    return chains, columns


def test_fill_columns_matches_literal_loop():
    # the criterion-04 range
    for a1 in range(2, 65):
        want = oracles.fill_columns(a1, 256)
        assert layout(fill_columns(a1, 256)) == want, a1


def test_build_f2_matches_literal_loop(battery_grids):
    stage_maps = [*battery_grids.values(), build_fk(GridSpec((3, 7, 4, 3)))]
    for fk in stage_maps:
        st2, spec = fk.stage_chain()[0], fk.spec
        base = build_f2(spec)
        a1 = spec.dims[0]
        chains, columns = oracles.fill_columns(a1, base.m)
        assert layout(fill_columns(a1, base.m)) == (chains, columns), spec.dims
        # rank r is point r // a1 + 1 of chain r mod a1 + 1, in the base map
        # written by rank and in the stage-2 map
        want = [chains[r % a1][r // a1] for r in range(spec.size)]
        assert list(zip(base.row.tolist(), base.column.tolist())) == want, spec.dims
        assert list(map(tuple, oracles.stage_coords(st2).tolist())) == want, spec.dims


@settings(max_examples=40)
@given(st.integers(2, 1024), st.integers(1, 24), st.data())
def test_closed_form_equals_the_literal_loop(a1, m, data):
    """The whole box of a random width, and `place` at random (chain,
    point) samples, against the literal loop, for a_1 = 2..1,024."""
    chains, columns = oracles.fill_columns(a1, m)
    assert layout(fill_columns(a1, m)) == (chains, columns)
    picks = data.draw(
        st.lists(st.tuples(st.integers(1, a1), st.integers(0, 1 << 20)), min_size=1, max_size=64)
    )
    chain = np.array([i for i, _ in picks])
    point = np.array([1 + x % len(chains[i - 1]) for i, x in picks])
    row, col = place(build_R(a1), chain, point)
    want = [chains[i - 1][q - 1] for i, q in zip(chain.tolist(), point.tolist())]
    assert list(zip(row.tolist(), col.tolist())) == want


def test_prefix_counts_match_closed_form():
    # counted off the built columns, against the running sum and the oracle
    emb = fill_columns(7, 9)
    for i in range(1, 8):
        run = 0
        for j in range(1, 10):
            run += 1 + circulant(emb.R, i, j)
            assert emb.prefix_counts[i - 1, j] == run
            assert chain_prefix_count(emb.R, i, j) == run


def benchmark_grids():
    """The distinct grids of the benchmark workloads."""
    workloads = load_perfbench("workloads").WORKLOADS
    return sorted({dims for operations in workloads.values() for _, dims in operations})


def benchmark_boxes():
    """The base-map box (a_1, u_2) of every benchmark grid."""
    return sorted(
        {(dims[0], level_budget(GridSpec(dims), 2)) for dims in benchmark_grids()}
    )


def test_prefix_counts_equal_the_closed_form_on_every_box():
    # the criterion-04 range, then every benchmark grid's own box
    boxes = [(a1, 256) for a1 in range(2, 65)] + benchmark_boxes()
    assert len(boxes) > 300
    for a1, m in boxes:
        emb = fill_columns(a1, m)
        want = chain_prefix_count(
            emb.R, np.arange(1, a1 + 1)[:, None], np.arange(m + 1)[None, :]
        )
        assert np.array_equal(emb.prefix_counts, want), (a1, m)
        assert not emb.prefix_counts.flags.writeable


def assert_columns_full_and_chains_long(emb, per_chain):
    """Every column holds 2^{e1} points and every chain at least per_chain:
    the facts the docstrings of `fill_columns` and `build_f2` prove."""
    per_column = np.bincount(emb.cols, minlength=emb.m + 1)[1:]
    assert (per_column == emb.height).all(), (emb.a1, emb.m)
    assert np.diff(emb.offsets).min() >= per_chain, (emb.a1, emb.m)


def test_proved_base_map_facts_hold_on_every_benchmark_box():
    """Every benchmark box fills its columns, and its chains hold the P_1
    points of the longest-chained benchmark grid on it; the chain battery's
    grid restriction L = floor(m 2^{e1} / a1) has L >= 1 and reaches column
    m, over the criterion-04 chain counts and every column count to 256."""
    need = {}
    for dims in benchmark_grids():
        spec = GridSpec(dims)
        box = (dims[0], level_budget(spec, 2))
        need[box] = max(need.get(box, 0), spec.page_count(1))
    assert len(need) == 264
    for (a1, m), per_chain in need.items():
        assert_columns_full_and_chains_long(fill_columns(a1, m), per_chain)
    a1 = np.arange(2, 65)[:, None]
    height = 1 << np.array([(a - 1).bit_length() for a in range(2, 65)])[:, None]
    m = np.arange(2, 257)[None, :]
    L = m * height // a1
    assert (L >= 1).all()
    assert (-(-a1 * L // height) == m).all()


@settings(max_examples=60)
@given(family_grids())
def test_build_f2_fills_columns_and_holds_pages_over_random_grids(dims):
    spec = GridSpec(dims)
    base = build_f2(spec)
    box = fill_columns(spec.dims[0], base.m)
    assert_columns_full_and_chains_long(box, spec.page_count(1))
    # the base map by rank holds each chain's first P_1 points of the box
    place = np.arange(spec.size) // spec.dims[0]
    at = box.offsets[np.arange(spec.size) % spec.dims[0]] + place
    assert np.array_equal(base.row, box.rows[at]) and np.array_equal(base.column, box.cols[at])


def assert_rows_are_staircases(a1):
    """In columns 1..2 a1 + 1 of the filled box, the chain-point index of
    each row's cells (the 0-based position of the cell's point in its
    chain) never decreases from column to column.  The box is periodic in
    the column with period 2 a1, so these columns decide it for any m."""
    emb = fill_columns(a1, 2 * a1 + 1)
    chain = np.repeat(np.arange(a1), np.diff(emb.offsets))
    index = np.zeros((emb.m, emb.height), dtype=np.int64)
    index[emb.cols - 1, emb.rows - 1] = np.arange(len(chain)) - emb.offsets[chain]
    assert (np.diff(index, axis=0) >= 0).all(), a1


def test_base_rows_are_staircases():
    """Stage 2's staircase: the grid keeps the first P_1 points of every
    chain, so each row's grid points fill columns 1..c(row) for any P_1."""
    for a1 in range(2, 129):
        assert_rows_are_staircases(a1)


@settings(max_examples=6)
@given(st.integers(129, 1024))
def test_base_rows_are_staircases_for_wide_chains(a1):
    assert_rows_are_staircases(a1)


@pytest.mark.parametrize("dims", [(100, 100, 100), (3,) * 12])
def test_fill_columns_memory_is_bounded_per_box_point(dims):
    """The layout is placed into int32 rows and columns a block of points
    at a time: at most 64 B per box point (about 8.7 and 9.2 here; 28
    and 30 when the cells were filled from a1 x m circulant tables, 82 and
    86 when the prefix-count table was built and compared with the closed
    form on every build)."""
    spec = GridSpec(dims)
    m = level_budget(spec, 2)
    emb, peak = traced_peak(fill_columns, dims[0], m)
    assert peak <= 64 * emb.height * m, peak / (emb.height * m)


def test_integer_prefix_count_matches_fraction_form():
    # the criterion-04 range, every column prefix, so j > i is covered
    m = 256
    for a1 in range(3, 65):
        R = build_R(a1)
        got = chain_prefix_count(
            R, np.arange(1, a1 + 1)[:, None], np.arange(m + 1)[None, :]
        )
        assert got.tolist() == oracles.chain_prefix_counts(a1, m), a1
        assert chain_prefix_count(R, a1, m) == int(got[-1, -1])
    with pytest.raises(ValueError):
        chain_prefix_count(build_R(5), 1, -1)


def test_column_profile_occupancy():
    # chain i fills 1 + R(i,j) cells of column j, a double on successive rows
    emb = fill_columns(5, 10)
    owner = emb.column_inverse()
    for i in range(1, 6):
        for j in range(1, 11):
            hits = np.flatnonzero(owner[j - 1] == i)
            assert len(hits) == 1 + circulant(emb.R, i, j)
            if len(hits) == 2:
                assert hits[1] - hits[0] == 1
    # power-of-two chain count: always single
    owner8 = fill_columns(8, 6).column_inverse()
    for i in range(1, 9):
        assert ((owner8 == i).sum(axis=1) == 1).all()


def test_double_contribution_parity():
    # in even columns the later chain position sits on the lower row
    emb = fill_columns(3, 8)
    owner, pos = emb.column_inverse(), column_positions(emb)
    doubles = 0
    for i in range(1, 4):
        for j in range(1, 9):
            hits = np.flatnonzero(owner[j - 1] == i)
            rows = {int(pos[j - 1, r]): r + 1 for r in hits}
            if len(rows) == 2:
                doubles += 1
                p1, p2 = sorted(rows)
                if j % 2 == 0:
                    assert rows[p1] == rows[p2] + 1
                else:
                    assert rows[p2] == rows[p1] + 1
    assert doubles == 8


def image(emb, spec, coords):
    """The base map of a grid vertex: its chain fold, then the chain's
    point, read at its rank (point p of chain i is rank (p - 1) a_1 + i - 1)."""
    i, p = oracles.kappa(spec, coords)
    rank = (p - 1) * spec.dims[0] + i - 1
    return int(emb.row[rank]), int(emb.column[rank])


def test_build_f2_golden_vertex():
    spec = GridSpec((3, 7, 4, 3))
    emb = build_f2(spec)
    assert emb.m == level_budget(spec, 2) == 63
    assert image(emb, spec, (1, 1, 1, 1)) == (1, 1)
    # the fourth point of chain 2 lands at (3, 3): column 3 is the chain's
    # first double contribution, placed ascending in an odd column
    assert image(emb, spec, (2, 4, 1, 1)) == (3, 3)


def test_grid_fits_and_images_distinct():
    spec = GridSpec((5, 9))
    emb = build_f2(spec)
    images = {image(emb, spec, oracles.coords_of(spec, r)) for r in range(spec.size)}
    assert len(images) == spec.size
    rows = {r for r, _ in images}
    cols = {c for _, c in images}
    assert max(rows) <= 8 and max(cols) <= emb.m


def test_adjacent_vertices_stay_close_2d():
    # cross-chain neighbors (same position): rows within 3, columns within 1;
    # same-chain neighbors: rows within 2 (the whole chain spans 3 rows), and
    # columns within 1 when the positions are consecutive (dimension 2)
    for dims in [(5, 9), (3, 7, 4), (6, 6, 5)]:
        spec = GridSpec(dims)
        emb = build_f2(spec)
        for r in range(spec.size):
            c = oracles.coords_of(spec, r)
            img = image(emb, spec, c)
            for t in range(spec.k):
                if c[t] < spec.dims[t]:
                    w = tuple(x + (1 if s == t else 0) for s, x in enumerate(c))
                    other = image(emb, spec, w)
                    if t == 0:
                        assert abs(img[0] - other[0]) <= 3
                        assert abs(img[1] - other[1]) <= 1
                    else:
                        assert abs(img[0] - other[0]) <= 2
                        if t == 1:
                            assert abs(img[1] - other[1]) <= 1

