from __future__ import annotations

import numpy as np
import oracles
import pytest

from gridcube import base2d
from gridcube.base2d import (
    build_R,
    build_f2,
    chain_prefix_count,
    fill_columns,
)
from gridcube.grids import GridSpec, level_budget
from gridcube.stages import build_fk


def test_build_R_golden():
    R = build_R(5, 3)
    assert R.first_column == (0, 1, 0, 1, 1)
    assert sum(R.first_column) == 3
    assert build_R(4, 2).first_column == (0, 0, 0, 0)
    R3 = build_R(3, 2)
    assert sum(R3.first_column) == 1
    assert R3.first_column == (0, 0, 1)


def test_build_R_rejects_inconsistent_exponent():
    with pytest.raises(ValueError):
        build_R(5, 2)
    with pytest.raises(ValueError):
        build_R(4, 3)
    with pytest.raises(ValueError):
        build_R(1, 0)


def circulant(R, i, j):
    """R(i, j) = first_column[(i - j) mod a1], 1-based, periodic in j."""
    return R.first_column[(i - j) % R.a1]


def test_circulant_accessor_periodic():
    R = build_R(5, 3)
    # column 1 equals the first column
    assert [circulant(R, i, 1) for i in range(1, 6)] == list(R.first_column)
    # column sums stay 2^{e1} - a1 in every column
    for j in range(1, 6):
        assert sum(circulant(R, i, j) for i in range(1, 6)) == 3


def test_consecutive_sum_examples():
    R = build_R(5, 3)
    assert oracles.consecutive_sum(R, 5) == 3  # full period is exact
    assert oracles.consecutive_sum(R, 2) == 1  # runs are 1 or 2
    assert oracles.consecutive_sum(build_R(8, 3), 4) == 0
    assert oracles.consecutive_sum(R, 7) == 4  # spans more than one period


def test_first_image_is_origin():
    emb = fill_columns(3, 2, 4)
    assert (emb.rows[0], emb.cols[0]) == (1, 1)


def test_fill_columns_structure():
    emb = fill_columns(5, 3, 12)
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


def layout(emb):
    """The built arrays in the literal loop's form: (chains, columns)."""
    rows, cols, off = emb.rows.tolist(), emb.cols.tolist(), emb.offsets.tolist()
    chains = tuple(tuple(zip(rows[a:b], cols[a:b])) for a, b in zip(off, off[1:]))
    owner, pos = emb.column_inverse()
    columns = tuple(
        tuple(zip(o, p)) for o, p in zip(owner.tolist(), pos.tolist())
    )
    return chains, columns


def test_fill_columns_matches_literal_loop():
    # the criterion-04 range
    for a1 in range(2, 65):
        e1 = (a1 - 1).bit_length()
        want = oracles.fill_columns(a1, e1, 256)
        assert layout(fill_columns(a1, e1, 256)) == want, a1


def test_build_f2_matches_literal_loop(battery_grids):
    stage_maps = [*battery_grids.values(), build_fk(GridSpec((3, 7, 4, 3)))]
    for fk in stage_maps:
        st2, spec = fk.stage_chain()[0], fk.spec
        emb = build_f2(spec)
        chains, columns = oracles.fill_columns(spec.dims[0], spec.exponents[1], emb.m)
        assert layout(emb) == (chains, columns), spec.dims
        # the stage-2 map gathers rank r from point r // a1 + 1 of chain
        # r mod a1 + 1
        a1 = spec.dims[0]
        want = [chains[r % a1][r // a1] for r in range(spec.size)]
        assert list(map(tuple, st2.coords.tolist())) == want, spec.dims


def test_prefix_counts_match_closed_form():
    # the builder asserts this internally; spot-check the formula shape here
    emb = fill_columns(7, 3, 9)
    for i in range(1, 8):
        run = 0
        for j in range(1, 10):
            run += 1 + circulant(emb.R, i, j)
            assert emb.prefix_counts[i - 1, j] == run
            assert chain_prefix_count(emb.R, i, j) == run


def test_integer_prefix_count_matches_fraction_form():
    # the criterion-04 range, every column prefix, so j > i is covered
    m = 256
    for a1 in range(3, 65):
        R = build_R(a1, (a1 - 1).bit_length())
        got = chain_prefix_count(
            R, np.arange(1, a1 + 1)[:, None], np.arange(m + 1)[None, :]
        )
        assert got.tolist() == oracles.chain_prefix_counts(R.a1, R.e1, m), a1
        assert chain_prefix_count(R, a1, m) == int(got[-1, -1])
    with pytest.raises(ValueError):
        chain_prefix_count(build_R(5, 3), 1, -1)


def test_fill_columns_reports_first_prefix_mismatch(monkeypatch):
    real = base2d.chain_prefix_count

    def off_at_2_3(R, i, j):
        closed = real(R, i, j)
        closed[1, 3] += 1
        closed[4, 7] += 1
        return closed

    monkeypatch.setattr(base2d, "chain_prefix_count", off_at_2_3)
    with pytest.raises(AssertionError, match=r"prefix count N\(2,3\) disagrees"):
        fill_columns(5, 3, 12)


def test_column_profile_occupancy():
    # chain i fills 1 + R(i,j) cells of column j, a double on successive rows
    emb = fill_columns(5, 3, 10)
    owner, _ = emb.column_inverse()
    for i in range(1, 6):
        for j in range(1, 11):
            hits = np.flatnonzero(owner[j - 1] == i)
            assert len(hits) == 1 + circulant(emb.R, i, j)
            if len(hits) == 2:
                assert hits[1] - hits[0] == 1
    # power-of-two chain count: always single
    owner8, _ = fill_columns(8, 3, 6).column_inverse()
    for i in range(1, 9):
        assert ((owner8 == i).sum(axis=1) == 1).all()


def test_double_contribution_parity():
    # in even columns the later chain position sits on the lower row
    emb = fill_columns(3, 2, 8)
    owner, pos = emb.column_inverse()
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
    """The base map of a grid vertex: its chain fold, then the chain's point."""
    i, p = oracles.kappa(spec, coords)
    t = emb.offsets[i - 1] + p - 1
    return int(emb.rows[t]), int(emb.cols[t])


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

