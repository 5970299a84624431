from __future__ import annotations

import itertools

import numpy as np
import pytest
from oracles import _vertex_pages, coords_of, kappa, page_index, rank_of

from gridcube.grids import VERTEX_BOUND, GridSpec, compute_exponents, level_budget


def test_exponents_golden():
    assert compute_exponents([3, 7, 4]) == (0, 2, 5, 7)
    assert compute_exponents([2, 2, 2]) == (0, 1, 2, 3)
    assert compute_exponents([5, 9]) == (0, 3, 6)
    assert compute_exponents([3, 7, 4, 3]) == (0, 2, 5, 7, 8)


def test_exponents_rejects_bad_dims():
    with pytest.raises(ValueError):
        compute_exponents([])
    with pytest.raises(ValueError):
        compute_exponents([3, 1, 4])
    with pytest.raises(ValueError):
        compute_exponents([0])


def test_exponents_match_doubling_oracle():
    # ceil(log2 p) == smallest e with 2^e >= p, found by repeated doubling
    def doubling(p):
        e, pow2 = 0, 1
        while pow2 < p:
            e += 1
            pow2 *= 2
        return e

    for dims in [(3, 7, 4), (5, 9), (64, 64), (2, 3, 5, 7, 11), (9, 9, 9, 9)]:
        exps = compute_exponents(dims)
        prod = 1
        for i, a in enumerate(dims, start=1):
            prod *= a
            assert exps[i] == doubling(prod)


def test_spec_rejects_tiny_and_huge():
    with pytest.raises(ValueError):
        GridSpec((5,))
    with pytest.raises(ValueError):
        GridSpec((3, 1, 4))
    with pytest.raises(ValueError):
        GridSpec((1 << 13, 1 << 14))  # 2^27 vertices, above the default cap
    GridSpec((1 << 13, 1 << 13))  # exactly at the cap is fine


def test_spec_takes_integer_sides_only():
    # a float or a string side would build another grid if truncated or parsed
    for dims in [(2.5, 4), ("3", 4), (3, 4.0), (3, None)]:
        with pytest.raises(ValueError, match="grid sides must be integers"):
            GridSpec(dims)
    spec = GridSpec((np.int64(3), np.uint8(4)))
    assert spec.dims == (3, 4) and all(type(a) is int for a in spec.dims)
    assert spec == GridSpec((3, 4))


def test_spec_bounds_the_grid_at_2_31_vertices_under_any_cap():
    # decided from the side lengths alone: nothing of the grid's size is built
    with pytest.raises(ValueError, match=r"above 2\^31"):
        GridSpec((1 << 16, (1 << 15) + 1), vertex_cap=1 << 40)
    spec = GridSpec((1 << 16, 1 << 15), vertex_cap=1 << 40)
    assert spec.size == VERTEX_BOUND and spec.n == 31


# grids at or near 2^31 vertices: sides of 2 (every key field as wide as
# its proof allows), three blocks, equal sides just under the cube root, odd
# sides, and one stage-2 block 2^29 wide
WIDEST_GRIDS = [
    (2,) * 31,
    (1024, 1024, 2048),
    (1290, 1290, 1290),
    (3, 5, 7, 11, 13, 17, 19, 23, 19),
    (2, (1 << 28) + 1, 3),
]


@pytest.mark.parametrize("dims", WIDEST_GRIDS)
def test_widths_fit_int64_up_to_the_vertex_bound(dims):
    """The widths the docstrings of `checks._transition_checks`,
    `checks._subpage_alignment` and `rounding.build_FX` bound, from the
    grid's arithmetic alone: both packed stacking keys of every stage, with
    fields as wide as `_transition_checks` makes them, fit in 63 bits, the
    packed (ordinal, row size) pairs stay below (w + 1)^2 < 2^61, and the
    largest solver input of every stage plan, (P_i + 1)(w + 1) entries over
    D = w, keeps count * D below (3/4) |G|^2 + 2 |G| < 2^62."""
    spec = GridSpec(dims, vertex_cap=VERTEX_BOUND)
    size = spec.size
    assert size > VERTEX_BOUND // 2
    for j in range(3, spec.k + 1):
        address_bits = spec.exponents[j - 1]
        height_bits = level_budget(spec, j).bit_length()
        rank_bits = (size - 1).bit_length()
        page_bits = spec.page_count(j - 1).bit_length()
        assert address_bits + height_bits + rank_bits <= 63, (dims, j)
        assert address_bits + page_bits + height_bits <= 63, (dims, j)
        assert ((1 << spec.block_width(j - 1)) + 1) ** 2 < 1 << 61, (dims, j)
    for i in range(2, spec.k):
        w = 1 << spec.block_width(i)
        count_times_D = (spec.page_count(i) + 1) * (w + 1) * w
        assert 4 * count_times_D < 3 * size**2 + 8 * size, (dims, i)
        assert count_times_D < 1 << 62, (dims, i)


def test_rank_is_reversed_lex_bijection():
    spec = GridSpec((3, 4, 2))
    seen = set()
    for coords in itertools.product(range(1, 4), range(1, 5), range(1, 3)):
        r = rank_of(spec, coords)
        assert coords_of(spec, r) == coords
        seen.add(r)
    assert seen == set(range(spec.size))
    # last coordinate most significant
    assert rank_of(spec, (1, 1, 2)) > rank_of(spec, (3, 4, 1))
    assert rank_of(spec, (2, 1, 1)) == 1


def test_kappa_golden():
    assert kappa(GridSpec((3, 7)), (2, 5)) == (2, 5)
    assert kappa(GridSpec((3, 7, 4)), (2, 4, 3)) == (2, 18)
    assert kappa(GridSpec((3, 7, 4, 3)), (1, 1, 1, 1)) == (1, 1)
    with pytest.raises(ValueError):
        kappa(GridSpec((3, 7, 4)), (4, 1, 1))


def vertices(spec):
    return [coords_of(spec, r) for r in range(spec.size)]


def test_kappa_bijective_and_page_intervals():
    spec = GridSpec((3, 5, 4, 2))
    seen = set()
    for v in vertices(spec):
        x1, y = kappa(spec, v)
        assert 1 <= x1 <= 3 and 1 <= y <= spec.page_count(1)
        seen.add((x1, y))
    assert len(seen) == spec.size
    # the chains of i-page j fold onto one consecutive y-interval
    for i in (2, 3):
        block = spec.prefix_product(i) // spec.dims[0]  # a_2 ... a_i
        for v in vertices(spec):
            j = page_index(spec, v, i)
            _, y = kappa(spec, v)
            assert (j - 1) * block + 1 <= y <= j * block


def test_page_index_golden():
    spec = GridSpec((3, 7, 4, 3))
    assert page_index(spec, (2, 4, 2, 2), 2) == 6
    assert page_index(spec, (2, 4, 1, 1), 2) == 1
    assert page_index(spec, (3, 7, 1, 1), 2) == 1
    assert page_index(spec, (1, 1, 1, 1), 3) == 1
    with pytest.raises(ValueError):
        page_index(spec, (1, 1, 1, 1), 4)
    with pytest.raises(ValueError):
        page_index(spec, (1, 1, 1, 1), 0)
    # the batteries' per-rank page arrays (i = k: the whole grid is one page)
    for i in (1, 2, 3):
        want = [page_index(spec, v, i) for v in vertices(spec)]
        assert _vertex_pages(spec, i).tolist() == want
    assert np.all(_vertex_pages(spec, 4) == 1)


def test_page_refinement():
    spec = GridSpec((3, 4, 3, 2))
    for i in (2, 3):
        for v, w in itertools.product(vertices(spec)[::7], repeat=2):
            if page_index(spec, v, i) != page_index(spec, w, i):
                if page_index(spec, v, i - 1) < page_index(spec, w, i - 1):
                    assert page_index(spec, v, i) <= page_index(spec, w, i)


def test_level_budget_golden():
    g = GridSpec((3, 7, 4, 3))
    assert level_budget(g, 2) == 63
    assert level_budget(g, 3) == 8
    assert level_budget(g, 4) == 2
    assert level_budget(GridSpec((4, 8)), 2) == 8
    assert level_budget(GridSpec((3, 7, 4)), 2) == 21
    assert level_budget(GridSpec((3, 7, 4)), 3) == 3
    with pytest.raises(ValueError):
        level_budget(g, 1)
    with pytest.raises(ValueError):
        level_budget(g, 5)


def test_section_prefixes_grow_past_every_page_prefix():
    """The clause of page-section containment that reads only the grid:
    with A = a_1...a_{j-1} and L = 2^{e_{j-2}}, ceil(r A / L) L < (r + 1) A
    for every page prefix r = 1..P_{j-1} - 1, since L < 2 a_1...a_{j-2} <= A.
    The transition battery relies on it instead of testing it."""
    grids = list(itertools.product(range(2, 10), repeat=3))
    grids += list(itertools.product(range(2, 6), repeat=4))
    grids += [(2,) * 6, (3,) * 6, (2, 3, 4, 2, 3, 4), (5, 5, 4000), (2, 1000, 2)]
    for dims in grids:
        spec = GridSpec(dims)
        for j in range(3, spec.k + 1):
            A = spec.prefix_product(j - 1)
            L = 1 << spec.exponents[j - 2]
            r = np.arange(1, spec.page_count(j - 1))
            assert (-(-r * A // L) * L < (r + 1) * A).all(), (dims, j)
