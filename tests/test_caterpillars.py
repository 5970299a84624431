"""Tests for spanning caterpillars, their labelings, and window checks."""
from __future__ import annotations

import random
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcube import caterpillars
from gridcube.caterpillars import (
    _BASE_SPINES,
    _assign_leaves,
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


@pytest.fixture(scope="module")
def cat3():
    return caterpillar_for(3, 1)


@pytest.fixture(scope="module")
def cat6():
    return caterpillar_for(6, 3)


def test_parameter_rejections():
    with pytest.raises(ValueError, match="must be positive"):
        search_caterpillar(0, 1)
    with pytest.raises(ValueError, match="odd"):
        search_caterpillar(3, 2)
    with pytest.raises(ValueError, match="power of two"):
        search_caterpillar(4, 5)
    with pytest.raises(ValueError, match="below 3"):
        search_caterpillar(3, 3)
    with pytest.raises(ValueError, match="below 3"):
        search_caterpillar(2, 1)
    with pytest.raises(ValueError, match="exceeds cube degree"):
        search_caterpillar(4, 3)
    with pytest.raises(ValueError, match="does not tile"):
        search_caterpillar(2, 7)
    with pytest.raises(ValueError, match="search cap"):
        search_caterpillar(9, 1)


def test_search_exhaustion_is_distinct_from_rejection():
    # 32 = 8 * 4 tiles and the degree fits, yet no spanning caterpillar
    # with three leaves per spine vertex exists in a 5-cube.
    with pytest.raises(SearchExhausted):
        search_caterpillar(5, 3)


def test_golden_base_caterpillar(cat3):
    assert cat3.t == 3
    assert cat3.spine.tolist() == [0, 1, 3, 2]
    assert cat3.leaves.tolist() == [[4], [5], [7], [6]]
    assert cat3.spine_length == 4
    assert cat3.leaf_degree == 1
    assert cat3.window == 3
    cat3.validate()


def test_golden_degree_three_caterpillar(cat6):
    assert cat6.t == 6
    assert cat6.spine_length == 16
    assert cat6.leaf_degree == 3
    assert cat6.window == 5
    assert cat6.spine.tolist() == [
        0, 1, 3, 7, 15, 31, 29, 61, 53, 52, 54, 50, 58, 42, 40, 8,
    ]
    cat6.validate()


def test_validate_catches_breaks(cat6):
    with pytest.raises(ValueError, match="spine break"):
        Caterpillar(3, (0, 1, 2, 3), ((4,), (5,), (7,), (6,))).validate()
    with pytest.raises(ValueError, match="not adjacent"):
        Caterpillar(3, (0, 1, 3, 2), ((5,), (4,), (7,), (6,))).validate()
    # Duplicate a leaf within one spine vertex's own list: adjacency still
    # holds, so only the exact-coverage check can catch it.
    rows = cat6.leaves.copy()
    rows[0, 1] = rows[0, 0]
    with pytest.raises(ValueError, match="covered exactly once"):
        Caterpillar(cat6.t, cat6.spine, rows).validate()


def test_labeling_block_structure(cat3):
    lab = label_from_caterpillar(cat3)
    assert lab.order.tolist() == [4, 0, 5, 1, 7, 3, 6, 2]
    assert lab.window == 3
    # spine vertex i holds label 2i
    for i, v in enumerate(cat3.spine, start=1):
        assert lab.order[2 * i - 1] == v
    with pytest.raises(ValueError, match="not a bijection"):
        CubeLabeling(3, np.append(lab.order[:-1], lab.order[0]), 3)


def test_window_property_holds(cat3, cat6):
    assert verify_window(label_from_caterpillar(cat3), 3, 3) is None
    assert verify_window(label_from_caterpillar(cat6), 5, 3) is None


def test_window_tightness_counterexample(cat6):
    lab = label_from_caterpillar(cat6)
    hit = verify_window(lab, 6, 3)
    assert hit == (3, 9, 4)
    # The doubled labelings inherit the same counterexample.
    lab7 = label_from_caterpillar(double_caterpillar(cat6))
    assert verify_window(lab7, 6, 3) == (3, 9, 4)


def test_single_leaf_family_has_no_tight_pair(cat3):
    # With one leaf per spine vertex the window-4 scan stays clean: in the
    # 3-cube distance 4 exceeds the diameter, and the doubled labeling in
    # the 4-cube happens to keep every distance-4 pair within Hamming 3.
    assert verify_window(label_from_caterpillar(cat3), 4, 3) is None
    lab4 = label_from_caterpillar(double_caterpillar(cat3))
    assert verify_window(lab4, 4, 3) is None


def test_doubling_preserves_structure(cat3, cat6):
    d4 = double_caterpillar(cat3)
    assert d4.t == 4
    assert d4.spine_length == 8
    assert d4.leaf_degree == 1
    assert np.array_equal(d4.spine[:4], cat3.spine)
    assert d4.spine[4:].tolist() == [8 | v for v in reversed(cat3.spine.tolist())]
    d5 = double_caterpillar(d4)
    assert d5.t == 5 and d5.spine_length == 16
    assert verify_window(label_from_caterpillar(d5), 3, 3) is None
    d8 = double_caterpillar(double_caterpillar(cat6))
    assert d8.t == 8 and d8.spine_length == 64 and d8.leaf_degree == 3
    lab8 = label_from_caterpillar(d8)
    assert verify_window(lab8, 5, 3) is None
    assert verify_window(lab8, 6, 3) == (3, 9, 4)


def test_gray_labelings():
    g2 = gray_label(2)
    assert g2.order.tolist() == [0, 1, 3, 2]
    assert g2.window == 0
    assert gray_label(1).order.tolist() == [0, 1]
    for t in range(1, 6):
        assert verify_window(gray_label(t), 1, 1) is None
    with pytest.raises(ValueError, match="must be positive"):
        gray_label(0)


def test_caterpillar_for_rejections():
    with pytest.raises(ValueError, match="no feasible base dimension"):
        caterpillar_for(6, 5)
    with pytest.raises(ValueError, match="needs dimension >= 3"):
        caterpillar_for(2, 1)
    with pytest.raises(ValueError, match="needs dimension >= 6"):
        caterpillar_for(4, 3)


def test_best_labeling_selection():
    assert best_labeling(1).window == 0
    assert best_labeling(2).window == 0
    for t in (3, 4, 5):
        lab = best_labeling(t)
        assert lab.t == t and lab.window == 3
    for t in (6, 7):
        lab = best_labeling(t)
        assert lab.t == t and lab.window == 5


def test_labelings_are_memoized_per_t():
    # a labeling is frozen with a read-only order, so one per t is shared
    for t in range(1, 13):
        for make in (best_labeling, gray_label):
            lab = make(t)
            assert make(t) is lab
            assert not lab.order.flags.writeable
    # and so is the caterpillar each one is read from
    for t in range(3, 11):
        for leaf_degree in (1, 3) if t >= 6 else (1,):
            assert caterpillar_for(t, leaf_degree) is caterpillar_for(t, leaf_degree)


@pytest.mark.parametrize("t, leaf_degree", [(3, 1), (6, 3)])
def test_assign_leaves_matches_oracle_on_base_spines(t, leaf_degree):
    spine = list(_BASE_SPINES[leaf_degree])
    leaves = _assign_leaves(t, spine, leaf_degree)
    assert leaves == oracles.assign_leaves(t, spine, leaf_degree)
    assert caterpillar_for(t, leaf_degree).leaves.tolist() == [list(r) for r in leaves]


@settings(max_examples=200)
@given(st.integers(3, 7), st.sampled_from([1, 3]), st.randoms(use_true_random=False))
def test_assign_leaves_matches_oracle_on_random_spines(t, leaf_degree, rnd):
    # the matching needs only the spine's vertices, not a cycle through them
    spine = rnd.sample(range(1 << t), (1 << t) // (leaf_degree + 1))
    leaves = _assign_leaves(t, spine, leaf_degree)
    assert leaves == oracles.assign_leaves(t, spine, leaf_degree)


def _dominating_set(rnd, t: int, size: int) -> list[int]:
    """A random set of `size` cube vertices that every vertex outside it
    neighbours, drawn by rejection."""
    while True:
        chosen = rnd.sample(range(1 << t), size)
        inside = set(chosen)
        if all(
            v in inside or any(v ^ (1 << b) in inside for b in range(t))
            for v in range(1 << t)
        ):
            return chosen


def _automorphism(rnd, t: int, vertices) -> list[int]:
    """The vertices under a random cube automorphism: a bit permutation,
    then an XOR translate, in a random order."""
    bits = rnd.sample(range(t), t)
    flip = rnd.randrange(1 << t)
    image = [
        flip ^ sum(((v >> b) & 1) << bits[b] for b in range(t)) for v in vertices
    ]
    rnd.shuffle(image)
    return image


@settings(max_examples=60)
@given(st.integers(5, 7), st.integers(0, 2**32 - 1))
def test_assign_leaves_runs_the_degree_three_flow(t, seed):
    # every vertex has a spine neighbour, so the matching reaches the flow:
    # a random dominating set at t = 5, where no degree-3 caterpillar
    # exists, and a caterpillar's spine moved by a cube automorphism above
    rnd = random.Random(seed)
    if t == 5:
        spine = _dominating_set(rnd, t, 8)
    else:
        spine = _automorphism(rnd, t, caterpillar_for(t, 3).spine.tolist())
    with mock.patch.object(caterpillars, "max_flow", wraps=caterpillars.max_flow) as spy:
        leaves = _assign_leaves(t, spine, 3)
    assert spy.call_count == 1
    assert leaves == oracles.assign_leaves(t, spine, 3)
    if t > 5:
        assert leaves is not None


@pytest.mark.parametrize("leaf_degree, low", [(1, 3), (3, 6)])
def test_array_labelings_equal_the_tuple_forms(leaf_degree, low):
    base = caterpillar_for(low, leaf_degree)
    spine, leaves = tuple(base.spine.tolist()), tuple(map(tuple, base.leaves.tolist()))
    for t in range(low, 17):
        cat = caterpillar_for(t, leaf_degree)
        assert cat.spine.tolist() == list(spine)
        assert cat.leaves.tolist() == list(map(list, leaves))
        order = label_from_caterpillar(cat).order
        assert order.dtype == np.int32
        assert tuple(order.tolist()) == oracles.label_order(spine, leaves)
        spine, leaves = oracles.double_caterpillar(spine, leaves, t)


def test_gray_labelings_equal_the_tuple_form():
    for t in range(1, 17):
        assert tuple(gray_label(t).order.tolist()) == oracles.gray_order(t)


@pytest.mark.parametrize("w", [5, 6])
def test_first_breach_matches_the_pair_scan_on_doubled_cat16(cat6, w):
    lab = label_from_caterpillar(double_caterpillar(cat6))
    order = lab.order.tolist()
    for dbound in range(5):
        assert verify_window(lab, w, dbound) == oracles.verify_window(order, w, dbound)


@settings(max_examples=150)
@given(
    st.integers(1, 7),
    st.integers(1, 9),
    st.integers(0, 6),
    st.randoms(use_true_random=False),
)
def test_first_breach_matches_the_pair_scan_on_permuted_orders(t, w, dbound, rnd):
    order = rnd.sample(range(1 << t), 1 << t)
    lab = CubeLabeling(t, order, 0)
    assert verify_window(lab, w, dbound) == oracles.verify_window(order, w, dbound)
