from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import ceil, floor
from pathlib import Path
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    check_forward,
    dump_matrix,
    matrix_rounding_violations,
    solver_round_matrix,
    solver_two_way_round,
    window_violations,
    zero_index,
)

from test_checks import traced_peak
from test_tracing_names import load_perfbench

from gridcube import rounding
from gridcube.checks import audit_grid, failed
from gridcube.grids import GridSpec
from gridcube.rounding import (
    BinaryMatrix,
    RoundingSpec,
    balance_violations,
    build_FX,
    parse_matrices,
)
from gridcube.stages import s_sequence

DATA = Path(__file__).parent / "data"


def load(name: str) -> BinaryMatrix:
    [matrix] = parse_matrices((DATA / name).read_text())
    return matrix


def prefix_ok(values, rounded, order):
    s = Fraction(0)
    t = 0
    for pos in order:
        s += values[pos]
        t += rounded[pos]
        if not floor(s) <= t <= ceil(s):
            return False
    return True


def is_valid_rounding(values, rounded, perm):
    for v, r in zip(values, rounded):
        if r not in (floor(v), ceil(v)):
            return False
    order_a = list(range(len(values)))
    order_b = [p - 1 for p in perm]
    return prefix_ok(values, rounded, order_a) and prefix_ok(values, rounded, order_b)


def all_valid_roundings(values, perm):
    """Enumeration oracle: every bit assignment satisfying both prefix chains."""
    free = [i for i, v in enumerate(values) if floor(v) != ceil(v)]
    out = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        cand = [floor(v) for v in values]
        for i, b in zip(free, bits):
            cand[i] += b
        if is_valid_rounding(values, cand, perm):
            out.append(tuple(cand))
    return out


# ---------------------------------------------------------------------------
# two_way_round
# ---------------------------------------------------------------------------


def test_two_way_round_integers_unchanged():
    vals = [Fraction(0), Fraction(1), Fraction(1), Fraction(0)]
    assert solver_two_way_round(vals, [3, 1, 4, 2]) == [0, 1, 1, 0]


def test_two_way_round_halves_against_enumeration():
    vals = [Fraction(1, 2)] * 4
    perm = [1, 2, 3, 4]
    got = solver_two_way_round(vals, perm)
    assert tuple(got) in set(all_valid_roundings(vals, perm))


def test_two_way_round_pair_permuted():
    vals = [Fraction(3, 10), Fraction(7, 10)]
    perm = [2, 1]
    got = solver_two_way_round(vals, perm)
    assert is_valid_rounding(vals, got, perm)


def test_two_way_round_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solver_two_way_round([Fraction(1, 2)], [2])
    with pytest.raises(ValueError):
        solver_two_way_round([Fraction(1, 2), Fraction(1, 2)], [1, 1])
    with pytest.raises(ValueError):
        solver_two_way_round([Fraction(3, 2)], [1])


def test_two_way_round_random_against_enumeration():
    rng = random.Random(20240811)
    for _ in range(40):
        n = rng.randint(1, 8)
        vals = [Fraction(rng.randint(0, d), d) for d in (rng.randint(1, 9) for _ in range(n))]
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        valid = all_valid_roundings(vals, perm)
        assert valid, "existence guarantee failed at desk scale"
        got = solver_two_way_round(vals, perm)
        assert tuple(got) in set(valid)


def test_two_way_round_deterministic():
    vals = [Fraction(1, 3), Fraction(2, 5), Fraction(4, 5), Fraction(1, 2), Fraction(7, 15)]
    perm = [4, 2, 5, 1, 3]
    assert solver_two_way_round(vals, perm) == solver_two_way_round(vals, perm)


# ---------------------------------------------------------------------------
# round_matrix
# ---------------------------------------------------------------------------


def matrix_contracts_hold(T, F: BinaryMatrix) -> bool:
    m, n = F.m, F.n
    rows = F.bits.tolist()
    for i in range(m):
        s = Fraction(0)
        f = 0
        for j in range(n):
            s += T[i][j]
            f += rows[i][j]
            if abs(s - f) >= 1:
                return False
    for j in range(n):
        s = Fraction(0)
        f = 0
        for i in range(m):
            s += T[i][j]
            f += rows[i][j]
            if abs(s - f) >= 1:
                return False
    total = sum(sum(row, Fraction(0)) for row in T)
    return abs(total - sum(oracles.row_counts(F))) < 1


def test_round_matrix_integer_fixed_point():
    T = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert solver_round_matrix(T).bits.tolist() == [[1, 0], [0, 1]]


def test_round_matrix_halves_against_enumeration():
    T = [[Fraction(1, 2)] * 2] * 2
    got = solver_round_matrix(T)
    valid = []
    for bits in itertools.product((0, 1), repeat=4):
        F = BinaryMatrix(((bits[0], bits[1]), (bits[2], bits[3])))
        if matrix_contracts_hold(T, F):
            valid.append(F.bits.tolist())
    assert valid
    assert got.bits.tolist() in valid


def test_round_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        solver_round_matrix([[Fraction(3, 2)]])
    with pytest.raises(ValueError):
        solver_round_matrix([[Fraction(-1, 2)]])


def test_round_matrix_random_contracts():
    rng = random.Random(99173)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        T = [
            [Fraction(rng.randint(0, 6), 6) for _ in range(n)]
            for _ in range(m)
        ]
        F = solver_round_matrix(T)
        assert matrix_contracts_hold(T, F)


def test_round_matrix_deterministic():
    T = [[Fraction(1, 3), Fraction(5, 7)], [Fraction(2, 3), Fraction(2, 7)]]
    assert solver_round_matrix(T).bits.tolist() == solver_round_matrix(T).bits.tolist()


# ---------------------------------------------------------------------------
# build_FX and the golden designation matrices
# ---------------------------------------------------------------------------


def fx_contracts_hold(F: BinaryMatrix, X) -> list[str]:
    """Exact row sums; equal-depth column prefixes within 1; equal-width row
    prefixes within 2.  Returns human-readable violations, empty when clean."""
    bad = []
    rows = F.bits.tolist()
    counts = oracles.row_counts(F)
    for i, s in enumerate(X):
        if counts[i] != s:
            bad.append(f"row {i + 1} sums to {counts[i]}, want {s}")
    for depth in range(1, F.m + 1):
        sums = [sum(rows[i][j] for i in range(depth)) for j in range(F.n)]
        if max(sums) - min(sums) > 1:
            bad.append(f"column prefixes at depth {depth} spread {max(sums) - min(sums)}")
    for width in range(1, F.n + 1):
        sums = [sum(rows[i][:width]) for i in range(F.m)]
        if max(sums) - min(sums) > 2:
            bad.append(f"row prefixes at width {width} spread {max(sums) - min(sums)}")
    return bad


def test_build_FX_small_examples():
    F = build_FX(RoundingSpec((2, 3, 3, 3), 8))
    assert fx_contracts_hold(F, (2, 3, 3, 3)) == []
    F = build_FX(RoundingSpec((1, 1, 2), 4))
    assert fx_contracts_hold(F, (1, 1, 2)) == []
    F = build_FX(RoundingSpec((0, 0, 0), 4))
    assert F.bits.tolist() == [[0, 0, 0, 0]] * 3


def test_binary_matrix_validates_rows():
    F = BinaryMatrix(((1, 0, 1), (0, 0, 1)))
    assert F.bits.tolist() == [[1, 0, 1], [0, 0, 1]]
    assert (F.m, F.n, oracles.row_counts(F)) == (2, 3, (2, 1))
    assert not F.bits.flags.writeable
    # anything int() maps to a bit is accepted, into the same int8 array
    for same in ([[1, 0, 1], [0, 0, 1]], np.array(F.bits), [[True, "0", 1], [0.0, 0, 1]]):
        assert BinaryMatrix(same).bits.tolist() == F.bits.tolist()
    # a byte array is copied, not held
    source = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8)
    held = BinaryMatrix(source)
    source[0, 0] = 0
    assert held.bits.dtype == np.int8 and held.bits.tolist() == F.bits.tolist()
    assert BinaryMatrix(source.astype(bool)).bits.tolist() == [[0, 0, 1], [0, 0, 1]]
    for bad, message in [
        (np.array([[2, 0]], dtype=np.uint8), "bits"),
        (np.array([[-1, 0]], dtype=np.int8), "bits"),
        (np.array([1, 0], dtype=np.int8), "bits"),
        (np.zeros((2, 0), dtype=np.int8), "nonempty"),
        ((), "nonempty"),
        (((),), "nonempty"),
        (((1, 0), (1,)), "ragged"),
        (((1, 2),), "bits"),
        (((-1, 0),), "bits"),
        (((2**70, 0),), "bits"),
    ]:
        with pytest.raises(ValueError, match=message):
            BinaryMatrix(bad)


def test_rounding_spec_rejects():
    with pytest.raises(ValueError):
        RoundingSpec((1, 3), 8)  # spread above 1
    with pytest.raises(ValueError):
        RoundingSpec((3, 3), 3)  # kappa + 1 above n
    with pytest.raises(ValueError):
        RoundingSpec((-1, 0), 4)
    with pytest.raises(ValueError):
        RoundingSpec((), 4)


@given(st.lists(st.integers(-2, 9), max_size=6), st.integers(-1, 9))
def test_rounding_spec_rejects_as_the_tuple_form(X, n):
    """RoundingSpec rejects exactly the X and n the checks over the tuple
    of X reject, with the same message, and holds X as read-only int64."""
    want = oracles.rounding_spec_error(X, n)
    if want is not None:
        with pytest.raises(ValueError) as error:
            RoundingSpec(X, n)
        assert str(error.value) == want
        return
    spec = RoundingSpec(X, n)
    assert (spec.X.tolist(), spec.m, spec.kappa) == (X, len(X), min(X))
    assert spec.X.dtype == np.int64 and not spec.X.flags.writeable


def test_golden_designation_matrices_pass_contracts():
    # the printed matrices are instances, never byte-targets; they must pass
    # the same validators as library output
    for name, X in [
        ("seed_374_stage2.txt", (2, 3, 3, 3)),
        ("seed_3743_stage2.txt", (2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3)),
        ("seed_3743_stage3.txt", (1, 1, 2)),
    ]:
        F = load(name)
        assert fx_contracts_hold(F, X) == [], name
        # and the matrix-rounding contracts against the constant-row source
        T = [[Fraction(s, F.n)] * F.n for s in X]
        assert matrix_contracts_hold(T, F), name


def test_build_FX_deterministic():
    a = build_FX(RoundingSpec((2, 3, 3, 3), 8))
    b = build_FX(RoundingSpec((2, 3, 3, 3), 8))
    assert a.bits.tolist() == b.bits.tolist()


# ---------------------------------------------------------------------------
# the integer solver against the Fraction oracle
# ---------------------------------------------------------------------------


def two_valued_specs(max_m: int, ns) -> list[tuple[tuple[int, ...], int]]:
    """Every (X, n) with 1 <= m <= max_m, X two-valued and kappa + 1 <= n."""
    specs = set()
    for n in ns:
        for m in range(1, max_m + 1):
            for kappa in range(n):
                for X in itertools.product((kappa, kappa + 1), repeat=m):
                    if min(X) + 1 <= n:
                        specs.add((X, n))
    return sorted(specs)


def test_build_FX_matches_oracle_exhaustively():
    specs = two_valued_specs(6, range(2, 9))
    assert len(specs) == 4200
    for X, n in specs:
        spec = RoundingSpec(X, n)
        assert np.array_equal(build_FX(spec).bits, oracles.build_FX(spec).bits), (X, n)


@pytest.mark.parametrize("dims", [(17, 17, 17), (33, 33, 33), (5, 5, 5, 5, 5)])
def test_build_FX_matches_oracle_on_stage_specs(dims):
    grid = GridSpec(dims)
    for i in range(2, grid.k):
        spec = RoundingSpec(s_sequence(grid, i), 1 << grid.block_width(i))
        want = oracles.build_FX(spec).bits
        assert np.array_equal(build_FX(spec).bits, want), (dims, i)


rationals = st.integers(1, 12).flatmap(
    lambda d: st.integers(0, d).map(lambda k: Fraction(k, d))
)


@settings(max_examples=150)
@given(st.lists(rationals, min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_two_way_round_matches_oracle(values, rnd):
    perm = list(range(1, len(values) + 1))
    rnd.shuffle(perm)
    assert solver_two_way_round(values, perm) == oracles.two_way_round(values, perm)


@settings(max_examples=150)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=6
        )
    )
)
def test_round_matrix_matches_oracle(T):
    assert np.array_equal(solver_round_matrix(T).bits, oracles.round_matrix(T).bits)


def test_huge_denominators_match_oracle():
    # denominators above 2^64, and ones below 2^63 whose sums pass it, take
    # the Python-int arrays; 2^63 // 13 - 1 keeps int64 for up to 12 entries
    rng = random.Random(2**70)
    denominators = [(1 << 70) + j for j in range(1, 5)] + [3**50, 5**40]
    denominators += [(1 << 62) + 1, (1 << 63) // 13 - 1]
    for D in denominators:
        for _ in range(10):
            n = rng.randint(1, 12)
            values = [Fraction(rng.randint(D // 2, D), D) for _ in range(n)]
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            want = oracles.two_way_round(values, perm)
            assert solver_two_way_round(values, perm) == want
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            T = [[Fraction(rng.randint(0, D), D) for _ in range(n)] for _ in range(m)]
            want = oracles.round_matrix(T).bits
            assert np.array_equal(solver_round_matrix(T).bits, want)


# ---------------------------------------------------------------------------
# the greedy first phase and the later phases against Dinic run from zero
# ---------------------------------------------------------------------------


def solver_calls(run) -> list[tuple]:
    """The arguments (lo_a, hi_a, lo_b, hi_b, total_ones) of every two-way
    rounding attempt that run() makes: the item windows in both scan
    orders, and the count of ones to place."""
    spy = mock.patch.object(rounding, "_assign_slots", wraps=rounding._assign_slots)
    with spy as calls:
        run()
    return [call.args for call in calls.call_args_list]


def slots_outcome(lo_a, hi_a, lo_b, hi_b, total_ones) -> tuple[int, int]:
    """Check every item's first-order and second-order slot against one
    ``oracles.Dinic`` run from zero on the reference network; returns the
    ones the greedy placed and the ones the later phases added."""
    windows = lo_a, hi_a, lo_b, hi_b
    greedy = len(rounding._first_phase(*windows, total_ones))
    got = rounding._assign_slots(*windows, total_ones)
    want = oracles.dinic_slots(*windows, total_ones)
    assert [s.tolist() for s in got] == [s.tolist() for s in want]
    return greedy, int(np.count_nonzero(got[0])) - greedy


def stage_rounding_specs(grid: GridSpec) -> list[RoundingSpec]:
    return [
        RoundingSpec(s_sequence(grid, i), 1 << grid.block_width(i))
        for i in range(2, grid.k)
    ]


def distinct_specs(specs) -> list[RoundingSpec]:
    """One spec of each distinct n and X among the specs, ordered by n and
    then X."""
    unique = {(spec.n, tuple(spec.X.tolist())): spec for spec in specs}
    return [unique[key] for key in sorted(unique)]


def test_slots_match_dinic_exhaustively():
    specs = two_valued_specs(6, range(2, 9))
    calls = solver_calls(lambda: [build_FX(RoundingSpec(X, n)) for X, n in specs])
    outcomes = [slots_outcome(*args) for args in calls if args[4]]
    # the later phases run on most of these calls
    assert len(outcomes) == 4158
    assert sum(added > 0 for _, added in outcomes) == 3132


def test_first_phase_matches_dinic_on_stage_specs(battery_grids):
    specs = [
        RoundingSpec(s_sequence(st.spec, st.plan.stage), st.plan.F.n)
        for fk in battery_grids.values()
        for st in fk.stage_chain()
        if st.plan is not None
    ]
    for dims in [(17, 17, 17), (33, 33, 33), (5, 5, 5, 5, 5)]:
        specs += stage_rounding_specs(GridSpec(dims))
    outcomes = []
    for spec in distinct_specs(specs):
        for args in solver_calls(lambda: build_FX(spec)):
            outcomes.append(slots_outcome(*args))
    # both branches of the solver are exercised
    assert any(added == 0 for _, added in outcomes)
    assert any(added > 0 for _, added in outcomes)


@settings(max_examples=150)
@given(st.lists(rationals, min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_first_phase_matches_dinic_on_small_inputs(values, rnd):
    perm = list(range(1, len(values) + 1))
    rnd.shuffle(perm)
    for args in solver_calls(lambda: solver_two_way_round(values, perm)):
        if args[4]:
            slots_outcome(*args)


def test_complete_first_phase_builds_no_network():
    values = [Fraction(3, 4)] * 2
    [args] = solver_calls(lambda: solver_two_way_round(values, [1, 2]))
    assert slots_outcome(*args) == (1, 0)
    with mock.patch.object(rounding, "max_flow") as flow:
        assert solver_two_way_round(values, [1, 2]) == [1, 0]
    flow.assert_not_called()


def test_incomplete_first_phase_is_finished_by_max_flow():
    values = [Fraction(3, 4), Fraction(3, 4), Fraction(1, 2), Fraction(3, 4)]
    perm = [3, 1, 4, 2]
    [args] = solver_calls(lambda: solver_two_way_round(values, perm))
    assert slots_outcome(*args) == (1, 1)
    with mock.patch.object(rounding, "max_flow", wraps=rounding.max_flow) as spy:
        assert solver_two_way_round(values, perm) == oracles.two_way_round(values, perm)
    spy.assert_called_once()


def test_later_phases_memory_is_linear_in_the_items():
    """Stage 2 of 3^10, rounded as the whole matrix, is one attempt on
    26,248 items whose first phase falls short.  The tracemalloc peak of
    the whole ``_round_matrix_core`` call is 363 bytes per item, with
    ``flow.max_flow`` running the later phases on the slot network from the
    first phase's flow, its breadth-first levels keeping their arcs in one
    int32 array of the arc count (359 without it; 399 when the floors were
    a second copy of the extended matrix and both scan orders stayed alive
    through the flow; 943 when Dinic ran from zero on a network of int64
    arcs), tested at 400."""
    [spec] = stage_rounding_specs(GridSpec((3,) * 10))[:1]
    [args] = solver_calls(lambda: oracles.whole_matrix_FX(spec))
    *windows, total_ones = args
    assert len(rounding._first_phase(*windows, total_ones)) < total_ones
    items = len(windows[0])
    assert items == 26248
    body = np.repeat(np.array(spec.X, dtype=np.int64), spec.n).reshape(spec.m, spec.n)
    _, peak = traced_peak(rounding._round_matrix_core, body, spec.n)
    assert peak <= 400 * items, peak / items


# ---------------------------------------------------------------------------
# build_FX's row blocks against the whole matrix rounded in one call
# ---------------------------------------------------------------------------


def stacked_rows(spec: RoundingSpec) -> list[int]:
    """Check build_FX(spec) against the whole matrix rounded in one call and
    the block stack against its dict-keyed form, and return the row count
    of every matrix build_FX hands the solver."""
    core = mock.patch.object(
        rounding, "_round_matrix_core", wraps=rounding._round_matrix_core
    )
    with core as spy:
        F = build_FX(spec)
    assert np.array_equal(F.bits, oracles.whole_matrix_FX(spec).bits), spec
    assert_block_stacks_equal_the_dict_form(spec, F)
    return [call.args[0].shape[0] for call in spy.call_args_list]


def assert_block_stacks_equal_the_dict_form(spec: RoundingSpec, F: BinaryMatrix):
    """Both of the library's block stacks, the looped one and the keyed
    one, whatever the plan's size, give the stack's X and the row map of
    ``oracles.block_stack``; and F, build_FX's matrix, has the bits that
    stack gives."""
    want = oracles.block_stack(spec.X, spec.n)
    for X, row_map in (
        rounding._looped_stack(spec.X.tolist(), spec.n),
        rounding._keyed_stack(spec.X, spec.n),
        rounding._block_stack(spec.X, spec.n),
    ):
        assert (X.tolist(), row_map.tolist()) == want, spec
    assert np.array_equal(F.bits, oracles.blocked_FX(spec).bits), spec


@pytest.mark.parametrize(
    "dims",
    [
        (3,) * 12,
        (3,) * 10,
        (5, 5, 4000),
        (7, 11, 13, 97),
        (12, 17, 22, 14),
        (64, 64, 64),
        (100, 100, 100),
    ],
)
def test_build_FX_matches_the_whole_matrix_on_stage_specs(dims):
    for spec in stage_rounding_specs(GridSpec(dims)):
        # one solver call, none for an all-zero X
        assert len(stacked_rows(spec)) == (1 if any(spec.X) else 0)


@st.composite
def repeating_specs(draw) -> RoundingSpec:
    """A two-valued X of at most 80 rows: a pattern whose sum is a multiple
    of n, repeated at least twice, then a short tail, so row blocks repeat."""
    kappa = draw(st.integers(0, 6))
    values = st.sampled_from((kappa, kappa + 1))
    pattern = draw(st.lists(values, min_size=1, max_size=8))
    ns = [n for n in range(max(2, kappa + 1), 17) if sum(pattern) % n == 0]
    assume(ns)
    n = draw(st.sampled_from(ns))
    reps = draw(st.integers(2, 80 // len(pattern)))
    tail = draw(st.lists(values, max_size=min(4, 80 - reps * len(pattern))))
    X = pattern * reps + tail
    assume(min(X) + 1 <= n)
    return RoundingSpec(X, n)


@settings(max_examples=200)
@given(repeating_specs())
def test_build_FX_matches_the_whole_matrix_when_blocks_repeat(spec):
    rows = stacked_rows(spec)
    if any(spec.X):
        # the pattern's second copy repeats the blocks of its first
        [count] = rows
        assert count < spec.m


@st.composite
def long_block_specs(draw) -> RoundingSpec:
    """X in {0, 1} made of three blocks, each holding n ones between a
    first and a last one, 20 to 140 rows long (past the PACKED_ROWS that
    one int64 key packs, or not), in a drawn order that repeats them."""
    n = draw(st.integers(20, 60))
    blocks = []
    for _ in range(3):
        zeros = draw(st.integers(0, 80))
        middle = draw(st.permutations([1] * (n - 2) + [0] * zeros))
        blocks.append([1, *middle, 1])
    order = draw(st.lists(st.integers(0, 2), min_size=1, max_size=6))
    tail = draw(st.lists(st.integers(0, 1), max_size=3))
    return RoundingSpec([x for b in order for x in blocks[b]] + tail, n)


@settings(max_examples=60, deadline=None)
@given(long_block_specs())
def test_block_stacks_equal_the_dict_form_on_long_blocks(spec):
    assert_block_stacks_equal_the_dict_form(spec, build_FX(spec))


def test_row_blocks_edge_cases():
    # one row; one all-zero row, with no solver call
    assert stacked_rows(RoundingSpec((3,), 4)) == [1]
    assert stacked_rows(RoundingSpec((0,), 1)) == []
    # kappa = 0: each leading zero row ends a block, all equal
    assert stacked_rows(RoundingSpec((0, 0, 0, 1, 0, 1), 2)) == [4]
    # a block of 58 rows, one past the packed keys, then the same block
    assert stacked_rows(RoundingSpec(((1,) * 57 + (0,)) * 2, 57)) == [58]
    # blocks longer than PACKED_ROWS in a plan of more than LOOPED_ROWS rows
    assert rounding.LOOPED_ROWS < 300 and rounding.PACKED_ROWS < 60
    a, b = (1,) * 59 + (2,), (1,) * 61
    assert stacked_rows(RoundingSpec(a * 5 + b * 2 + a * 3, 61)) == [60 + 61]
    # two long blocks of one length and different X
    c = (2,) + (1,) * 59
    assert stacked_rows(RoundingSpec(a * 3 + c * 3, 61)) == [60 + 60]
    # no prefix sum is a multiple of 16: one block, the whole matrix
    assert stacked_rows(RoundingSpec((2, 3, 3), 16)) == [3]
    # rows of n ones are blocks of their own: (4), (4), (3, 3, 3, 3), (4), (4)
    assert stacked_rows(RoundingSpec((4, 4, 3, 3, 3, 3, 4, 4), 4)) == [5]
    # the last block repeats the first when the sum is a multiple of n
    assert stacked_rows(RoundingSpec((1, 1, 1, 1), 2)) == [2]
    # the last block's sum is off a multiple of n, so it occurs once
    [spec] = stage_rounding_specs(GridSpec((3,) * 12))[:1]
    assert sum(spec.X) % spec.n == 3
    assert stacked_rows(spec) == [16]
    # all-zero X: no solver call
    assert stacked_rows(RoundingSpec((0, 0, 0), 4)) == []


@pytest.mark.parametrize("dims, i", [((3,) * 12, 2), ((3,) * 12, 4), ((5, 5, 4000), 2)])
def test_build_FX_memory_is_bounded_by_the_matrix(dims, i):
    """build_FX's tracemalloc peak is about 16 bytes per matrix entry here
    (147-400 when the whole matrix went to the solver), tested at 64."""
    grid = GridSpec(dims)
    spec = RoundingSpec(s_sequence(grid, i), 1 << grid.block_width(i))
    _, peak = traced_peak(build_FX, spec)
    assert peak <= 64 * spec.m * spec.n, peak / (spec.m * spec.n)


def test_stage_2_of_3_12_makes_one_small_attempt():
    [spec] = stage_rounding_specs(GridSpec((3,) * 12))[:1]
    [args] = solver_calls(lambda: build_FX(spec))
    assert len(args[0]) <= 100


# ---------------------------------------------------------------------------
# random consistent roundings: any perfect flow, not only the solver's
# ---------------------------------------------------------------------------


def test_random_roundings_pass_the_contracts():
    """Every distinct stage spec of the audit-sweep grids, one draw each."""
    grids = load_perfbench("workloads").sweep_grids()
    specs = distinct_specs(
        spec for dims in grids for spec in stage_rounding_specs(GridSpec(dims))
    )
    assert len(specs) == 277
    rng = random.Random(11)
    differ = 0
    for spec in specs:
        F = oracles.random_FX(spec, rng)
        assert balance_violations(F, spec.X) == [], spec
        assert window_violations(spec, F) == [], spec
        differ += not np.array_equal(F.bits, build_FX(spec).bits)
    # the draws are not the solver's matrices over again
    assert differ > 0


def test_audits_with_random_roundings_fail_only_the_case_table():
    """Each audit-sweep grid audited with a random rounding at every stage:
    the embedding is injective, no check but the case table fails, and the
    dilation is within the labelings' implied bound."""
    rng = random.Random(11)
    for dims in load_perfbench("workloads").sweep_grids():
        grid = GridSpec(dims)
        seeds = [oracles.random_FX(spec, rng) for spec in stage_rounding_specs(grid)]
        checks, _, report = audit_grid(grid, seeds)
        fails = [c.line() for c in failed(checks) if not c.name.startswith("diffs.case-")]
        assert fails == [], dims
        assert "embedding.injective: PASS" in [c.line() for c in checks], dims
        assert report.dilation <= report.implied_bound, dims


# ---------------------------------------------------------------------------
# zero_index
# ---------------------------------------------------------------------------


def test_zero_index_golden():
    F = load("seed_374_stage2.txt")
    assert zero_index(F, 1, 1) == 2
    assert zero_index(F, 1, 4) == 6
    # row 1 has six zeros; the seventh is row 2's first zero
    assert zero_index(F, 1, 7) == 1
    assert zero_index(F, 2, 1) == 1
    # 21 zeros in all: one full cycle later the count repeats
    assert zero_index(F, 1, 22) == zero_index(F, 1, 1)


def test_zero_index_backward():
    F = load("seed_374_stage2.txt")
    # the 0-th zero of row 2 is row 1's last zero (column 8)
    assert zero_index(F, 2, 0) == 8
    assert zero_index(F, 2, -1) == 7
    # stepping back a full cycle lands on the same zero
    assert zero_index(F, 2, 0 - 21) == 8


def test_zero_index_all_zero_row():
    F = BinaryMatrix(((0, 0, 0, 0), (1, 0, 1, 0)))
    for d in range(1, 5):
        assert zero_index(F, 1, d) == d


def test_zero_index_min_formula():
    # in range, the result is min{b : b = d + ones_prefix(b)}
    F = load("seed_3743_stage2.txt")
    counts = oracles.row_counts(F)
    for r in range(1, F.m + 1):
        for d in range(1, F.n - counts[r - 1] + 1):
            got = zero_index(F, r, d)
            brute = min(
                b
                for b in range(1, F.n + 1)
                if b == d + F.bits[r - 1, :b].sum()
            )
            assert got == brute


def test_zero_index_rejects_all_ones():
    F = BinaryMatrix(((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        zero_index(F, 1, 1)
    with pytest.raises(ValueError):
        zero_index(load("seed_374_stage2.txt"), 5, 1)


# ---------------------------------------------------------------------------
# check_forward
# ---------------------------------------------------------------------------


def test_check_forward_golden():
    F = load("seed_374_stage2.txt")
    T = [[Fraction(s, 8)] * 8 for s in (2, 3, 3, 3)]
    assert check_forward(F, T, 1, 1) == "forward"
    # every position classifies as one or the other
    for r in range(1, 5):
        for h in range(1, 9):
            assert check_forward(F, T, r, h) in ("forward", "backward")


def test_check_forward_integer_source():
    T = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    F = solver_round_matrix(T)
    for r in (1, 2):
        for h in (1, 2):
            assert check_forward(F, T, r, h) == "forward"


def test_check_forward_random_total():
    rng = random.Random(5150)
    for _ in range(20):
        m, n = rng.randint(1, 10), rng.randint(2, 16)
        lo = rng.randint(0, n // 2 - 1) if n >= 2 else 0
        X = tuple(rng.randint(lo, lo + 1) for _ in range(m))
        spec = RoundingSpec(X, n)
        F = build_FX(spec)
        T = [[Fraction(s, n)] * n for s in X]
        r = rng.randint(1, m)
        h = rng.randint(1, n)
        assert check_forward(F, T, r, h) in ("forward", "backward")


# ---------------------------------------------------------------------------
# zero-window bounds on F^X (narrow kappa)
# ---------------------------------------------------------------------------


def test_window_bounds_small_instances():
    # forward entry: the next 2e entries hold at most e ones; backward: e+1.
    # consecutive-zero spacing: N_r(d+e) - N_s(d) <= 2e+4 for in-range pairs.
    for X, n in [((2, 3, 3, 3), 8), ((1, 1, 2), 4), ((1, 2, 2, 1, 1), 6)]:
        spec = RoundingSpec(X, n)
        F = build_FX(spec)
        T = [[Fraction(s, n)] * n for s in X]
        for r in range(1, F.m + 1):
            for h in range(1, F.n + 1):
                kind = check_forward(F, T, r, h)
                for e in range(1, (F.n - h) // 2 + 1):
                    run = F.bits[r - 1, h : h + 2 * e].sum()
                    cap = e if kind == "forward" else e + 1
                    assert run <= cap
        counts = oracles.row_counts(F)
        for r in range(1, F.m + 1):
            zr = F.n - counts[r - 1]
            for s in range(1, F.m + 1):
                zs = F.n - counts[s - 1]
                for d in range(1, zs + 1):
                    for e in range(0, zr - d + 1):
                        if d + e < 1 or d + e > zr:
                            continue
                        gap = zero_index(F, r, d + e) - zero_index(F, s, d)
                        assert gap <= 2 * e + 4


# ---------------------------------------------------------------------------
# library validators
# ---------------------------------------------------------------------------


def test_matrix_rounding_validator_matches_reference():
    rng = random.Random(4242)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        T = [
            [Fraction(rng.randint(0, 6), 6) for _ in range(n)]
            for _ in range(m)
        ]
        F = solver_round_matrix(T)
        assert matrix_rounding_violations(T, F) == []
        assert matrix_contracts_hold(T, F)


def test_matrix_rounding_validator_detects_drift():
    T = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    F = BinaryMatrix(((0, 1), (0, 0)))
    bad = matrix_rounding_violations(T, F)
    assert any(msg.startswith("row 1 prefix 2") for msg in bad)
    assert any(msg.startswith("column 2 prefix 1") for msg in bad)
    assert any(msg.startswith("grand total") for msg in bad)
    with pytest.raises(ValueError):
        matrix_rounding_violations([[Fraction(0)]], F)


def test_balance_validator_agrees_with_reference():
    rng = random.Random(515)
    for _ in range(25):
        n = rng.randint(2, 24)
        kappa = rng.randint(0, n - 1)
        m = rng.randint(1, 24)
        X = tuple(kappa + rng.randint(0, 1) for _ in range(m))
        F = build_FX(RoundingSpec(X, n))
        assert balance_violations(F, X) == []
        assert fx_contracts_hold(F, X) == []


@st.composite
def balance_cases(draw) -> tuple[BinaryMatrix, list[int]]:
    """A matrix and row sums: build_FX's matrix of a random spec, with one
    bit flipped or two rows swapped or as it is, or random bits; the row
    sums its own, or the spec's, or random."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 40))
    kappa = draw(st.integers(0, n - 1))
    X = draw(st.lists(st.sampled_from((kappa, min(kappa + 1, n - 1))), min_size=m, max_size=m))
    if draw(st.booleans()):
        bits = np.array(build_FX(RoundingSpec(X, n)).bits)
        change = draw(st.sampled_from(("flip", "swap", "none")))
        r, s, c = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        if change == "flip":
            bits[r, c] ^= 1
        elif change == "swap":
            bits[[r, s]] = bits[[s, r]]
    else:
        bits = np.array(draw(st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n)))
        bits = bits.reshape(m, n)
    F = BinaryMatrix(bits)
    sums = draw(st.sampled_from(("own", "spec", "random")))
    if sums == "own":
        X = list(oracles.row_counts(F))
    elif sums == "random":
        X = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    return F, X


@settings(max_examples=300)
@given(balance_cases())
def test_balance_violations_equal_the_tuple_form(case):
    F, X = case
    assert balance_violations(F, X) == oracles.balance_violations(F, X)
    assert balance_violations(F, tuple(X)) == balance_violations(F, np.array(X))
    for wrong in (X[:-1], X + [0]):
        with pytest.raises(ValueError, match="length disagrees"):
            balance_violations(F, wrong)


def test_balance_violations_equal_the_tuple_form_on_stage_plans():
    """Stage plans of 3^12 and 7x11x13x97, each with one bit flipped in its
    last row: the same violations, in the same order."""
    for dims in [(3,) * 12, (7, 11, 13, 97)]:
        grid = GridSpec(dims)
        for spec in stage_rounding_specs(grid):
            bits = np.array(build_FX(spec).bits)
            assert balance_violations(BinaryMatrix(bits), spec.X) == []
            bits[-1, 0] ^= 1
            F = BinaryMatrix(bits)
            got = balance_violations(F, spec.X)
            assert got and got == oracles.balance_violations(F, spec.X), (dims, spec.m)


def test_balance_validator_detects_imbalance():
    F = BinaryMatrix(((1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 1)))
    bad = balance_violations(F, (3, 3))
    assert any("width 3" in msg for msg in bad)
    assert fx_contracts_hold(F, (3, 3)) != []
    assert balance_violations(F, (3, 4))[0] == "row 2 sums to 3, expected 4"
    with pytest.raises(ValueError):
        balance_violations(F, (3,))


def window_reference_violations(spec: RoundingSpec, F: BinaryMatrix) -> bool:
    """Brute-force check of the three zero-window bounds; True when clean.

    Skips positions that are not consistently rounded (the vectorized
    validator reports those separately)."""
    T = [[Fraction(s, spec.n)] * spec.n for s in spec.X]
    for r in range(1, F.m + 1):
        for h in range(1, F.n + 1):
            try:
                kind = check_forward(F, T, r, h)
            except ValueError:
                continue
            cap = 0 if kind == "forward" else 1
            for e in range(1, (F.n - h) // 2 + 1):
                if F.bits[r - 1, h : h + 2 * e].sum() > e + cap:
                    return False
    counts = oracles.row_counts(F)
    for r in range(1, F.m + 1):
        zr = F.n - counts[r - 1]
        for s in range(1, F.m + 1):
            for d in range(1, F.n - counts[s - 1] + 1):
                for e in range(0, zr - d + 1):
                    gap = zero_index(F, r, d + e) - zero_index(F, s, d)
                    if gap > 2 * e + 4:
                        return False
    return True


def test_window_validator_agrees_with_brute_force():
    rng = random.Random(90210)
    for _ in range(15):
        n = rng.randint(2, 20)
        kappa = rng.randint(0, n // 2 - 1)
        m = rng.randint(1, 12)
        X = tuple(kappa + rng.randint(0, 1) for _ in range(m))
        spec = RoundingSpec(X, n)
        F = build_FX(spec)
        assert window_violations(spec, F) == []
        assert window_reference_violations(spec, F)


def test_window_validator_detects_packed_ones():
    # Ones packed right after a backward position overflow the window cap,
    # and push the later zeros of the row too far out.
    spec = RoundingSpec((5,), 16)
    F = BinaryMatrix(((0, 1, 1, 1, 1, 1) + (0,) * 10,))
    bad = window_violations(spec, F)
    assert any("backward position 1" in msg for msg in bad)
    assert any("backward zero 1" in msg for msg in bad)
    assert not window_reference_violations(spec, F)


def test_window_validator_detects_cross_row_gap():
    spec = RoundingSpec((5, 5), 16)
    F = BinaryMatrix(
        (
            (1, 1, 1, 1, 1) + (0,) * 11,
            (0,) * 11 + (1, 1, 1, 1, 1),
        )
    )
    bad = window_violations(spec, F)
    assert any("trails a zero of row" in msg for msg in bad)
    assert not window_reference_violations(spec, F)


def test_window_validator_flags_inconsistent_positions():
    spec = RoundingSpec((3, 3), 8)
    F = BinaryMatrix(((1, 1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 1)))
    bad = window_violations(spec, F)
    assert any("not a consistent rounding" in msg for msg in bad)


def test_window_validator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        window_violations(RoundingSpec((3,), 4), BinaryMatrix(((1, 1, 1, 0),)))
    with pytest.raises(ValueError):
        window_violations(RoundingSpec((1,), 4), BinaryMatrix(((1, 0),)))


# ---------------------------------------------------------------------------
# dump format
# ---------------------------------------------------------------------------


def test_dump_roundtrip():
    F = load("seed_3743_stage3.txt")
    [again] = parse_matrices(dump_matrix(F))
    assert again.bits.tolist() == F.bits.tolist()
    assert dump_matrix(F) == (DATA / "seed_3743_stage3.txt").read_text()
    assert dump_matrix(F).splitlines()[0] == "3 4"


def test_parse_matrices_concatenated():
    text = dump_matrix(load("seed_3743_stage2.txt")) + dump_matrix(
        load("seed_3743_stage3.txt")
    )
    mats = parse_matrices(text)
    assert [m.m for m in mats] == [12, 3]
    assert [m.n for m in mats] == [8, 4]


def test_parse_matrix_rejects_garbage():
    with pytest.raises(ValueError):
        parse_matrices("2 2\n01\n012\n")
    with pytest.raises(ValueError):
        parse_matrices("2 2\n01\n02\n")
    with pytest.raises(ValueError):
        parse_matrices("2 2\n01\n10\n11\n")
