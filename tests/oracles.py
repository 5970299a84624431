"""Reference implementations the library is tested against.

Everything here runs in tests only; the library must reproduce its outputs
exactly, or pass its checks.  It holds:

- the grid's vertex arithmetic one coordinate at a time: rank and
  coordinates, the chain fold kappa, and page indices, with the per-rank
  page arrays the library reads as rank blocks instead;
- the literal Fraction forms of the integer-exact construction core: the
  prefix windows and the two-way rounding in fractions.Fraction, a
  recursive Dinic with adjacency lists and the leaf matching built on it,
  the closed form of the chain prefix counts (in integer floor division
  and in Fraction) and the circulant's run-sum lemma, and the literal
  column-filling loop of the base map;
- the two-way rounding's slot network on the item windows, built on the
  recursive Dinic, with the slots it gives every item when run from zero,
  and a random consistent designation matrix from the same network with
  shuffled adjacency lists;
- the designation matrix rounded whole, in one solver call, with no row
  blocks, and rounded over its row blocks stacked one block at a time,
  keyed by their X in a dict;
- a matrix's row sums as a tuple, the balance contract over tuples, and
  the rejections of a rounding spec, checked over the tuple of its X;
- the rational front ends of the library's two-way and matrix rounding
  solvers, the exact matrix-rounding and zero-window validators of a
  designation matrix, its cyclic zero index and forward/backward
  classification, and the matrix dump writer;
- the blanks per section computed section by section over every page;
- the per-row forms of the blank plan tables (nonblank levels, and section
  ordinals by bisection), the nonblank-ordinal distance, the stack
  heights as dict tables over the address box, the offset and height
  columns of one stacking step with heights by one lexsort, and the whole
  chain stacked one vertex row at a time;
- the embedding file written one rank at a time (and as one string per
  block of a_1 ranks) and read one line at a time, and the stage dump
  written one rank at a time;
- the grid edges as rank-index arrays with the per-column
  coordinate-difference scan and the per-edge dilation over them, and the
  chain and transition batteries with their per-page, per-prefix and
  per-chain loops and dense count tables;
- the cube labelings as tuples: the caterpillar doubling, the block and
  reflected-Gray orders, and the window scan one label pair at a time;
- the brute-force dilation optimum of tiny grids.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from itertools import accumulate, product
from math import ceil, floor, lcm
from unittest import mock

import numpy as np

from gridcube import base2d, checks, rounding
from gridcube.base2d import build_R
from gridcube.checks import CheckResult, _check, _report
from gridcube.grids import GridSpec, level_budget
from gridcube.rounding import BinaryMatrix, RoundingSpec
from gridcube.stages import BlankPlan, StageEmbedding, by_rank


def distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(a, axis=0, return_counts=True) from one sort and a neighbour
    compare: the distinct rows (entries, if 1-d) in order, and their counts."""
    s = np.sort(a) if a.ndim == 1 else a[np.lexsort(a.T[::-1])]
    new = s[1:] != s[:-1]
    new = np.concatenate([[True], new if a.ndim == 1 else new.any(axis=1)])
    starts = np.flatnonzero(new[: len(s)])  # an empty `a` has no first row
    return s[starts], np.diff(starts, append=len(s))


# ---------------------------------------------------------------------------
# grid vertices: ranks, the chain fold, pages
# ---------------------------------------------------------------------------


def rank_of(spec: GridSpec, coords) -> int:
    """Rank of the vertex with the given 1-based coordinates: reversed
    lexicographic, x_1 fastest, so coordinate t has stride a_1...a_{t-1}."""
    if len(coords) != spec.k:
        raise ValueError("coordinate arity mismatch")
    r, stride = 0, 1
    for x, a in zip(coords, spec.dims):
        if not 1 <= x <= a:
            raise ValueError(f"coordinate {x} outside [1, {a}]")
        r += (x - 1) * stride
        stride *= a
    return r


def coords_of(spec: GridSpec, rank: int) -> tuple[int, ...]:
    """1-based coordinates of the vertex with the given rank."""
    if not 0 <= rank < spec.size:
        raise ValueError("rank out of range")
    coords = []
    for a in spec.dims:
        rank, x = divmod(rank, a)
        coords.append(x + 1)
    return tuple(coords)


def kappa(spec: GridSpec, coords) -> tuple[int, int]:
    """Fold a vertex onto its chain: (x_1, y) with y the position on chain x_1.

    Chains run through the grid with the first coordinate free; y orders the
    remaining coordinates with x_2 fastest.  Bijective onto
    {1..a_1} x {1..P_1}, and the chains of the j-th i-page occupy exactly the
    y-interval {(j-1) a_2...a_i + 1, ..., j a_2...a_i}.
    """
    rank_of(spec, coords)  # validates
    y, stride = 0, 1
    for x, a in zip(coords[1:], spec.dims[1:]):
        y += (x - 1) * stride
        stride *= a
    return coords[0], y + 1


def page_index(spec: GridSpec, coords, i: int) -> int:
    """Index r of the i-page containing the vertex, 1 <= r <= P_i.

    An i-page fixes coordinates i+1..k; pages are ordered with x_{i+1}
    fastest.  Accepts 1 <= i <= k-1.
    """
    if not 1 <= i <= spec.k - 1:
        raise ValueError(f"page dimension {i} outside [1, {spec.k - 1}]")
    rank_of(spec, coords)  # validates
    r, stride = 0, 1
    for x, a in zip(coords[i:], spec.dims[i:]):
        r += (x - 1) * stride
        stride *= a
    return r + 1


def coordinate(emb: StageEmbedding, j: int) -> np.ndarray:
    """The chain's coordinate j of every vertex by rank (int32), 1 <= j <=
    top: the stored row at j = 1, else table j - 2 gathered through the
    base column, plus 1, into a new row."""
    if j == 1:
        return emb.row
    return np.add(by_rank(emb.tables[j - 2], emb.column), 1, dtype=np.int32)


def level(emb: StageEmbedding) -> np.ndarray:
    """The stage's level of every vertex by rank (int32): its
    `column_levels` gathered through the base column."""
    return by_rank(emb.column_levels, emb.column)


def address(emb: StageEmbedding) -> np.ndarray:
    """The stage's packed address of every vertex by rank: its
    `column_address` gathered through the base column, plus its row."""
    key = by_rank(emb.column_address, emb.column)
    key += emb.row
    return key


def stage_coords(emb: StageEmbedding) -> np.ndarray:
    """A new |G| x i int64 array whose row `rank` is the stage-i image tuple
    of the vertex with that rank: the stage's settled rows of the chain and
    its level row, read rank-major."""
    rows = [*final(emb)[: emb.stage - 1], level(emb)]
    return np.column_stack(rows).astype(np.int64)


def packed_address(spec: GridSpec, rows: np.ndarray) -> np.ndarray:
    """The leading block coordinates of each vertex packed into one int64.

    Row t of `rows` (0-based: coordinate t + 1 by rank, 1..2^{e_{t+1} - e_t})
    fills bits e_t up to e_{t+1} - 1, so t rows pack below 2^{e_t} and two
    vertices get the same key exactly when they agree in every row.
    """
    key = np.zeros(rows.shape[1], dtype=np.int64)
    for t, row in enumerate(rows):
        key += (row.astype(np.int64) - 1) << spec.exponents[t]
    return key


def _vertex_pages(spec: GridSpec, i: int) -> np.ndarray:
    """Page index over dimension i for every vertex rank (i = k gives all 1)."""
    if i >= spec.k:
        return np.ones(spec.size, dtype=np.int64)
    return np.arange(spec.size, dtype=np.int64) // spec.prefix_product(i) + 1


class Dinic:
    """Unit-capacity max flow with fixed (ascending) adjacency order."""

    def __init__(self, size: int):
        self.size = size
        self.head: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int = 1) -> int:
        i = len(self.to)
        self.head[u].append(i)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(i + 1)
        self.to.append(u)
        self.cap.append(0)
        return i

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.size
            level[s] = 0
            queue = [s]
            for u in queue:
                for ei in self.head[u]:
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.size

            def dfs(u: int) -> bool:
                if u == t:
                    return True
                while it[u] < len(self.head[u]):
                    ei = self.head[u][it[u]]
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] == level[u] + 1 and dfs(v):
                        self.cap[ei] -= 1
                        self.cap[ei ^ 1] += 1
                        return True
                    it[u] += 1
                return False

            while dfs(s):
                flow += 1


def prefix_windows(order: list[int], fracs: list[Fraction], total_ones: int):
    """For each fractional item, the slots it may serve in the given order."""
    serve: dict[int, list[int]] = {}
    g = Fraction(0)
    for pos in order:
        f = fracs[pos]
        if f == 0:
            continue
        lo = floor(g) + 1
        g += f
        hi = min(ceil(g), total_ones)
        if lo <= hi:
            serve[pos] = list(range(lo, hi + 1))
        else:
            serve[pos] = []
    return serve


def try_round(fracs: list[Fraction], order_b: list[int], total_ones: int):
    n = len(fracs)
    items = [i for i in range(n) if fracs[i] != 0]
    if total_ones == 0:
        return [0] * n
    order_a = list(range(n))
    serve_a = prefix_windows(order_a, fracs, total_ones)
    serve_b = prefix_windows(order_b, fracs, total_ones)
    item_in = {k: total_ones + 1 + 2 * idx for idx, k in enumerate(items)}
    b_base = total_ones + 1 + 2 * len(items)
    sink = b_base + total_ones + 1
    net = Dinic(sink + 1)
    for v in range(1, total_ones + 1):
        net.add_edge(0, v)
    item_edge: dict[int, int] = {}
    for k in items:
        for v in serve_a[k]:
            net.add_edge(v, item_in[k])
        item_edge[k] = net.add_edge(item_in[k], item_in[k] + 1)
        for v in serve_b[k]:
            net.add_edge(item_in[k] + 1, b_base + v)
    for v in range(1, total_ones + 1):
        net.add_edge(b_base + v, sink)
    if net.max_flow(0, sink) != total_ones:
        return None
    return [
        1 if k in item_edge and net.cap[item_edge[k]] == 0 else 0
        for k in range(n)
    ]


def slot_network(lo_a, hi_a, lo_b, hi_b, total_ones: int):
    """The two-way rounding's flow network on the item windows that
    ``rounding._round_matrix_core`` takes from ``_prefix_windows``,
    carrying no flow.

    Node ids: 0 source, 1..B the slots of the first order, then an in/out
    pair per item (a position hosts at most one unit, so the pair is joined
    by a single unit edge), then the slots of the second order, then the
    sink.  Edges go in source edges, per item (its first-order slots, its
    own edge, its second-order slots), then sink edges; each item has at
    most five, laid out in a fixed row and kept where its window has them.
    Returns the network, the sink, and per item the insertion index of each
    of its five row edges (meaningful where the window has the edge) with
    the row's keep mask.  ``rounding._assign_slots`` hands ``flow.max_flow``
    the same edge list, built by its own code.
    """
    B = total_ones
    item_in = B + 1 + 2 * np.arange(len(lo_a), dtype=np.int64)
    b_base = B + 1 + 2 * len(lo_a)
    sink = b_base + B + 1
    slots = np.arange(1, B + 1, dtype=np.int64)
    tail = np.stack([lo_a, lo_a + 1, item_in, item_in + 1, item_in + 1], axis=1)
    head = np.stack(
        [item_in, item_in, item_in + 1, b_base + lo_b, b_base + lo_b + 1], axis=1
    )
    keep = np.stack(
        [
            hi_a >= lo_a,
            hi_a > lo_a,
            np.ones(len(lo_a), dtype=bool),
            hi_b >= lo_b,
            hi_b > lo_b,
        ],
        axis=1,
    )
    row_edge = (B + np.cumsum(keep.ravel()) - 1).reshape(-1, 5)
    tails = np.concatenate([np.zeros(B, dtype=np.int64), tail[keep], b_base + slots])
    heads = np.concatenate([slots, head[keep], np.full(B, sink, dtype=np.int64)])
    net = Dinic(sink + 1)
    for u, v in zip(tails.tolist(), heads.tolist()):
        net.add_edge(u, v)
    return net, sink, row_edge, keep


def dinic_slots(lo_a, hi_a, lo_b, hi_b, total_ones: int, rng=None):
    """Each item's first-order and second-order slot (0 when it holds no
    one) after ``Dinic.max_flow`` runs from zero on ``slot_network``, with
    each node's adjacency list shuffled by ``rng`` first when one is given
    (another maximum flow, in general)."""
    net, sink, row_edge, keep = slot_network(lo_a, hi_a, lo_b, hi_b, total_ones)
    if rng is not None:
        for arcs in net.head:
            rng.shuffle(arcs)
    net.max_flow(0, sink)
    residual = np.array(net.cap[0::2], dtype=np.int64)  # per edge
    carries = keep & (residual[row_edge] == 0)
    slot_a = np.where(carries[:, 0], lo_a, np.where(carries[:, 1], lo_a + 1, 0))
    slot_b = np.where(carries[:, 3], lo_b, np.where(carries[:, 4], lo_b + 1, 0))
    return slot_a, slot_b


def two_way_round_core(values: list[Fraction], order_b: list[int]) -> list[int]:
    floors = [floor(v) for v in values]
    fracs = [v - f for v, f in zip(values, floors)]
    total = sum(fracs, Fraction(0))
    candidates = [int(total)] if total.denominator == 1 else [floor(total), ceil(total)]
    for b in candidates:
        bits = try_round(fracs, order_b, b)
        if bits is not None:
            return [f + o for f, o in zip(floors, bits)]
    raise RuntimeError("oracle found no feasible rounding")


def two_way_round(values, perm) -> list[int]:
    return two_way_round_core([Fraction(v) for v in values], [p - 1 for p in perm])


def round_matrix(T) -> BinaryMatrix:
    rows = [[Fraction(x) for x in row] for row in T]
    m, n = len(rows), len(rows[0])
    row_sums = [sum(row, Fraction(0)) for row in rows]
    col_sums = [sum(row[j] for row in rows) for j in range(n)]
    grand = sum(row_sums, Fraction(0))
    ext = [row + [ceil(row_sums[i]) - row_sums[i]] for i, row in enumerate(rows)]
    ext.append([ceil(c) - c for c in col_sums] + [grand])
    values = [x for row in ext for x in row]
    order_b = [i * (n + 1) + j for j in range(n + 1) for i in range(m + 1)]
    rounded = two_way_round_core(values, order_b)
    out = [tuple(rounded[i * (n + 1) + j] for j in range(n)) for i in range(m)]
    return BinaryMatrix(tuple(out))


def build_FX(spec: RoundingSpec) -> BinaryMatrix:
    if all(s == 0 for s in spec.X):
        return BinaryMatrix(tuple(tuple(0 for _ in range(spec.n)) for _ in spec.X))
    return round_matrix([[Fraction(s, spec.n)] * spec.n for s in spec.X])


def solver_array(nums, count: int, D: int) -> np.ndarray:
    """The numerators over D of a solver input of ``count`` entries, as one
    integer array for the dtype-generic solver core.

    Every entry and every sum the solver forms is below count * D, so the
    array is int64 when that fits and holds Python ints (object dtype)
    otherwise; the core runs the same numpy code on both.  The package's
    own inputs are always int64 (``rounding.build_FX``); the rational front
    ends here take any denominator.
    """
    return np.array(nums, dtype=np.int64 if count * D < 1 << 63 else object)


def whole_matrix_FX(spec: RoundingSpec) -> BinaryMatrix:
    """``build_FX`` without the row blocks: the whole matrix T^X rounded by
    one solver call."""
    m, n = spec.m, spec.n
    if all(s == 0 for s in spec.X):
        return BinaryMatrix(np.zeros((m, n), dtype=np.int8))
    X = solver_array(spec.X, (m + 1) * (n + 1), n)
    return BinaryMatrix(rounding._round_matrix_core(np.repeat(X, n).reshape(m, n), n))


def block_stack(X, n: int) -> tuple[list[int], list[int]]:
    """``build_FX``'s row blocks stacked one block at a time, each distinct
    block keyed by the tuple of its X in a dict: the stack's X (the distinct
    blocks in first-occurrence order), and the row map (row r of the matrix
    is row row_map[r] of the stack)."""
    X = tuple(map(int, X))
    cut = np.cumsum(X) % n == 0
    cut[-1] = True
    # block b holds rows starts[b] .. ends[b] - 1
    ends = np.flatnonzero(cut) + 1
    starts = np.concatenate([[0], ends[:-1]])
    first: dict[tuple[int, ...], int] = {}
    stacked = np.empty(len(ends), dtype=np.int64)
    rows = 0
    for b, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        key = X[lo:hi]
        if key not in first:
            first[key] = rows
            rows += hi - lo
        stacked[b] = first[key]
    row_map = np.repeat(stacked - starts, ends - starts) + np.arange(len(X))
    return [s for key in first for s in key], row_map.tolist()


def blocked_FX(spec: RoundingSpec) -> BinaryMatrix:
    """``build_FX`` over the dict-keyed ``block_stack``: the stack rounded
    by one solver call, its rows copied back through the row map."""
    m, n = spec.m, spec.n
    if all(s == 0 for s in spec.X):
        return BinaryMatrix(np.zeros((m, n), dtype=np.int64))
    X, row_map = block_stack(spec.X, n)
    body = np.repeat(np.array(X, dtype=np.int64), n).reshape(len(X), n)
    return BinaryMatrix(rounding._round_matrix_core(body, n)[row_map])


def row_counts(F: BinaryMatrix) -> tuple[int, ...]:
    """The ones in each row of F, as a tuple."""
    return tuple(F.bits.sum(axis=1).tolist())


def balance_violations(F: BinaryMatrix, X) -> list[str]:
    """``rounding.balance_violations`` over tuples: the row sums compared
    as tuples, the prefixes cumulated along each axis of F as laid out."""
    X = tuple(map(int, X))
    if len(X) != F.m:
        raise ValueError("row-sum sequence length disagrees with matrix")
    out = []
    if row_counts(F) != X:
        for i, (got, want) in enumerate(zip(row_counts(F), X), start=1):
            if got != want:
                out.append(f"row {i} sums to {got}, expected {want}")
    colpref = F.bits.cumsum(axis=0)
    spread = colpref.max(axis=1) - colpref.min(axis=1)
    for d in np.nonzero(spread > 1)[0]:
        out.append(f"column prefixes of depth {d + 1} spread {spread[d]} > 1")
    rowpref = F.bits.cumsum(axis=1)
    spread = rowpref.max(axis=0) - rowpref.min(axis=0)
    for h in np.nonzero(spread > 2)[0]:
        out.append(f"row prefixes of width {h + 1} spread {spread[h]} > 2")
    return out


def rounding_spec_error(X, n) -> str | None:
    """The message ``RoundingSpec(X, n)`` rejects X and n with, checked
    over the tuple of X; None when it accepts them."""
    X = tuple(map(int, X))
    if not X:
        return "X must be nonempty"
    if n < 1:
        return "column count must be positive"
    if min(X) < 0:
        return "row sums must be nonnegative"
    if max(X) - min(X) > 1:
        return "row sums must take at most two consecutive values"
    if min(X) + 1 > n:
        return f"kappa+1 = {min(X) + 1} exceeds n = {n}"
    return None


def random_FX(spec: RoundingSpec, rng: random.Random) -> BinaryMatrix:
    """A consistent rounding of T^X = X[i] / n drawn by ``rng``: the whole
    matrix rounded as ``whole_matrix_FX`` does, with the solver's slots
    replaced by ``dinic_slots`` on shuffled adjacency lists.  The windows
    admit a perfect assignment, so every maximum flow is one, and a perfect
    assignment is a valid rounding: each draw passes the balance and window
    contracts that ``build_FX``'s matrix does, and it is often another
    matrix."""
    draw = partial(dinic_slots, rng=rng)
    with mock.patch.object(rounding, "_assign_slots", draw):
        return whole_matrix_FX(spec)


def _over_common_denominator(values: list[Fraction]) -> tuple[list[int], int]:
    """Numerators of the values over D = lcm of their denominators, and D."""
    D = lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


def _unit_rationals(values) -> list[Fraction]:
    out = [Fraction(v) for v in values]
    for v in out:
        if not 0 <= v <= 1:
            raise ValueError(f"value {v} outside [0, 1]")
    return out


def solver_two_way_round(values, perm) -> list[int]:
    """The library's two-way rounding solver behind a rational front end:
    exact rationals in [0, 1], and `perm` a bijection on 1..n giving the
    second scan order."""
    values = _unit_rationals(values)
    order = np.fromiter(perm, dtype=np.int64) - 1
    if not np.array_equal(np.sort(order), np.arange(len(values))):
        raise ValueError("perm must be a bijection on 1..n")
    nums, D = _over_common_denominator(values)
    array = solver_array(nums, len(values), D)
    floors, fracs = array // D, array % D
    items = np.flatnonzero(fracs)
    # a fractional total off a multiple of D rounds to either neighbour,
    # which the package's own inputs never need (`_round_matrix_core`)
    low, rem = divmod(int(fracs.sum()), D)
    for b in [low] if rem == 0 else [low, low + 1]:
        windows = np.concatenate([
            rounding._prefix_windows(fracs, scan, D, b)[:, items]
            for scan in (np.arange(len(fracs)), order)
        ])
        slot_a, _ = rounding._assign_slots(*windows, b)
        if np.count_nonzero(slot_a) == b:
            floors[items[slot_a > 0]] += 1
            return floors.tolist()
    raise RuntimeError("two-way rounding solver found no feasible rounding")


def solver_round_matrix(T) -> BinaryMatrix:
    """The library's matrix rounding behind a rational front end: a
    rectangular matrix of exact rationals in [0, 1]."""
    rows = [_unit_rationals(row) for row in T]
    m, n = len(rows), len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged rows")
    nums, D = _over_common_denominator([x for row in rows for x in row])
    body = solver_array(nums, (m + 1) * (n + 1), D).reshape(m, n)
    return BinaryMatrix(rounding._round_matrix_core(body, D))


def matrix_rounding_violations(T, F: BinaryMatrix) -> list[str]:
    """Check that F is a consistent rounding of T (strict error bounds).

    Every initial row segment, every initial column segment, and the grand
    total of F must differ from the corresponding exact sum of T by strictly
    less than 1.  Arithmetic is exact, so equality with 1 is a reported
    violation, not a tolerance call.  Returns human-readable violation
    strings; an empty list means F passes.
    """
    rows = [[Fraction(x) for x in row] for row in T]
    if len(rows) != F.m or len(rows[0]) != F.n:
        raise ValueError("matrix shapes disagree")
    bits = F.bits.tolist()
    out = []
    for i, (trow, frow) in enumerate(zip(rows, bits), start=1):
        diff = Fraction(0)
        for b, (t, f) in enumerate(zip(trow, frow), start=1):
            diff += t - f
            if not -1 < diff < 1:
                out.append(f"row {i} prefix {b}: discrepancy {diff}")
    for j in range(F.n):
        diff = Fraction(0)
        for b in range(F.m):
            diff += rows[b][j] - bits[b][j]
            if not -1 < diff < 1:
                out.append(f"column {j + 1} prefix {b + 1}: discrepancy {diff}")
    grand = sum((x for trow in rows for x in trow), Fraction(0)) - sum(
        row_counts(F)
    )
    if not -1 < grand < 1:
        out.append(f"grand total: discrepancy {grand}")
    return out


def window_violations(spec: RoundingSpec, F: BinaryMatrix) -> list[str]:
    """Check the zero-spacing windows of a designation matrix for ``spec``.

    Applies when kappa+1 <= n/2.  With every window fully inside its row
    (positions stay in 1..n, zero indices stay within the row's zero count):

    * a forward position h of row i has at most e ones in columns
      h+1..h+2e, so the e zeros after a forward zero arrive within 2e
      columns;
    * a backward position allows one extra one (e+1), and the e zeros after
      a backward zero arrive within 2e+2 columns;
    * across any two rows r, s, the (d+e)-th zero of row r is at most
      2e+4 columns past the d-th zero of row s.

    Returns violation strings; an empty list means F passes.
    """
    if 2 * (spec.kappa + 1) > spec.n:
        raise ValueError("window bounds require kappa+1 <= n/2")
    if F.m != spec.m or F.n != spec.n:
        raise ValueError("matrix shape disagrees with its row-sum sequence")
    n = spec.n
    out = []
    # Per-row window sums.  With g[h] = 2*(ones in columns 1..h) - h, the
    # bound "at most e ones in columns h+1..h+2e for all in-range e" is
    # exactly "g never rises above g[h] at same-parity positions >= h"
    # (and "at most e+1" allows a rise of 2), so one suffix maximum per
    # parity class settles every window at once.
    for i in range(1, F.m + 1):
        s = spec.X[i - 1]
        fpref = np.concatenate([[0], np.cumsum(F.bits[i - 1])])
        h_idx = np.arange(n + 1)
        ceil_t = -(-h_idx * s // n)
        forward = fpref == ceil_t
        backward = fpref == ceil_t - 1
        for h in np.nonzero(~forward & ~backward)[0]:
            out.append(f"row {i} prefix {h}: not a consistent rounding")
        g = 2 * fpref - h_idx
        suffmax = np.empty(n + 1, dtype=np.int64)
        for parity in (0, 1):
            vals = g[parity::2]
            suffmax[parity::2] = np.maximum.accumulate(vals[::-1])[::-1]
        allow = np.where(forward, 0, 2)
        bad = np.nonzero((suffmax - g > allow) & (forward | backward))[0]
        for h in bad:
            kind = "forward" if forward[h] else "backward"
            out.append(
                f"row {i} {kind} position {h}: a window holds too many ones"
            )
        # Zero-gap form: with A[x] = (column of x-th zero) - 2x, the gap
        # bound after the d-th zero is a suffix-maximum condition on A.
        zeros = np.flatnonzero(F.bits[i - 1] == 0) + 1
        a = zeros - 2 * np.arange(1, len(zeros) + 1)
        asuffmax = np.maximum.accumulate(a[::-1])[::-1]
        zallow = np.where(forward[zeros], 0, 2)
        for d in np.nonzero(asuffmax - a > zallow)[0]:
            kind = "forward" if forward[zeros[d]] else "backward"
            out.append(
                f"row {i} {kind} zero {d + 1}: later zeros arrive too late"
            )
    # Cross-row zero gaps: N_r(d+e) - N_s(d) <= 2e+4 for in-range d >= 1,
    # e >= 0.  Writing x = d+e and A_r[x] = N_r(x) - 2x, the bound reads
    # A_r[x] <= 4 + min(A_s[1..min(x, zeros in s)]), so per-row prefix
    # minima (extended flat past each row's last zero) settle all pairs.
    qmax = F.n - min(row_counts(F))
    lowest = np.full((F.m, qmax), np.iinfo(np.int64).min, dtype=np.int64)
    prefmin = np.empty((F.m, qmax), dtype=np.int64)
    for i in range(1, F.m + 1):
        zeros = np.flatnonzero(F.bits[i - 1] == 0) + 1
        a = zeros - 2 * np.arange(1, len(zeros) + 1)
        lowest[i - 1, : len(a)] = a
        padded = np.concatenate([a, np.full(qmax - len(a), a[-1])])
        prefmin[i - 1] = np.minimum.accumulate(padded)
    amax = lowest.max(axis=0)
    mmin = prefmin.min(axis=0)
    for x in np.nonzero(amax > mmin + 4)[0]:
        r = int(lowest[:, x].argmax()) + 1
        s = int(prefmin[:, x].argmin()) + 1
        out.append(
            f"zero {x + 1} of row {r} trails a zero of row {s} by more "
            f"than the cross-row window allows"
        )
    return out


def dump_matrix(F: BinaryMatrix) -> str:
    """Render as the seed-file matrix format: header "m n", then '0'/'1' rows."""
    body = np.full((F.m, F.n + 1), ord("\n"), dtype=np.uint8)
    body[:, :-1] = F.bits + ord("0")
    return f"{F.m} {F.n}\n" + body.tobytes().decode("ascii")


def zero_index(F: BinaryMatrix, r: int, d: int) -> int:
    """Column of the d-th zero of row r, counting cyclically across rows.

    For 1 <= d <= (zeros in row r) this is min{b : b = d + sum_{j<=b} f_rj}.
    Larger d continues into rows r+1, r+2, ... (wrapping past the last row);
    d <= 0 walks backward into earlier rows, so e.g. the 0-th zero of row r+1
    is the last zero of row r.  Rejects matrices with no zeros at all.
    """
    if not 1 <= r <= F.m:
        raise ValueError("row out of range")
    if sum(row_counts(F)) == F.m * F.n:
        raise ValueError("matrix has no zeros")
    cols = zero_columns(F)
    row = r
    while not 1 <= d <= len(cols[row - 1]):
        if d <= 0:
            row = (row - 2) % F.m + 1
            d += len(cols[row - 1])
        else:
            d -= len(cols[row - 1])
            row = row % F.m + 1
    return cols[row - 1][d - 1]


def check_forward(F: BinaryMatrix, T, r: int, h: int) -> str:
    """Classify position (r, h): 'forward' if the rounded prefix of row r
    meets the ceiling of the exact prefix, 'backward' if it is one below.

    Any other discrepancy means F is not a consistent rounding of T here.
    """
    fsum = int(F.bits[r - 1, :h].sum())
    c = ceil(sum((Fraction(x) for x in T[r - 1][:h]), Fraction(0)))
    if fsum == c:
        return "forward"
    if fsum == c - 1:
        return "backward"
    raise ValueError(f"prefix ({r},{h}) is not consistently rounded")


def assign_leaves(t: int, spine: list[int], leaf_degree: int):
    """Match non-spine vertices to adjacent spine vertices, leaf_degree each."""
    n = 1 << t
    spine_pos = {v: i for i, v in enumerate(spine)}
    others = [v for v in range(n) if v not in spine_pos]
    adjacency = []
    for v in others:
        hits = [spine_pos[v ^ (1 << b)] for b in range(t) if v ^ (1 << b) in spine_pos]
        if not hits:
            return None
        adjacency.append(hits)
    e = len(spine)
    spine_base = 1 + len(others)
    sink = spine_base + e
    net = Dinic(sink + 1)
    leaf_edges = []
    for idx, hits in enumerate(adjacency):
        net.add_edge(0, 1 + idx)
        leaf_edges.append([(net.add_edge(1 + idx, spine_base + i), i) for i in hits])
    for i in range(e):
        net.add_edge(spine_base + i, sink, leaf_degree)
    if net.max_flow(0, sink) != len(others):
        return None
    buckets: list[list[int]] = [[] for _ in range(e)]
    for idx, edges in enumerate(leaf_edges):
        for eid, i in edges:
            if net.cap[eid] == 0:
                buckets[i].append(others[idx])
                break
    return tuple(tuple(sorted(b)) for b in buckets)


def double_caterpillar(spine, leaves, t: int):
    """The doubled caterpillar's spine and leaf rows as tuples: copy 0
    forward, then copy 1 (top bit t set) backward, rows kept whole."""
    hi = 1 << t
    return (
        tuple(spine) + tuple(hi | v for v in reversed(spine)),
        tuple(map(tuple, leaves))
        + tuple(tuple(hi | x for x in row) for row in reversed(leaves)),
    )


def label_order(spine, leaves) -> tuple[int, ...]:
    """The block labeling's order as a tuple: each spine vertex's leaves,
    then the spine vertex itself."""
    order: list[int] = []
    for v, row in zip(spine, leaves):
        order.extend(row)
        order.append(v)
    return tuple(order)


def gray_order(t: int) -> tuple[int, ...]:
    """The reflected-Gray order as a tuple."""
    return tuple(c ^ (c >> 1) for c in range(1 << t))


def verify_window(order, w: int, dbound: int) -> tuple[int, int, int] | None:
    """The first pair within cyclic label distance 1..w whose Hamming
    distance exceeds dbound, as (label_a, label_b, distance), scanning
    label_a and then the distance upwards one pair at a time; None when
    every pair keeps within dbound."""
    n = len(order)
    for c in range(n):
        for delta in range(1, w + 1):
            pos = (c + delta) % n
            dist = (order[c] ^ order[pos]).bit_count()
            if dist > dbound:
                return (c + 1, pos + 1, dist)
    return None


def chain_prefix_count(R, i, j):
    """Closed form for N_ij, the points of chain i in columns 1..j.

    N_ij = j + floor(q i) - floor(q (i-j)) with q = p / a1, p = 2^{e1} - a1,
    evaluated as j + (p i) // a1 - (p (i-j)) // a1: floor division is exact
    for negative arguments in Python and in numpy.  ``i`` and ``j`` may be
    ints or numpy integer arrays (broadcast against each other).
    """
    if np.any(np.asarray(j) < 0):
        raise ValueError("column prefix must be nonnegative")
    p = (1 << R.e1) - R.a1
    return j + (p * i) // R.a1 - (p * (i - j)) // R.a1


def chain_prefix_counts(a1: int, m: int) -> list[list[int]]:
    """N_ij = j + floor(q i) - floor(q (i-j)) with q = (2^e1 - a1) / a1, for
    chains i = 1..a1 (rows) and column prefixes j = 0..m."""
    e1 = (a1 - 1).bit_length()
    q = Fraction((1 << e1) - a1, a1)
    floor_q = {x: floor(q * x) for x in range(1 - m, a1 + 1)}
    return [
        [j + floor_q[i] - floor_q[i - j] for j in range(m + 1)]
        for i in range(1, a1 + 1)
    ]


def consecutive_sum(R, t: int) -> int:
    """S_t = floor(q t) with q = (2^e1 - a1) / a1; asserts every cyclic
    t-run of the circulant's first column sums to S_t or S_t + 1."""
    if t < 1:
        raise ValueError("run length must be positive")
    s_t = floor(Fraction((1 << R.e1) - R.a1, R.a1) * t)
    full, rem = divmod(t, R.a1)
    base = full * sum(R.first_column)
    for start in range(R.a1):
        run = base + sum(R.first_column[(start + p) % R.a1] for p in range(rem))
        if run not in (s_t, s_t + 1):
            raise AssertionError(
                f"{t}-run starting at {start + 1} sums to {run}, "
                f"outside {{{s_t}, {s_t + 1}}}"
            )
    return s_t


def fill_columns(a1: int, m: int):
    """The literal filling loop over columns j = 1..m.

    Scanning chains in order, chain i contributes 1 + R(i,j) points to column
    j; a double contribution is placed descending (the later chain position
    below the earlier) exactly when j is even, ascending when j is odd.
    Returns (chains, columns): `chains[i-1][p-1]` is the (row, col) image of
    the p-th point of chain i, `columns[j-1][row-1]` is the (chain, position)
    in that cell, bottom-up.
    """
    R = build_R(a1)
    fc, height = R.first_column, 1 << R.e1
    chains: list[list[tuple[int, int]]] = [[] for _ in range(a1)]
    cols: list[list[tuple[int, int]]] = []
    for j in range(1, m + 1):
        col: list[tuple[int, int]] = []
        for i in range(1, a1 + 1):
            npts = len(chains[i - 1])
            c = len(col)
            if fc[(i - j) % a1] == 0:
                col.append((i, npts + 1))
                chains[i - 1].append((c + 1, j))
            elif j % 2 == 0:
                col.append((i, npts + 2))
                col.append((i, npts + 1))
                chains[i - 1].append((c + 2, j))
                chains[i - 1].append((c + 1, j))
            else:
                col.append((i, npts + 1))
                col.append((i, npts + 2))
                chains[i - 1].append((c + 1, j))
                chains[i - 1].append((c + 2, j))
        if len(col) != height:
            raise AssertionError(f"column {j} holds {len(col)} points, not {height}")
        cols.append(col)
    return tuple(tuple(ch) for ch in chains), tuple(tuple(c) for c in cols)


def dump_embedding(emb) -> str:
    """The GRIDCUBE text built one rank at a time from coords_of and the
    label's n-bit binary form."""
    spec = emb.spec
    lines = [
        "GRIDCUBE 1",
        "dims " + " ".join(str(a) for a in spec.dims),
        str(spec.n) + " " + " ".join(str(e) for e in spec.exponents[1:]),
        "labelings " + " ".join(str(w) for w in emb.windows()),
    ]
    for rank in range(spec.size):
        coords = coords_of(spec, rank)
        bits = format(int(emb.labels[rank]), f"0{spec.n}b")
        lines.append(" ".join(str(x) for x in coords) + " " + bits)
    return "\n".join(lines) + "\n"


def vertex_lines(spec: GridSpec, label_blocks) -> Iterator[str]:
    """Lines "x_1 ... x_k label" in rank order, one string per block of a_1
    ranks, whose label fields `label_blocks` yields.  Ranks run with x_1
    fastest: itertools.product over the higher coordinates, x_1 innermost."""
    first = [f"{x} " for x in range(1, spec.dims[0] + 1)]
    higher = [[f"{x} " for x in range(1, a + 1)] for a in reversed(spec.dims[1:])]
    for upper, labels in zip(product(*higher), label_blocks):
        rest = "".join(reversed(upper))
        yield "".join([f"{x}{rest}{label}\n" for x, label in zip(first, labels)])


def dump_stage(emb: StageEmbedding) -> str:
    """Stage dump: header "STAGE i u_i", then "rank: (c_1,...,c_i)" lines."""
    u = level_budget(emb.spec, emb.stage)
    lines = [f"STAGE {emb.stage} {u}"]
    for rank, coords in enumerate(stage_coords(emb).tolist()):
        tup = ", ".join(str(c) for c in coords)
        lines.append(f"{rank}: ({tup})")
    return "\n".join(lines) + "\n"


def parse_embedding(text: str) -> checks.ParsedEmbedding:
    """The GRIDCUBE reader one vertex line at a time, with int() fields.

    It accepts more than the writer produces: int() also reads "1_0", "+2"
    and "03", split() skips doubled spaces, CRLF line ends and blank lines,
    and the vertex lines may come in any order.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 5 or lines[0] != "GRIDCUBE 1":
        raise ValueError("not a GRIDCUBE file")
    head = lines[1].split()
    if head[0] != "dims" or len(head) < 3:
        raise ValueError("bad dims line")
    dims = tuple(int(x) for x in head[1:])
    spec = GridSpec(dims)
    exps = [int(x) for x in lines[2].split()]
    if exps != [spec.n, *spec.exponents[1:]]:
        raise ValueError("exponent line disagrees with the dims")
    labs = lines[3].split()
    if labs[0] != "labelings" or len(labs) != spec.k + 1:
        raise ValueError("bad labelings line")
    windows = tuple(int(x) for x in labs[1:])
    body = lines[4:]
    if len(body) != spec.size:
        raise ValueError(
            f"expected {spec.size} vertex lines, found {len(body)}"
        )
    labels = np.zeros(spec.size, dtype=np.int64)
    seen = np.zeros(spec.size, dtype=bool)
    for ln in body:
        parts = ln.split()
        if len(parts) != spec.k + 1:
            raise ValueError(f"bad vertex line: {ln!r}")
        coords = tuple(int(x) for x in parts[:-1])
        bits = parts[-1]
        if len(bits) != spec.n or set(bits) - {"0", "1"}:
            raise ValueError(f"bad label field: {bits!r}")
        rank = rank_of(spec, coords)
        if seen[rank]:
            raise ValueError(f"vertex {coords} listed twice")
        seen[rank] = True
        labels[rank] = int(bits, 2)
    return checks.ParsedEmbedding(spec, windows, labels)


def s_sequence(spec: GridSpec, i: int) -> tuple[int, ...]:
    """Blanks per section at stage i, one section at a time over all P_i
    sections: s_i(j) = w - ceil(A/h) + floor(j phi) - floor((j-1) phi),
    with w = 2^{e_i - e_{i-1}}, A = a_1...a_i, h = 2^{e_{i-1}} and
    phi = ceil(A/h) - A/h, in exact integer arithmetic."""
    width = 1 << spec.block_width(i)
    half = 1 << spec.exponents[i - 1]
    prefix = spec.prefix_product(i)
    lead = -(-prefix // half)
    phi_num = lead * half - prefix
    s = []
    prev = 0
    for j in range(1, spec.page_count(i) + 1):
        cur = (j * phi_num) // half
        s.append(width - lead + cur - prev)
        prev = cur
    return tuple(s)


def budget_break(spec: GridSpec, i: int, s) -> int | None:
    """First section prefix r where the budget identity fails, else None,
    one prefix at a time: sections 1..r hold r * width slots minus their
    blanks, and need ceil(r A / h) levels (A = a_1...a_i, h = 2^{e_{i-1}})."""
    width = 1 << spec.block_width(i)
    half = 1 << spec.exponents[i - 1]
    prefix = spec.prefix_product(i)
    for r, total in enumerate(accumulate(s), start=1):
        if -(-r * prefix // half) + total != r * width:
            return r
    return None


def zeros_per_row(plan: BlankPlan) -> tuple[int, ...]:
    """Nonblank levels per section (the paper-side m_r)."""
    return tuple(plan.width - c for c in row_counts(plan.F))


def zero_columns(F: BinaryMatrix) -> list[tuple[int, ...]]:
    """1-based columns of the zeros of every row, left to right."""
    return [tuple((np.flatnonzero(row == 0) + 1).tolist()) for row in F.bits]


def nonblank_levels(zero_cols: list[tuple[int, ...]], width: int) -> tuple[int, ...]:
    """Global indices of the zeros, row by row (sections of ``width``)."""
    levels = []
    for r, cols in enumerate(zero_cols):
        levels.extend(r * width + c for c in cols)
    return tuple(levels)


def nu_of(zero_cols: list[tuple[int, ...]], width: int, level: int) -> int:
    """Ordinal of a nonblank level among its section's nonblanks, by
    bisection in the section's zero columns; ValueError at a blank."""
    cols = zero_cols[(level - 1) // width]
    off = (level - 1) % width + 1
    idx = bisect_right(cols, off)
    if idx == 0 or cols[idx - 1] != off:
        raise ValueError(f"level {level} is blank")
    return idx


def nu_distance(plan: BlankPlan, sec1: int, nu1: int, sec2: int, nu2: int) -> int:
    """Cyclic-style distance between nonblank ordinals of two sections.

    For z' the nu1-th nonblank of section sec1 and z'' the nu2-th of sec2:
    min(|nu2 - nu1|, m_sec1 - nu1 + nu2, m_sec2 - nu2 + nu1), the three-way
    minimum over direct difference and the two wraparound readings.
    """
    zeros = zeros_per_row(plan)
    m1, m2 = zeros[sec1 - 1], zeros[sec2 - 1]
    return min(abs(nu2 - nu1), m1 - nu1 + nu2, m2 - nu2 + nu1)


def _height_table(emb: StageEmbedding, mask) -> dict[tuple[int, ...], int]:
    """Points per stack address (the first stage - 1 coordinates) among the
    masked vertices, over the whole address box (0 where nothing landed)."""
    spec = emb.spec
    i = emb.stage - 1
    box = [range(1, (1 << spec.block_width(j)) + 1) for j in range(1, i + 1)]
    table = dict.fromkeys(product(*box), 0)
    table.update(Counter(map(tuple, stage_coords(emb)[mask][:, :i].tolist())))
    return table


def source_level(emb: StageEmbedding) -> np.ndarray | None:
    """The inflated level each vertex passed through, by rank (int32),
    gathered from the stage's step into a new row (None at stage 2)."""
    if emb.stage == 2:
        return None
    out = np.empty(emb.spec.size, dtype=np.int32)
    return by_rank(emb.steps[emb.stage - 3], emb.column, out)


def source_section(emb: StageEmbedding) -> np.ndarray:
    """Section of each vertex's source level at a stacked stage, 1-based."""
    return emb.plan.section_of(source_level(emb))


def source_nu(emb: StageEmbedding) -> np.ndarray:
    """Ordinal of each vertex's source level at a stacked stage among its
    section's nonblank levels."""
    return emb.plan.ordinal_table[source_level(emb)]


def sorted_heights(key: np.ndarray, sections: np.ndarray) -> np.ndarray:
    """Stack heights by one lexsort on (key, section): each point's 1-based
    rank among the points sharing its key, in section order.  Two points of
    one section at one key raise AssertionError."""
    order = np.lexsort((sections, key))
    key_sorted = key[order]
    sec_sorted = sections[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = key_sorted[1:] != key_sorted[:-1]
    if not (new_group[1:] | (sec_sorted[1:] > sec_sorted[:-1])).all():
        raise AssertionError("two same-section points share an address and slot")
    starts = np.flatnonzero(new_group)
    heights = np.empty(len(order), dtype=np.int64)
    heights[order] = np.arange(len(order)) - starts[np.cumsum(new_group) - 1] + 1
    return heights


def stack_columns(
    prev: StageEmbedding, plan: BlankPlan
) -> tuple[np.ndarray, np.ndarray]:
    """The offset and height columns of stacking stage `prev` through
    `plan`, from prev's coordinates alone: each level coordinate inflated
    through the nonblank levels, and the heights by `sorted_heights` on the
    packed (address, offset) key and the level's section."""
    spec, i = prev.spec, prev.stage
    coords = stage_coords(prev)
    levels = plan.level_table[coords[:, i - 1] - 1]
    offsets = plan.offset_of(levels)
    key = packed_address(spec, np.column_stack([coords[:, : i - 1], offsets]).T)
    return offsets, sorted_heights(key, plan.section_of(levels))


def per_vertex_chain(
    spec: GridSpec, plans: list[BlankPlan]
) -> tuple[np.ndarray, list[tuple[np.ndarray | None, np.ndarray]]]:
    """The chain stacked one vertex row at a time through the plans of
    stages 2..k-1: the k x |G| final map, and each stage's (source level,
    level) by rank (no source level at stage 2).  Stage 2 is the base map's
    (row, column) of each rank; each step inflates every vertex's level
    through the plan's nonblank levels, writes the level's offset over it
    and reads its stack height from the plan's column prefix table."""
    base = base2d.fill_columns(spec.dims[0], level_budget(spec, 2))
    # rank p a_1 + i is point p + 1 of chain i + 1
    at = (base.offsets[:-1] + np.arange(spec.size // spec.dims[0])[:, None]).ravel()
    final = np.zeros((spec.k, spec.size), dtype=np.int32)
    final[0], final[1] = base.rows[at], base.cols[at]
    chain = [(None, final[1].copy())]
    for i, plan in enumerate(plans, start=2):
        source = plan.level_table[final[i - 1] - 1]
        final[i - 1] = plan.offset_of(source)
        final[i] = plan.height_table[source]
        chain.append((source, final[i].copy()))
    return final, chain


def final(emb: StageEmbedding) -> np.ndarray:
    """The chain's coordinates 1..top by rank: a new top x |G| int32 array,
    whose last row is the top stage's level."""
    return np.stack([coordinate(emb, j) for j in range(1, emb.top + 1)])


def source_levels(emb: StageEmbedding) -> list[np.ndarray]:
    """The source levels of each stacked stage 3..top of emb's chain, by
    rank (int32, as a chain's steps may be narrower): its steps read
    through its base column."""
    size = emb.spec.size
    return [by_rank(step, emb.column, np.empty(size, np.int32)) for step in emb.steps]


def per_vertex(
    emb: StageEmbedding, coords: np.ndarray | None = None, sources=None
) -> StageEmbedding:
    """The chain of `emb`, as its top stage, written over the identity
    column 1..|G|, so that each table holds one entry per vertex: a chain
    that can hold any coordinates.  Its coordinates are the rows of `coords`
    (by rank, coordinate 1 first and the top level last; `final(emb)` when
    None), its plans are emb's, and each stacked stage's source levels are
    `sources`, or emb's own, by rank."""
    spec = emb.spec
    coords = final(emb) if coords is None else coords
    if sources is None:
        sources = source_levels(emb)
    column = np.arange(1, spec.size + 1, dtype=np.int32)
    tables = tuple(row.astype(np.int64) - 1 for row in coords[1:])
    row = np.ascontiguousarray(coords[0], dtype=np.int32)
    return StageEmbedding(spec, emb.top, row, column, tables, emb.plans, tuple(sources))


def stack_heights(emb: StageEmbedding, r: int) -> dict[tuple[int, ...], int]:
    """Height of every stack address after sections 1..r, r < P_i.

    When every grid side is at least 5 the two-value contract
    height in {ceil(r A / 2^{e_i}), same - 1} is asserted; for smaller sides
    it is left to the caller to inspect (observed but not guaranteed).
    """
    if emb.stage < 3:
        raise ValueError("stack heights need a stacked stage (3 or above)")
    i = emb.stage - 1
    pages = emb.spec.page_count(i)
    if not 1 <= r < pages:
        raise ValueError(f"section prefix {r} outside [1, {pages - 1}]")
    table = _height_table(emb, source_section(emb) <= r)
    if min(emb.spec.dims) >= 5:
        target = -(-r * emb.spec.prefix_product(i) // (1 << emb.spec.exponents[i]))
        got = set(table.values())
        if not got <= {target, target - 1}:
            raise AssertionError(
                f"stack heights {sorted(got)} not within "
                f"{{{target - 1}, {target}}} at prefix {r}"
            )
    return table


def full_stack_heights(emb: StageEmbedding) -> dict[tuple[int, ...], int]:
    """Heights over the whole address box after every section."""
    if emb.stage < 3:
        raise ValueError("stack heights need a stacked stage (3 or above)")
    return _height_table(emb, np.ones(emb.spec.size, dtype=bool))


def grid_edges(spec: GridSpec) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Grid edges per dimension as (i0, src, dst) rank arrays: the edges
    stepping in dimension i0 join rank src to rank dst = src + stride."""
    ranks = np.arange(spec.size, dtype=np.int64)
    for i0 in range(1, spec.k + 1):
        stride = spec.prefix_product(i0 - 1)
        src = ranks[ranks // stride % spec.dims[i0 - 1] < spec.dims[i0 - 1] - 1]
        yield i0, src, src + stride


def coordinate_diffs(fk) -> tuple[tuple[int, ...], ...]:
    """The cyclic coordinate-difference table, one output dimension and one
    grid dimension at a time."""
    spec = fk.spec
    k = spec.k
    coords = stage_coords(fk)
    cyc = np.zeros((k, k), dtype=np.int64)
    for i0, src, dst in grid_edges(spec):
        a = coords[src]
        b = coords[dst]
        for jdim in range(1, k + 1):
            width = 1 << spec.block_width(jdim)
            d = np.abs(a[:, jdim - 1] - b[:, jdim - 1])
            cyc[jdim - 1, i0 - 1] = int(np.minimum(d, width - d).max())
    return tuple(tuple(int(x) for x in row) for row in cyc)


def step_above_wrap_split(fk) -> tuple[int, int]:
    """Coordinate 3's cyclic differences across the dimension-4 edges of a
    grid with k >= 4, split edge by edge by whether coordinate 2's plain
    difference crosses its cyclic wrap, |dx_2| > 2^{e_2 - e_1} / 2: the
    largest on the edges that do not cross it, and the largest on those
    that do (0 where there are none)."""
    spec = fk.spec
    coords = stage_coords(fk)
    _, src, dst = [*grid_edges(spec)][3]
    d2 = np.abs(coords[src, 1] - coords[dst, 1])
    d3 = np.abs(coords[src, 2] - coords[dst, 2])
    cyc = np.minimum(d3, (1 << spec.block_width(3)) - d3)
    wrap = 2 * d2 > 1 << spec.block_width(2)
    return int(cyc[~wrap].max(initial=0)), int(cyc[wrap].max(initial=0))


def dilation(emb) -> tuple[tuple[int, ...], int, bool]:
    """Histogram of the label distances over every grid edge, its maximum,
    and whether every windowed block kept within distance 3 across the edges
    whose cyclic coordinate difference was within its window.  Each edge's
    two labels are decoded block by block, each end on its own."""
    spec = emb.spec
    labels = emb.labels
    coords = stage_coords(emb.fk)
    hist = np.zeros(spec.n + 1, dtype=np.int64)
    sound = True
    for _, src, dst in grid_edges(spec):
        hist += np.bincount(
            np.bitwise_count(labels[src] ^ labels[dst]), minlength=spec.n + 1
        )
        shift = spec.n
        for jdim, lab in enumerate(emb.labelings, start=1):
            shift -= lab.t
            if not lab.window:
                continue
            width = 1 << lab.t
            d = np.abs(coords[src, jdim - 1] - coords[dst, jdim - 1])
            d = np.minimum(d, width - d)
            held = (d > 0) & (d <= lab.window)
            block_src = (labels[src] >> shift) & (width - 1)
            block_dst = (labels[dst] >> shift) & (width - 1)
            far = np.bitwise_count(block_src ^ block_dst) > 3
            sound = sound and not (far & held).any()
    dil = int(np.flatnonzero(hist).max())
    return tuple(int(x) for x in hist[: dil + 1]), dil, sound


def chain_battery(a1: int, m: int = 256) -> list[CheckResult]:
    """Exhaustive property battery for the base 2-dimensional map.

    Builds the filled box of `m` columns for `a1` chains and checks every
    occupancy, initial-segment, window-count, balance, coverage, and
    adjacency property, plus the page-prefix containments for the grid
    restriction of chain length floor(m 2^{e1} / a1).  All checks are hard
    assertions except the step-total, which is measured and reported, and
    the segment-span check, which is sampled by its definition.
    """
    if a1 < 2:
        raise ValueError("need at least two chains")
    if m < 2:
        raise ValueError("need at least two columns")
    emb = base2d.fill_columns(a1, m)
    height = emb.height
    out: list[CheckResult] = []

    rows, cols = emb.rows, emb.cols
    chain_start = emb.offsets[:-1]
    lengths = np.diff(emb.offsets)

    first = np.array(emb.R.first_column, dtype=np.int64)
    i_idx = np.arange(1, a1 + 1)[:, None]
    j_idx = np.arange(1, m + 1)[None, :]
    Rmat = first[(i_idx - j_idx) % a1]
    cumN = np.zeros((a1, m + 1), dtype=np.int64)
    cumN[:, 1:] = j_idx + np.cumsum(Rmat, axis=1)

    # occupancy 1 + R(i,j) per (chain, column); doubles at successive rows;
    # column index monotone along each chain with steps 0 or 1
    ok = np.array_equal(np.diff(emb.prefix_counts, axis=1), 1 + Rmat)
    inside = np.ones(len(cols) - 1, dtype=bool)
    inside[chain_start[1:] - 1] = False
    step = np.diff(cols)[inside]
    stay = np.flatnonzero(inside)[step == 0]
    ok = (
        ok
        and bool(np.isin(step, (0, 1)).all())
        and bool((np.abs(rows[stay + 1] - rows[stay]) == 1).all())
    )
    out.append(_check("chain.occupancy-and-monotone", ok))

    # columns list chains bottom-up in chain order (initial segments), and
    # the first r chains fill exactly r + sum_{i<=r} R(i,j) cells
    owner = emb.column_inverse()
    sizes = np.arange(1, a1 + 1)[:, None] + np.cumsum(Rmat, axis=0)
    seen = np.bincount(
        (np.arange(m)[:, None] * (a1 + 1) + owner).ravel(), minlength=m * (a1 + 1)
    ).reshape(m, a1 + 1)
    ok = bool((np.diff(owner, axis=1) >= 0).all()) and np.array_equal(
        np.cumsum(seen[:, 1:], axis=1), sizes.T
    )
    out.append(_check("chain.initial-segments", ok))

    # per-chain window counts over any column interval take one of the two
    # values allowed by the surplus density (so same-width windows on any
    # chains differ by at most 1)
    small = cumN.astype(np.int32)
    big = small[:, None, 1:] - small[:, :-1, None]
    starts = np.arange(m, dtype=np.int32)[:, None]
    ends = np.arange(1, m + 1, dtype=np.int32)[None, :]
    W = ends - starts
    valid = W >= 1
    SW = ((height - a1) * W.astype(np.int64) // a1).astype(np.int32)
    low = W + SW
    okmat = (big == low) | (big == low + 1) | ~valid
    out.append(_check("chain.window-counts", bool(okmat.all())))
    del big, okmat

    # balance of chain prefix counts and column fill sizes; fills of
    # consecutive chain prefixes sit in two-value sets one step apart, so
    # they can differ by up to 3 (not 2: the sets slide when the surplus
    # run sum steps)
    nspread = cumN[:, 1:].max(axis=0) - cumN[:, 1:].min(axis=0)
    rspread = sizes.max(axis=1) - sizes.min(axis=1)
    cross = np.array(
        [
            max(
                sizes[r + 1].max() - sizes[r].min(),
                sizes[r].max() - sizes[r + 1].min(),
            )
            for r in range(a1 - 1)
        ]
        or [0]
    )
    out.append(
        _check(
            "chain.prefix-balance",
            bool((nspread <= 1).all() and (rspread <= 1).all() and (cross <= 3).all()),
        )
    )

    # the full box is covered exactly: every column holds `height` cells
    dense = bool((owner > 0).all())
    out.append(_check("chain.box-cover", dense and int(lengths.sum()) == m * height))

    # grid restriction of chain length L fits the box and covers all but the
    # last column
    L = (m * height) // a1
    ok = (
        L >= 1
        and -(-a1 * L // height) == m
        and bool((lengths >= L).all())
        and bool((cumN[:, m - 1] <= L).all())
    )
    out.append(_check("chain.grid-cover", ok, f"chain length {L}"))

    # same position across chains lands in columns within 1
    pmin = int(lengths.min())
    poscols = cols[chain_start[:, None] + np.arange(pmin)]
    pspread = poscols.max(axis=0) - poscols.min(axis=0)
    out.append(_check("chain.position-columns", bool((pspread <= 1).all())))

    # each chain stays within three consecutive rows
    out.append(
        _check(
            "chain.chain-rows",
            bool(
                (
                    np.maximum.reduceat(rows, chain_start)
                    - np.minimum.reduceat(rows, chain_start)
                    <= 2
                ).all()
            ),
        )
    )

    # where the circulant doubles a chain's contribution, the next column's
    # fill is no larger and the next chain's prefix count is no larger
    ok = True
    for r in range(a1):
        hit = np.flatnonzero(Rmat[r, : m - 1] == 1)
        if not (sizes[r, hit] >= sizes[r, hit + 1]).all():
            ok = False
            break
        if r + 1 < a1:
            hit = np.flatnonzero(Rmat[r] == 1)
            if not (cumN[r, hit + 1] >= cumN[r + 1, hit + 1]).all():
                ok = False
                break
    out.append(_check("chain.shift-monotone", ok))

    # grid adjacency: consecutive chain positions and same-position
    # neighbours move at most 3 rows and 1 column
    gr = rows[chain_start[:, None] + np.arange(L)]
    gc = cols[chain_start[:, None] + np.arange(L)]
    drow = np.abs(np.diff(gr, axis=1))
    dcol = np.abs(np.diff(gc, axis=1))
    xrow = np.abs(np.diff(gr, axis=0))
    xcol = np.abs(np.diff(gc, axis=0))
    ok = (
        bool((drow <= 3).all())
        and bool((dcol <= 1).all())
        and (xrow.size == 0 or bool((xrow <= 3).all()))
        and (xcol.size == 0 or bool((xcol <= 1).all()))
    )
    out.append(_check("chain.adjacent-steps", ok))
    total = 0
    if drow.size:
        total = max(total, int((drow + dcol).max()))
    if xrow.size:
        total = max(total, int((xrow + xcol).max()))
    out.append(_report("chain.adjacent-step-total", total))

    # sampled: equally long chain segments span column counts within 1
    rng = random.Random(10_000 + a1)
    ok = True
    if L >= 2:
        for _ in range(24):
            p = rng.randint(2, L)
            spans = []
            for _ in range(8):
                i = rng.randrange(a1)
                s = rng.randint(1, L - p + 1)
                spans.append(int(gc[i, s + p - 2] - gc[i, s - 1]) + 1)
            if max(spans) - min(spans) > 1:
                ok = False
                break
    out.append(_check("chain.segment-spans", ok))

    # two-position page prefixes: the columns they reach are covered fully
    # below the last one, and overshoot the page size by less than a column
    ok = True
    for r in range(1, L // 2 + 1):
        redge = int(gc[:, 2 * r - 1].max())
        npts = a1 * 2 * r
        below = int(np.minimum(cumN[:, redge - 1], 2 * r).sum())
        if below != (redge - 1) * height or not 0 <= redge * height - npts < height:
            ok = False
            break
    out.append(_check("chain.page-prefixes", ok))
    return out


def _gated(name: str, ok: bool, asserted: bool, detail: str = "") -> CheckResult:
    """Assert when the side-length threshold is met, else report the finding."""
    if ok:
        return CheckResult(name, "PASS")
    if asserted:
        return CheckResult(name, "FAIL", detail)
    return CheckResult(name, "REPORTED", detail)


def transition_checks(emb: StageEmbedding) -> list[CheckResult]:
    """Checks for one stacking transition (embedding stage j >= 3), each
    asserted when every grid side is at least 5 and reported below that,
    with the threshold decided here and passed to every check."""
    spec = emb.spec
    asserted = min(spec.dims) >= 5
    j = emb.stage
    plan = emb.plan
    assert plan is not None and j >= 3
    pre = f"pipeline.stage{j}."
    out: list[CheckResult] = []

    coords = stage_coords(emb)
    h = coords[:, j - 1]
    sec = source_section(emb).astype(np.int64)
    nu = source_nu(emb).astype(np.int64)
    P = plan.pages
    pg = _vertex_pages(spec, j - 1)
    pg_prev = _vertex_pages(spec, j - 2)
    M = 1 << spec.exponents[j - 1]
    level_size = 1 << spec.exponents[j - 2]
    prefprod = spec.prefix_product(j - 1)
    addr = packed_address(spec, coords[:, : j - 1].T)

    def ceil_div(a: int, b: int) -> int:
        return -(-a // b)

    # level coverage: every nonblank level outside the last section is hit
    # by exactly level_size vertices
    counts = np.bincount(source_level(emb), minlength=plan.pages * plan.width + 1)
    levels = plan.level_table
    interior = levels[plan.section_of(levels) <= P - 1]
    ok = bool((counts[interior] == level_size).all())
    out.append(_gated(pre + "level-coverage", ok, asserted))

    # cumulative stack heights per address over section prefixes
    T_sec = np.zeros((M, P), dtype=np.int64)
    np.add.at(T_sec, (addr, sec - 1), 1)
    T_sec = np.cumsum(T_sec, axis=1)
    bracket = T_sec.max(axis=0)

    l_arr = np.array([ceil_div(r * prefprod, M) for r in range(1, P + 1)])
    if P > 1:
        band = (T_sec[:, : P - 1] >= l_arr[: P - 1] - 1) & (
            T_sec[:, : P - 1] <= l_arr[: P - 1]
        )
        out.append(_gated(pre + "stack-two-value", bool(band.all()), asserted))
        w_last = 1 << spec.block_width(j - 1)
        grouped = T_sec[:, : P - 1].reshape(w_last, M // w_last, P - 1)
        same = grouped.max(axis=1) == grouped.min(axis=1)
        out.append(_gated(pre + "stack-last-coordinate", bool(same.all()), asserted))

    arith = all(
        0 <= int(l_arr[r - 1]) * M - r * prefprod < M for r in range(1, P + 1)
    )
    out.append(
        _gated(
            pre + "stack-height-formula",
            bool(np.array_equal(bracket, l_arr)) and arith,
            asserted,
            f"measured {bracket.tolist()[:8]}..., expected {l_arr.tolist()[:8]}...",
        )
    )

    # per-vertex level bounds: height within the page budgets and u_j
    l_of_pg = np.array([0] + [ceil_div(r * prefprod, M) for r in range(1, P + 1)])
    nextprod = spec.prefix_product(j) if j < spec.k else spec.size
    P_next = spec.page_count(j) if j < spec.k else 1
    lp_of_pg = np.array(
        [0] + [ceil_div(r * nextprod, M) for r in range(1, P_next + 1)]
    )
    pg_next = _vertex_pages(spec, j)
    u_j = level_budget(spec, j)
    ok = (
        bool((h <= l_of_pg[pg]).all())
        and bool((h <= lp_of_pg[pg_next]).all())
        and bool((h <= u_j).all())
        and bool((h >= 1).all())
    )
    out.append(_gated(pre + "page-level-bounds", ok, asserted))

    # sections track pages: the image of a page prefix stays inside the
    # matching section prefix, and the next section prefix is strictly larger
    strict = all(
        ceil_div(r * prefprod, level_size) * level_size < (r + 1) * prefprod
        for r in range(1, P)
    )
    out.append(
        _gated(
            pre + "page-section-containment",
            bool((sec <= pg).all()) and bool((pg <= sec + 1).all()) and strict,
            asserted,
        )
    )
    out.append(
        _gated(
            pre + "section-page-window",
            bool(((pg - sec) >= 0).all()) and bool(((pg - sec) <= 1).all()),
            asserted,
        )
    )

    # stacking order: within a stack, height ascends exactly with the source
    # section, and source pages never descend
    order = np.lexsort((h, addr))
    a_s = addr[order]
    same_addr = a_s[1:] == a_s[:-1]
    sec_s = sec[order]
    pg_s = pg[order]
    out.append(
        _check(
            pre + "stack-section-monotone",
            bool((sec_s[1:][same_addr] > sec_s[:-1][same_addr]).all()),
        )
    )
    out.append(
        _gated(
            pre + "stack-page-monotone",
            bool((pg_s[1:][same_addr] >= pg_s[:-1][same_addr]).all()),
            asserted,
        )
    )

    # page-prefix stacks: counts within 2 of the section-prefix maximum, and
    # everything below the top two levels is already covered by the prefix
    T_both = np.zeros((M, P), dtype=np.int64)
    np.add.at(T_both, (addr, np.maximum(sec, pg) - 1), 1)
    T_both = np.cumsum(T_both, axis=1)
    ok = bool(((T_both >= bracket - 2) & (T_both <= bracket)).all())
    need = np.searchsorted(bracket, h + 2)
    covered = need >= P
    ok2 = bool((pg[~covered] <= need[~covered] + 1).all())
    out.append(_gated(pre + "stack-missing-top", ok and ok2, asserted))

    # top-two-level occupancy of each page prefix exceeds one full level
    hmax = int(bracket[-1])
    Lvl = np.zeros((hmax + 1, P), dtype=np.int64)
    np.add.at(Lvl, (h, pg - 1), 1)
    Lvl = np.cumsum(Lvl, axis=1)
    ok = True
    worst = None
    for r in range(2, P + 1):
        br = int(bracket[r - 1])
        got = int(Lvl[br - 1, r - 1]) + int(Lvl[br, r - 1])
        if got <= M:
            ok = False
            worst = (r, got)
            break
    out.append(
        _gated(
            pre + "stack-top-occupancy",
            ok,
            asserted,
            f"prefix {worst[0]} holds {worst[1]} <= {M}" if worst else "",
        )
    )
    if P >= 1:
        br = int(bracket[0])
        got = int(Lvl[br, 0]) + (int(Lvl[br - 1, 0]) if br >= 2 else 0)
        out.append(_report(pre + "stack-top-occupancy-first", f"{got} vs {M}"))

    # single-page stack slices: at most two entries, at successive heights,
    # within two of the section-prefix maximum
    mask = sec <= pg
    am, pm, hm = addr[mask], pg[mask], h[mask]
    order = np.lexsort((hm, pm, am))
    am, pm, hm = am[order], pm[order], hm[order]
    samekey = (am[1:] == am[:-1]) & (pm[1:] == pm[:-1])
    runstart = np.ones(len(am), dtype=bool)
    runstart[1:] = ~samekey
    runid = np.cumsum(runstart) - 1
    runlen = np.bincount(runid)
    ok = bool((runlen <= 2).all())
    if ok and len(am):
        second = np.flatnonzero(samekey) + 1
        ok = bool((hm[second] - hm[second - 1] == 1).all())
    bracket_of = np.concatenate([[0], bracket])
    ok = (
        ok
        and bool((hm <= bracket_of[pm]).all())
        and bool((hm >= bracket_of[pm] - 2).all())
    )
    out.append(_gated(pre + "page-stack-pair", ok, asserted))

    # same subpage position => nonblank-level ordinals within 3 cyclically
    a_next = spec.dims[j - 2]
    q_sub = (pg_prev - 1) % a_next + 1
    zeros = zeros_per_row(plan)
    mr = np.array([0] + list(zeros))[sec]
    ok = True
    worst = ""
    for q in range(1, a_next + 1):
        sel = q_sub == q
        combos = np.unique(np.stack([nu[sel], mr[sel]], axis=1), axis=0)
        for v1, m1 in combos:
            for v2, m2 in combos:
                d = min(abs(int(v2) - int(v1)), int(m1 - v1 + v2), int(m2 - v2 + v1))
                if d > 3:
                    ok = False
                    worst = f"ordinals {v1},{v2} at distance {d}"
                    break
            if not ok:
                break
        if not ok:
            break
    out.append(_gated(pre + "subpage-level-alignment", ok, asserted, worst))

    # heights across one section or page stay within the stated spreads
    def spreads(groups: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
        hi = np.full(count + 1, -1, dtype=np.int64)
        lo = np.full(count + 1, np.iinfo(np.int64).max, dtype=np.int64)
        np.maximum.at(hi, groups, h)
        np.minimum.at(lo, groups, h)
        return lo[1:], hi[1:]

    lo, hi = spreads(sec, P)
    ok1 = bool((hi - lo <= 1).all())
    ok2 = bool(
        (np.maximum(hi[1:], hi[:-1]) - np.minimum(lo[1:], lo[:-1]) <= 2).all()
    )
    out.append(_gated(pre + "section-height-spread", ok1 and ok2, asserted))
    lo, hi = spreads(pg, P)
    ok1 = bool((hi - lo <= 2).all())
    ok2 = bool(
        (np.maximum(hi[1:], hi[:-1]) - np.minimum(lo[1:], lo[:-1]) <= 3).all()
    )
    out.append(_gated(pre + "page-height-spread", ok1 and ok2, asserted))
    return out


def pipeline_battery(emb: StageEmbedding) -> list[CheckResult]:
    """The library's pipeline battery with transition_checks above in place
    of its array form.  Its results carry gate 0, so the library's gate
    pass keeps the verdicts the threshold above gave them.  The oracle
    reads each stage's source levels itself, not the library's copy."""
    def oracle(stage, _source):
        return transition_checks(stage)

    with mock.patch.object(checks, "_transition_checks", oracle):
        return checks.pipeline_battery(emb)


def brute_force_dilation(spec: GridSpec, d: int) -> bool:
    """Decide by exhaustive search whether the grid embeds in its optimal
    hypercube with dilation at most d.

    Only for tiny instances (at most 12 vertices, optimal dimension at most
    4).  Vertices are placed in decreasing grid-degree order, candidate
    images tried in increasing popcount order, and branches are cut as soon
    as a placed neighbour sits farther than d.  Deterministic.
    """
    if spec.size > 12 or spec.n > 4:
        raise ValueError("instance too large for the brute-force oracle")
    if d < 0:
        return False
    size = spec.size
    neighbours: list[list[int]] = [[] for _ in range(size)]
    for rank in range(size):
        stride = 1
        for x, a in zip(coords_of(spec, rank), spec.dims):
            if x < a:
                neighbours[rank].append(rank + stride)
                neighbours[rank + stride].append(rank)
            stride *= a
    order = sorted(range(size), key=lambda r: (-len(neighbours[r]), r))
    position = {rank: i for i, rank in enumerate(order)}
    placed_neighbours: list[list[int]] = [
        [n for n in neighbours[rank] if position[n] < i]
        for i, rank in enumerate(order)
    ]
    images = sorted(range(1 << spec.n), key=lambda v: (bin(v).count("1"), v))
    assignment = [-1] * size
    used = [False] * (1 << spec.n)

    def place(i: int) -> bool:
        if i == size:
            return True
        rank = order[i]
        for img in images:
            if used[img]:
                continue
            ok = True
            for nb in placed_neighbours[i]:
                if bin(assignment[nb] ^ img).count("1") > d:
                    ok = False
                    break
            if not ok:
                continue
            used[img] = True
            assignment[rank] = img
            if place(i + 1):
                return True
            used[img] = False
            assignment[rank] = -1
        return False

    return place(0)
