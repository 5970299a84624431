"""Consistent roundings: two-way sequence rounding, matrix rounding, F^X.

All arithmetic is exact, so the strict "< 1" rounding contracts are
decidable at the boundary.  The solver takes rationals as integer
numerators over one common denominator (``build_FX`` rounds X[i] / n, so
its numerators are X[i] over n), held in one integer array from there to
the 0/1 result.  The array is int64 when every sum the solver forms
provably fits, and holds Python ints (object dtype), which cannot overflow,
only when such a sum could pass int64; both run the same numpy code.  The two-way rounding solver is a
deterministic unit-capacity flow over prefix windows: the v-th one placed in
each scan order must land where that order's fractional prefix sum crosses
(v-1, v], and a perfect assignment of ones to both orders' windows is exactly
a valid rounding.  The flow is the iterative Dinic of ``flow``; node
numbering and edge order are fixed (ascending node index), so identical
inputs give identical outputs.

Every window holds at most two slots per scan order (the setting of Knuth's
two-way rounding, SIAM J. Discrete Math. 8, 1995), and on that network
Dinic's first phase is one left-to-right greedy over the first-order slots.
The solver computes that phase directly.  When it places every one, the
flow is already maximal and no network is built; otherwise the network is
built, the greedy's paths are pushed into it, and ``max_flow`` runs the
remaining phases from that flow, so the result is the one Dinic gives from
zero.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .flow import FlowNetwork


@dataclass(frozen=True, eq=False)
class BinaryMatrix:
    """An m x n 0/1 matrix, stored once as ``bits``.

    Any 2-d array-like of bits is validated in one numpy pass into a
    read-only m x n int8 array that every reader of the matrix works from.
    """

    bits: np.ndarray
    row_counts: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        try:
            bits = np.array(self.bits, dtype=np.int64)
        except OverflowError:
            raise ValueError("entries must be bits") from None
        except ValueError:
            # only sequences of unequal length leave no 2-d object array
            if np.array(self.bits, dtype=object).ndim < 2:
                raise ValueError("ragged rows") from None
            raise ValueError("entries must be bits") from None
        if bits.size == 0:
            raise ValueError("matrix must be nonempty")
        if bits.ndim != 2 or ((bits != 0) & (bits != 1)).any():
            raise ValueError("entries must be bits")
        bits = bits.astype(np.int8)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "row_counts", tuple(bits.sum(axis=1).tolist()))

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def n(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True)
class RoundingSpec:
    """Row-sum sequence X = (s_1..s_m) with values in {kappa, kappa+1}, and n."""

    X: tuple[int, ...]
    n: int

    def __post_init__(self):
        X = tuple(int(s) for s in self.X)
        object.__setattr__(self, "X", X)
        if not X:
            raise ValueError("X must be nonempty")
        if self.n < 1:
            raise ValueError("column count must be positive")
        if min(X) < 0:
            raise ValueError("row sums must be nonnegative")
        if max(X) - min(X) > 1:
            raise ValueError("row sums must take at most two consecutive values")
        if self.kappa + 1 > self.n:
            raise ValueError(f"kappa+1 = {self.kappa + 1} exceeds n = {self.n}")

    @property
    def m(self) -> int:
        return len(self.X)

    @property
    def kappa(self) -> int:
        return min(self.X)


# ---------------------------------------------------------------------------
# Two-way rounding core
# ---------------------------------------------------------------------------


def _prefix_windows(fracs: np.ndarray, order: np.ndarray, D: int, total_ones: int):
    """Slot window (lo, hi) of every position in the given scan order.

    Slot v (v-th one placed, 1-based) must land at a position k where the
    fractional prefix sum G satisfies G_{k-1} < v <= ceil(G_k); equivalently
    the item at position k serves slots floor(G_{k-1}) < v <= ceil(G_k),
    capped at total_ones (empty when lo > hi).  The fractions are numerators
    over D and the prefix sums exact integers, so lo = G_{k-1} // D + 1 and
    hi = min(ceil(G_k / D), total_ones).  A window holds at most two slots
    because each fraction is below 1.  Returns int64 arrays indexed by
    position.
    """
    scanned = fracs[order]
    sums = np.cumsum(scanned)
    lo = np.empty(len(fracs), dtype=np.int64)
    hi = np.empty(len(fracs), dtype=np.int64)
    lo[order] = (sums - scanned) // D + 1
    hi[order] = np.minimum(-(-sums // D), total_ones)
    return lo, hi


def _first_phase(lo_a, hi_a, lo_b, hi_b, total_ones: int):
    """Dinic's first phase on the rounding network, as one greedy pass.

    The first-order slots v = 1..total_ones are taken in turn.  Slot v goes to the
    lowest-index item whose first-order window holds v and that is neither
    used nor dead; the item takes the first free second-order slot among
    lo_b and lo_b + 1 (up to hi_b), and if both are taken it is dead for the
    rest of the pass.  The phase's level graph is source -> slot -> item in
    -> item out -> slot -> sink with every arc scanned in insertion order, so
    this is the path, in order, that each depth-first search of
    ``FlowNetwork.max_flow`` finds in its first phase.  Windows are
    nondecreasing in item order (both bounds come from prefix sums in
    position order), so the items holding v are one contiguous run and the
    pass is linear.  Returns one row (v, item, w) per path found.
    """
    # flat machine-integer arrays: as fast to read here as lists, and they
    # hold no int objects
    lo_a, hi_a, lo_b, hi_b = (array("q", x.tobytes()) for x in (lo_a, hi_a, lo_b, hi_b))
    count = len(lo_a)
    spent = bytearray(count)  # items used or dead
    taken = bytearray(total_ones + 2)  # second-order slots already filled
    paths = array("q")
    first = 0
    for v in range(1, total_ones + 1):
        while first < count and hi_a[first] < v:
            first += 1
        i = first
        while i < count and lo_a[i] <= v:
            if not spent[i]:
                spent[i] = 1
                w = lo_b[i]
                if taken[w]:
                    w += 1
                if w <= hi_b[i] and not taken[w]:
                    taken[w] = 1
                    paths.extend((v, i, w))
                    break
            i += 1
    return np.frombuffer(paths, dtype=np.int64).reshape(-1, 3)


def _item_windows(fracs: np.ndarray, D: int, order_b: np.ndarray, total_ones: int):
    """The positions with a nonzero fraction (the items), and each item's
    slot windows (lo_a, hi_a) in the array order and (lo_b, hi_b) in
    order_b."""
    items = np.flatnonzero(fracs)
    lo_a, hi_a = _prefix_windows(fracs, np.arange(len(fracs)), D, total_ones)
    lo_b, hi_b = _prefix_windows(fracs, order_b, D, total_ones)
    return items, lo_a[items], hi_a[items], lo_b[items], hi_b[items]


def _network(lo_a, hi_a, lo_b, hi_b, total_ones: int, paths):
    """The slot-assignment network of the item windows, carrying one unit
    along each (v, item, w) row of ``paths``.

    Returns the network, the insertion index of each item's own edge, and
    the sink.
    """
    # Node ids: 0 source, 1..B the slots of the first order, then an in/out
    # pair per item (a position hosts at most one unit, so the pair is joined
    # by a single unit edge), then the slots of the second order, then the
    # sink.  Edges go in source edges, per item (its first-order slots, its
    # own edge, its second-order slots), then sink edges; each item has at
    # most five, laid out in a fixed row and kept where its window has them.
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
    net = FlowNetwork(
        sink + 1,
        np.concatenate([np.zeros(B, dtype=np.int64), tail[keep], b_base + slots]),
        np.concatenate([slots, head[keep], np.full(B, sink, dtype=np.int64)]),
    )
    if len(paths):
        # a path's edges: source, first-order slot, the item's own edge,
        # second-order slot, sink
        v, i, w = paths.T
        net.push(
            np.concatenate(
                [
                    v - 1,
                    row_edge[i, v - lo_a[i]],
                    row_edge[i, 2],
                    row_edge[i, 3 + w - lo_b[i]],
                    net.edges - B + w - 1,
                ]
            )
        )
    return net, row_edge[:, 2].copy(), sink


def _try_round(fracs: np.ndarray, D: int, order_b: np.ndarray, total_ones: int):
    """Place total_ones ones on the nonzero fractions (numerators over D) so
    that the v-th one falls in slot v's window in both scan orders, and
    return them as a 0/1 array, or None when no placement exists.

    The first phase of the flow comes from ``_first_phase``; when it already
    places every one, the flow is maximal and no network is built.
    """
    out = np.zeros(len(fracs), dtype=np.int64)
    if total_ones == 0:
        return out
    items, *windows = _item_windows(fracs, D, order_b, total_ones)
    paths = _first_phase(*windows, total_ones)
    if len(paths) == total_ones:
        used = paths[:, 1]
    else:
        net, own_edge, sink = _network(*windows, total_ones, paths)
        if len(paths) + net.max_flow(0, sink) != total_ones:
            return None
        used = net.residual(own_edge) == 0
    out[items[used]] = 1
    return out


def _two_way_round_core(nums: np.ndarray, D: int, order_b: np.ndarray) -> np.ndarray:
    """Round nonnegative rationals nums[i] / D consistently in two scan orders.

    order_b lists 0-based positions in the second scan order; the first order
    is the array order.  Returns integers x with x_i in {floor, ceil} of
    nums[i] / D and all prefix sums (both orders) within the floor/ceil of
    the exact prefix sums, in the dtype of nums.
    """
    floors, fracs = nums // D, nums % D
    low, rem = divmod(int(fracs.sum()), D)
    for b in [low] if rem == 0 else [low, low + 1]:
        bits = _try_round(fracs, D, order_b, b)
        if bits is not None:
            return floors + bits
    raise RuntimeError(
        "two-way rounding solver found no feasible rounding; this is a bug"
    )


def _solver_array(nums, count: int, D: int) -> np.ndarray:
    """The numerators over D of a solver input of ``count`` entries, as one
    integer array.

    Every entry and every sum the solver forms is below count * D, so the
    array is int64 when that fits and holds Python ints (object dtype)
    otherwise; the solver runs the same numpy code on both.
    """
    return np.array(nums, dtype=np.int64 if count * D < 1 << 63 else object)


# ---------------------------------------------------------------------------
# Matrix rounding
# ---------------------------------------------------------------------------


def _round_matrix_core(body: np.ndarray, D: int) -> BinaryMatrix:
    """Round an m x n array of numerators over D (entries in [0, D]) to
    bits, consistently.

    Every initial row segment, initial column segment, and the grand total of
    the output differ from the exact sums by strictly less than 1.  The
    construction appends a slack column (per-row ceiling defect), a slack row
    (per-column ceiling defect) and a corner entry holding the full grand
    total, two-way rounds the extended matrix in row-major versus column-major
    order, and truncates.  Full rows and columns of the extended matrix then
    have integral sums, which collapses the prefix windows at their ends and
    yields the strict bounds on the truncated part.
    """
    m, n = body.shape
    ext = np.empty((m + 1, n + 1), dtype=body.dtype)
    ext[:m, :n] = body
    ext[:m, n] = -body.sum(axis=1) % D  # ceil(row sum) - row sum, over D
    ext[m, :n] = -body.sum(axis=0) % D
    ext[m, n] = body.sum()
    order_b = np.arange(ext.size).reshape(m + 1, n + 1).T.ravel()
    rounded = _two_way_round_core(ext.ravel(), D, order_b)
    return BinaryMatrix(rounded.reshape(m + 1, n + 1)[:m, :n])


def build_FX(spec: RoundingSpec) -> BinaryMatrix:
    """Designation matrix for near-constant row sums X: round T^X = X[i]/n.

    Row i of the output sums to exactly X[i]; initial column sums of equal
    depth differ by at most 1 and initial row sums of equal width by at most
    2.  The all-zero X short-circuits to the zero matrix without the solver.
    Every entry is X[i]/n, so the entries go to the solver as numerators X[i]
    over n.
    """
    m, n = spec.m, spec.n
    if all(s == 0 for s in spec.X):
        return BinaryMatrix(np.zeros((m, n), dtype=np.int8))
    X = _solver_array(spec.X, (m + 1) * (n + 1), n)
    F = _round_matrix_core(np.repeat(X, n).reshape(m, n), n)
    if F.row_counts != spec.X:
        raise RuntimeError("row sum drifted from its exact target; bug")
    return F


def balance_violations(F: BinaryMatrix, X) -> list[str]:
    """Check the balance contract of a designation matrix against row sums X.

    Requires: row r of F sums to exactly X[r]; initial column segments of
    equal depth have counts within 1 of each other; initial row segments of
    equal width have counts within 2.  Returns violation strings (empty list
    means F passes).
    """
    X = tuple(int(s) for s in X)
    if len(X) != F.m:
        raise ValueError("row-sum sequence length disagrees with matrix")
    out = []
    for i, (got, want) in enumerate(zip(F.row_counts, X), start=1):
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


# ---------------------------------------------------------------------------
# Seed files: concatenated matrix dumps, a header "m n" then '0'/'1' rows
# ---------------------------------------------------------------------------


def _parse_one(lines: list[str], at: int) -> tuple[BinaryMatrix, int]:
    header = lines[at].split()
    if len(header) != 2:
        raise ValueError(f"bad matrix header: {lines[at]!r}")
    m, n = int(header[0]), int(header[1])
    rows = []
    for i in range(m):
        text = lines[at + 1 + i].strip()
        if len(text) != n or set(text) - {"0", "1"}:
            raise ValueError(f"bad matrix row: {text!r}")
        rows.append(tuple(int(ch) for ch in text))
    return BinaryMatrix(tuple(rows)), at + 1 + m


def parse_matrices(text: str) -> list[BinaryMatrix]:
    """Parse a concatenation of matrix dumps (e.g. a CLI seed file)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    out = []
    at = 0
    while at < len(lines):
        mat, at = _parse_one(lines, at)
        out.append(mat)
    return out
