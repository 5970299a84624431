"""Consistent roundings: two-way sequence rounding, matrix rounding, F^X.

All arithmetic is exact, so the strict "< 1" rounding contracts are
decidable at the boundary.  The public functions take exact rationals
(fractions.Fraction) and convert them once to integer numerators over one
common denominator, held in one integer array from there to the 0/1 result.
The array is int64 when every sum the solver forms provably fits, and holds
Python ints (object dtype), which cannot overflow, only when such a sum could
pass int64; both run the same numpy code.  The two-way rounding solver is a
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
from fractions import Fraction
from math import lcm

import numpy as np

from .flow import FlowNetwork


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass exact rationals")
    return Fraction(x)


@dataclass(frozen=True)
class RealSequence:
    """A sequence of exact rationals in [0, 1]."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(_frac(v) for v in self.values)
        for v in vals:
            if not 0 <= v <= 1:
                raise ValueError(f"value {v} outside [0, 1]")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True, eq=False)
class BinaryMatrix:
    """An m x n 0/1 matrix, stored once as ``bits``.

    Any 2-d array-like of bits is validated in one numpy pass into a
    read-only m x n int8 array that every reader of the matrix works from.
    Two matrices are equal when they have the same shape and entries.
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

    def __eq__(self, other):
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def n(self) -> int:
        return self.bits.shape[1]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The entries as tuples of Python ints, one per row."""
        return tuple(map(tuple, self.bits.tolist()))

    def entry(self, r: int, c: int) -> int:
        """1-based accessor."""
        return int(self.bits[r - 1, c - 1])

    def row(self, r: int) -> tuple[int, ...]:
        return tuple(self.bits[r - 1].tolist())

    def zeros_in_row(self, r: int) -> int:
        return self.n - self.row_counts[r - 1]

    def zero_columns(self, r: int) -> tuple[int, ...]:
        """1-based column indices of the zeros in row r, left to right."""
        return tuple((np.flatnonzero(self.bits[r - 1] == 0) + 1).tolist())


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

    @property
    def supports_window_queries(self) -> bool:
        """Whether the zero-window bounds apply (kappa+1 <= n/2)."""
        return 2 * (self.kappa + 1) <= self.n


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


def _over_common_denominator(values: list[Fraction]) -> tuple[list[int], int]:
    """Numerators of the values over D = lcm of their denominators, and D."""
    D = lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


def _solver_array(nums, count: int, D: int) -> np.ndarray:
    """The numerators over D of a solver input of ``count`` entries, as one
    integer array.

    Every entry and every sum the solver forms is below count * D, so the
    array is int64 when that fits and holds Python ints (object dtype)
    otherwise; the solver runs the same numpy code on both.
    """
    return np.array(nums, dtype=np.int64 if count * D < 1 << 63 else object)


def two_way_round(seq, perm) -> list[int]:
    """Round each value to floor or ceil, consistently in two prefix orders.

    `seq` is a RealSequence (or iterable of exact rationals in [0, 1]);
    `perm` is a bijection on 1..n giving the second scan order.  Every prefix
    sum of the output, in the original order and in the permuted order, stays
    within the floor/ceil of the corresponding exact prefix sum.  Existence is
    guaranteed; an infeasible flow indicates an internal bug and raises.
    """
    if not isinstance(seq, RealSequence):
        seq = RealSequence(tuple(seq))
    n = len(seq)
    order = np.fromiter(perm, dtype=np.int64) - 1
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("perm must be a bijection on 1..n")
    nums, D = _over_common_denominator(list(seq.values))
    return _two_way_round_core(_solver_array(nums, n, D), D, order).tolist()


# ---------------------------------------------------------------------------
# Matrix rounding
# ---------------------------------------------------------------------------


def round_matrix(T) -> BinaryMatrix:
    """Round a rational matrix with entries in [0,1] to bits, consistently.

    Every initial row segment, initial column segment, and the grand total of
    the output differ from the exact sums by strictly less than 1.  The
    construction appends a slack column (per-row ceiling defect), a slack row
    (per-column ceiling defect) and a corner entry holding the full grand
    total, two-way rounds the extended matrix in row-major versus column-major
    order, and truncates.  Full rows and columns of the extended matrix then
    have integral sums, which collapses the prefix windows at their ends and
    yields the strict bounds on the truncated part.
    """
    rows = [[_frac(x) for x in row] for row in T]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    m, n = len(rows), len(rows[0])
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged rows")
        for x in row:
            if not 0 <= x <= 1:
                raise ValueError(f"entry {x} outside [0, 1]")
    nums, D = _over_common_denominator([x for row in rows for x in row])
    body = _solver_array(nums, (m + 1) * (n + 1), D).reshape(m, n)
    return _round_matrix_core(body, D)


def _round_matrix_core(body: np.ndarray, D: int) -> BinaryMatrix:
    """round_matrix on an m x n array of numerators over D."""
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


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


def matrix_rounding_violations(T, F: BinaryMatrix) -> list[str]:
    """Check that F is a consistent rounding of T (strict error bounds).

    Every initial row segment, every initial column segment, and the grand
    total of F must differ from the corresponding exact sum of T by strictly
    less than 1.  Arithmetic is exact, so equality with 1 is a reported
    violation, not a tolerance call.  Returns human-readable violation
    strings; an empty list means F passes.
    """
    rows = [[_frac(x) for x in row] for row in T]
    if len(rows) != F.m or len(rows[0]) != F.n:
        raise ValueError("matrix shapes disagree")
    out = []
    for i, trow in enumerate(rows, start=1):
        diff = Fraction(0)
        for b, (t, f) in enumerate(zip(trow, F.row(i)), start=1):
            diff += t - f
            if not -1 < diff < 1:
                out.append(f"row {i} prefix {b}: discrepancy {diff}")
    for j in range(1, F.n + 1):
        diff = Fraction(0)
        for b in range(1, F.m + 1):
            diff += rows[b - 1][j - 1] - F.entry(b, j)
            if not -1 < diff < 1:
                out.append(f"column {j} prefix {b}: discrepancy {diff}")
    grand = sum((x for trow in rows for x in trow), Fraction(0)) - sum(
        F.row_counts
    )
    if not -1 < grand < 1:
        out.append(f"grand total: discrepancy {grand}")
    return out


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
    if not spec.supports_window_queries:
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
    qmax = F.n - min(F.row_counts)
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


# ---------------------------------------------------------------------------
# Dump format
# ---------------------------------------------------------------------------


def dump_matrix(F: BinaryMatrix) -> str:
    """Render as the matrix dump format: header "m n", then '0'/'1' rows."""
    body = np.full((F.m, F.n + 1), ord("\n"), dtype=np.uint8)
    body[:, :-1] = F.bits + ord("0")
    return f"{F.m} {F.n}\n" + body.tobytes().decode("ascii")


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


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse a single matrix dump."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    mat, used = _parse_one(lines, 0)
    if used != len(lines):
        raise ValueError("trailing content after matrix")
    return mat


def parse_matrices(text: str) -> list[BinaryMatrix]:
    """Parse a concatenation of matrix dumps (e.g. a CLI seed file)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    out = []
    at = 0
    while at < len(lines):
        mat, at = _parse_one(lines, at)
        out.append(mat)
    return out
