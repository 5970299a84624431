"""Consistent roundings: two-way sequence rounding, matrix rounding, F^X.

All arithmetic is exact, so the strict "< 1" rounding contracts are
decidable at the boundary.  The solver takes rationals as integer
numerators over one common denominator (``build_FX`` rounds X[i] / n, so
its numerators are X[i] over n), held in one integer array from there to
the 0/1 result.  The package's inputs are int64: by the grid's 2^31 vertex
bound every sum the solver forms for ``build_FX`` fits (see there).  The
core is dtype-generic, so an integer array of any exact dtype runs the
same numpy code.

The two-way rounding solver is a deterministic unit-capacity maximum flow
over prefix windows: the v-th one placed in each scan order must land where
that order's fractional prefix sum crosses (v-1, v], and a perfect
assignment of ones to both orders' windows is exactly a valid rounding.
Every window holds at most two slots per scan order (the setting of Knuth's
two-way rounding, SIAM J. Discrete Math. 8, 1995).  The solver gives the
flow Dinic's algorithm finds from zero on the slot network, with node
numbering and edge order fixed, so identical inputs give identical outputs.
One call path computes it: ``build_FX`` -> ``_round_matrix_core`` (the
extended matrix, its items and their windows from ``_prefix_windows``) ->
``_assign_slots`` -> ``_first_phase``, the greedy that is Dinic's first
phase, and, when it falls short, ``flow.max_flow`` on the slot network as
an edge list, from the greedy's paths.  ``tests/oracles.py`` builds the
same network, edge for edge, on its own recursive ``Dinic`` and checks
that the two give every item the same slots.

``build_FX`` rounds the constant-row matrix T^X = X[i] / n.  It cuts the
rows after every prefix of X whose sum is a multiple of n; at such a cut
the prefix sums in both scan orders are integers, so the slot network
splits into one independent part per row block, and Dinic's algorithm
gives each part the flow it would give that part alone.  Equal blocks
(equal X) therefore round equally: one solver call rounds the distinct
blocks, stacked in first-occurrence order, and the rows are copied back.
Stage 2 of 3^12 has 59,049 rows in 14,763 blocks, of which 4 are
distinct, 16 rows in all.  The row sums, the block keys and the matrix are
arrays from the spec to the balance check, with no Python object per row
or block of a large plan.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .flow import max_flow

@dataclass(frozen=True, eq=False)
class BinaryMatrix:
    """An m x n 0/1 matrix, stored once as ``bits``.

    Any 2-d array-like of bits is validated into a read-only m x n int8
    array that every reader of the matrix works from.  A numpy array of
    one-byte integers or bools is copied and checked byte by byte; anything
    else is read as int64 first.
    """

    bits: np.ndarray

    def __post_init__(self):
        bits = self.bits
        if not (isinstance(bits, np.ndarray) and bits.dtype.kind in "biu" and bits.itemsize == 1):
            try:
                bits = np.array(bits, dtype=np.int64)
            except OverflowError:
                raise ValueError("entries must be bits") from None
            except ValueError:
                # only sequences of unequal length leave no 2-d object array
                if np.array(self.bits, dtype=object).ndim < 2:
                    raise ValueError("ragged rows") from None
                raise ValueError("entries must be bits") from None
            if ((bits != 0) & (bits != 1)).any():
                raise ValueError("entries must be bits")
        # a copy, read as bytes: an entry is a bit when its byte is 0 or 1
        bits = bits.astype(np.int8)
        if bits.size == 0:
            raise ValueError("matrix must be nonempty")
        if bits.ndim != 2 or (bits.view(np.uint8) > 1).any():
            raise ValueError("entries must be bits")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def m(self) -> int:
        return self.bits.shape[0]

    @property
    def n(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True, eq=False)
class RoundingSpec:
    """Row-sum sequence X = (s_1..s_m) with values in {kappa, kappa+1}, and n.

    X is held as one read-only int64 array, copied from any sequence of
    integers.
    """

    X: np.ndarray
    n: int

    def __post_init__(self):
        X = np.array(self.X, dtype=np.int64)
        X.flags.writeable = False
        object.__setattr__(self, "X", X)
        if X.ndim != 1:
            raise ValueError("X must be a sequence of row sums")
        if not len(X):
            raise ValueError("X must be nonempty")
        if self.n < 1:
            raise ValueError("column count must be positive")
        kappa = self.kappa
        if kappa < 0:
            raise ValueError("row sums must be nonnegative")
        if X.max() - kappa > 1:
            raise ValueError("row sums must take at most two consecutive values")
        if kappa + 1 > self.n:
            raise ValueError(f"kappa+1 = {kappa + 1} exceeds n = {self.n}")

    @property
    def m(self) -> int:
        return len(self.X)

    @property
    def kappa(self) -> int:
        return int(self.X.min())


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
    because each fraction is below 1.  Returns the rows lo and hi of one
    2 x len(fracs) int64 array, indexed by position.
    """
    scanned = fracs[order]
    sums = np.cumsum(scanned)
    window = np.empty((2, len(fracs)), dtype=np.int64)
    window[0, order] = (sums - scanned) // D + 1
    window[1, order] = np.minimum(-(-sums // D), total_ones)
    return window


def _first_phase(lo_a, hi_a, lo_b, hi_b, total_ones: int):
    """Dinic's first phase on the rounding network, as one greedy pass.

    The first-order slots v = 1..total_ones are taken in turn.  Slot v goes to the
    lowest-index item whose first-order window holds v and that is neither
    used nor dead; the item takes the first free second-order slot among
    lo_b and lo_b + 1 (up to hi_b), and if both are taken it is dead for the
    rest of the pass.  The phase's level graph is source -> slot -> item in
    -> item out -> slot -> sink with every arc scanned in insertion order, so
    this is the path, in order, that each depth-first search of Dinic's
    algorithm (``flow.max_flow``, ``oracles.Dinic``) finds in its first
    phase.  Windows are nondecreasing in item order (both bounds come from
    prefix sums in position order), so the items holding v are one
    contiguous run and the pass is linear.  Returns one row (v, item, w) per
    path found.
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


def _assign_slots(lo_a, hi_a, lo_b, hi_b, total_ones: int):
    """Each item's first-order and second-order slot (0 when the item holds
    no one) in the maximum flow Dinic's algorithm finds from zero on the
    slot network of ``slot_network`` in tests/oracles.py, node for node and
    edge for edge.  Its nodes are the source 0, the first-order slots a_v =
    v, an in/out pair per item and the second-order slots b_w, then the
    sink; its edges are source -> a_v, then a row per item (a_lo -> in,
    a_lo + 1 -> in, in -> out, out -> b_lo, out -> b_lo + 1, where the
    windows have them), then b_w -> sink.  The greedy ``_first_phase``
    marks the edges its paths carry; when it places fewer than total_ones
    ones, ``flow.max_flow`` runs the later phases from that flow.
    """
    count, B = len(lo_a), total_ones
    v, i, w = _first_phase(lo_a, hi_a, lo_b, hi_b, B).T
    # which of each item's five row edges carry flow
    row = np.zeros((count, 5), dtype=bool)
    row[i, v - lo_a[i]] = row[i, 2] = row[i, 3 + w - lo_b[i]] = True
    if len(v) < B:
        own = np.ones(count, dtype=bool)
        keep = np.stack([hi_a >= lo_a, hi_a > lo_a, own, hi_b >= lo_b, hi_b > lo_b], 1)
        held = np.zeros((2, B), dtype=bool)  # the slots of each order held
        held[0, v - 1] = held[1, w - 1] = True
        b = B + 1 + 2 * count  # b_w is node b + w
        sink = b + B + 1
        a = np.arange(1, B + 1)
        u = np.arange(B + 1, b, 2)  # in_i; out_i is in_i + 1
        # the edge lists are built in the call, which then holds them alone
        carrying = max_flow(
            sink + 1,
            _edges(np.zeros(B, int), [lo_a, lo_a + 1, u, u + 1, u + 1], keep, b + a),
            _edges(a, [u, u, u + 1, b + lo_b, b + lo_b + 1], keep, np.full(B, sink)),
            sink,
            _edges(held[0], row.T, keep, held[1]),
        )
        row[keep] = carrying[B:-B]
    slot_a = np.where(row[:, 0], lo_a, np.where(row[:, 1], lo_a + 1, 0))
    slot_b = np.where(row[:, 3], lo_b, np.where(row[:, 4], lo_b + 1, 0))
    return slot_a, slot_b


def _edges(source, row, keep, sink) -> np.ndarray:
    """One entry per edge of the slot network: the source edges', then each
    item's five row entries (``row`` by column) where ``keep`` has the edge,
    then the sink edges'."""
    return np.concatenate([source, np.stack(row, axis=1)[keep], sink])


# ---------------------------------------------------------------------------
# Matrix rounding
# ---------------------------------------------------------------------------


def _round_matrix_core(body: np.ndarray, D: int) -> np.ndarray:
    """Round an m x n array of numerators over D (entries in [0, D]) to an
    m x n array of bits, consistently.

    Every initial row segment, initial column segment, and the grand total of
    the output differ from the exact sums by strictly less than 1.  The
    construction appends a slack column (per-row ceiling defect), a slack row
    (per-column ceiling defect) and a corner entry holding the full grand
    total, two-way rounds the extended matrix in row-major versus column-major
    order, and truncates.  Full rows and columns of the extended matrix then
    have integral sums, which collapses the prefix windows at their ends and
    yields the strict bounds on the truncated part.

    The two-way rounding keeps each entry's floor and places the ones on
    the nonzero fractions (the items) by their slot windows.  Modulo D the
    slack column sums to -S, the slack row to -S and the corner to the body
    total S, so the fractions sum to exactly total_ones * D, a perfect
    assignment exists, and one that falls short is a bug.
    """
    m, n = body.shape
    ext = np.empty((m + 1, n + 1), dtype=body.dtype)
    ext[:m, :n] = body
    ext[:m, n] = -body.sum(axis=1) % D  # ceil(row sum) - row sum, over D
    ext[m, :n] = -body.sum(axis=0) % D
    ext[m, n] = body.sum()
    # floors in place; // and %, as np.divmod rejects object arrays
    rounded = ext.ravel()
    fracs = rounded % D
    rounded //= D
    total_ones = int(fracs.sum()) // D
    items = np.flatnonzero(fracs)
    scans = np.arange(ext.size).reshape(m + 1, n + 1)
    lo_a, hi_a = _prefix_windows(fracs, scans.ravel(), D, total_ones)[:, items]
    lo_b, hi_b = _prefix_windows(fracs, scans.T.ravel(), D, total_ones)[:, items]
    del scans, fracs  # only the item windows go on to the flow
    slot_a, _ = _assign_slots(lo_a, hi_a, lo_b, hi_b, total_ones)
    ones = items[slot_a > 0]
    if len(ones) != total_ones:
        raise RuntimeError(
            "two-way rounding solver found no feasible rounding; this is a bug"
        )
    rounded[ones] += 1
    return ext[:m, :n]


def build_FX(spec: RoundingSpec) -> BinaryMatrix:
    """Designation matrix for near-constant row sums X: round T^X = X[i]/n.

    Row i of the output sums to exactly X[i], the integer its sum rounds
    within 1 of (`build_blank_plan` checks the balance contract on every
    plan); initial column sums of equal depth differ by at most 1 and
    initial row sums of equal width by at most 2.  The all-zero X
    short-circuits to the zero matrix without the solver.
    Every entry is X[i]/n, so the entries go to the solver as numerators X[i]
    over n.

    The matrix is cut into row blocks, and only its distinct blocks are
    rounded.  A cut falls after every row r with X[1] + ... + X[r] a
    multiple of n, and after the last row.  At a cut the row-major prefix
    sum of the extended matrix is an integer (row t of T^X sums to X[t] and
    its slack entry is 0), and so is every body column's prefix sum (the
    same sum over n).  So in neither scan order does an item's slot window
    share a slot with a window across a cut, and the slot network falls
    apart into one part per block, joined only at the source and the sink;
    the slack row joins the last block, the only one whose sum can be off a
    multiple of n.  Dinic's levels, the admissible-arc pruning and the
    depth-first search (source arcs in slot order) act on each part exactly
    as on that part alone: a phase augments every part whose shortest path
    has the phase's length, by the blocking flow that part alone would get,
    and no other part.  So the flow on the matrix is the concatenation of
    its blocks' flows, and equal blocks (equal X) get equal flows.  The
    distinct blocks, stacked in first-occurrence order, form a matrix with
    the same cuts whose parts are those of the distinct blocks, in order;
    the last block stays last, since when its sum is off a multiple of n it
    occurs once, and when it is not the slack row holds no item.  One
    ``_round_matrix_core`` call rounds that stack, and its int8 rows go
    back through a row map (the stack is the matrix when no block repeats).
    ``_block_stack`` finds both with no Python object per block of a large
    matrix: a matrix of at most LOOPED_ROWS rows is cut and keyed in one
    Python loop over its rows; a larger one is cut by one cumulative sum,
    each block keyed by one int64 (`_keyed_stack`), and one np.unique over
    the keys finds the first block of each.

    Numerators are int64: for an input of count = (rows + 1)(n + 1)
    entries over D = n, every entry and sum the solver forms is below
    count * D.  Stage plans have n = w < 2 a_i and rows <= P_i, 2 <= i < k,
    so P_i w < 2 P_{i-1} <= |G|, w < |G| / 2 (a_1 a_i a_k <= |G|) and
    count * D < (|G| + w)(w + 1) < (3/4)|G|^2 + 2|G| < 2^62 (|G| <= 2^31).
    """
    m, n = spec.m, spec.n
    if not spec.X.any():
        return BinaryMatrix(np.zeros((m, n), dtype=np.int8))
    X, row_map = _block_stack(spec.X, n)
    bits = _round_matrix_core(np.repeat(X, n).reshape(len(X), n), n).astype(np.int8)
    # np.take copies whole rows, where fancy indexing copies entry by entry
    return BinaryMatrix(np.take(bits, row_map, axis=0) if len(X) < m else bits)


# A plan of at most this many rows stacks its blocks in a Python loop, a
# larger one in arrays: the arrays cost about 40 us a plan whatever its size,
# the loop 0.15 to 0.35 us a row (the fewer columns, the more blocks), and the
# two meet between about 160 rows (n = 2) and 300 (n = 128)
LOOPED_ROWS = 256
# a block of at most this many rows is keyed by one int64: its bits X - kappa
# from bit 0 up, and its length from this bit up
PACKED_ROWS = 57


def _block_stack(X: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct row blocks of the row sums X, stacked in first-occurrence
    order (the stack's X), and the row map: row r of the matrix is row
    row_map[r] of the stack.  A block ends after every row whose prefix sum
    is a multiple of n, and after the last row (see `build_FX`)."""
    if len(X) <= LOOPED_ROWS:
        return _looped_stack(X.tolist(), n)
    return _keyed_stack(X, n)


def _looped_stack(X: list[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """`_block_stack` one row at a time, each block keyed by its X."""
    stack: list[int] = []
    first: dict[tuple[int, ...], int] = {}  # a block's first row in the stack
    row_map: list[int] = []
    start = total = 0
    for end, x in enumerate(X, start=1):
        total += x
        if total % n == 0 or end == len(X):
            block = tuple(X[start:end])
            at = first.setdefault(block, len(stack))
            if at == len(stack):
                stack += block
            row_map += range(at, at + end - start)
            start = end
    return np.array(stack, dtype=np.int64), np.array(row_map)


def _keyed_stack(X: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`_block_stack` in arrays: each block gets an int64 key, equal for
    blocks of equal X and distinct otherwise, and one np.unique finds each
    key's first block.  A block of at most PACKED_ROWS rows is keyed by its
    bits and length; a longer one by minus one minus the first block with
    its X, found in a dict keyed by the bytes of that X (fewer than
    len(X) / PACKED_ROWS blocks are that long)."""
    cut = np.cumsum(X) % n == 0
    cut[-1] = True
    ends = np.flatnonzero(cut) + 1
    lengths = np.diff(ends, prepend=0)
    starts = ends - lengths
    # each row's bit at its place in its block; a longer block's packed key
    # is garbage (a shift past bit 63 reads 0, sums wrap) and replaced
    place = np.arange(len(X)) - np.repeat(starts, lengths)
    key = np.add.reduceat((X - X.min()) << place, starts)
    key += lengths << PACKED_ROWS
    long = np.flatnonzero(lengths > PACKED_ROWS)
    seen: dict[bytes, int] = {}  # a long block's first block with its X
    for b, lo, hi in zip(long.tolist(), starts[long].tolist(), ends[long].tolist()):
        key[b] = -1 - seen.setdefault(X[lo:hi].tobytes(), b)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    new = np.zeros(len(key), dtype=bool)
    new[first] = True
    # a first block's first row in the stack: the rows of the first blocks
    # before it
    size = lengths * new
    at = np.cumsum(size) - size
    row_map = np.repeat(at[first][inverse] - starts, lengths)
    row_map += np.arange(len(X))
    return X[np.repeat(new, lengths)], row_map


def balance_violations(F: BinaryMatrix, X) -> list[str]:
    """Check the balance contract of a designation matrix against row sums X.

    Requires: row r of F sums to exactly X[r]; initial column segments of
    equal depth have counts within 1 of each other; initial row segments of
    equal width have counts within 2.  Returns violation strings (empty list
    means F passes).

    F is laid out short axis first (its n x m transpose when n <= m), so
    numpy pays its cost per row once per entry of the short axis, never per
    entry of the long one: the prefixes along the long axis are one
    cumulative sum, those along the short axis are added row after row,
    and every spread reduces whole rows.
    """
    X = np.asarray(X, dtype=np.int64)
    if len(X) != F.m:
        raise ValueError("row-sum sequence length disagrees with matrix")
    # F's columns run along axis `down` of the laid-out array, its rows along
    # axis `across`
    if F.n <= F.m:
        bits, down, across = F.bits.T.copy(), 1, 0
    else:
        bits, down, across = F.bits, 0, 1
    depth = _prefixes(bits, down)
    depth_spread = depth.max(axis=across) - depth.min(axis=across)
    del depth
    width = _prefixes(bits, across)
    width_spread = width.max(axis=down) - width.min(axis=down)
    sums = width.take(-1, axis=across)
    # numpy's methods, not its functions: no Python wrapper per call
    out = [
        f"row {i + 1} sums to {sums[i]}, expected {X[i]}"
        for i in (sums != X).nonzero()[0].tolist()
    ]
    for d in (depth_spread > 1).nonzero()[0].tolist():
        out.append(f"column prefixes of depth {d + 1} spread {depth_spread[d]} > 1")
    for h in (width_spread > 2).nonzero()[0].tolist():
        out.append(f"row prefixes of width {h + 1} spread {width_spread[h]} > 2")
    return out


def _prefixes(bits: np.ndarray, axis: int) -> np.ndarray:
    """The int32 prefix sums of a short-by-long array of bits along `axis`:
    one np.cumsum along the long axis 1, one add per row along axis 0."""
    if axis == 1:
        return bits.cumsum(axis=1, dtype=np.int32)
    sums = bits.astype(np.int32)
    for row in range(1, len(sums)):
        sums[row] += sums[row - 1]
    return sums


# ---------------------------------------------------------------------------
# Seed files: concatenated matrix dumps, a header "m n" then '0'/'1' rows
# ---------------------------------------------------------------------------


def _parse_one(lines: list[str], at: int) -> tuple[BinaryMatrix, int]:
    header = lines[at].split()
    if len(header) != 2:
        raise ValueError(f"bad matrix header: {lines[at]!r}")
    m, n = int(header[0]), int(header[1])
    if at + 1 + m > len(lines):
        raise ValueError(f"matrix of {m} rows ends after {len(lines) - at - 1}")
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
