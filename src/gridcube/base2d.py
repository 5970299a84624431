"""The base map: circulant column counts and the column-filling embedding.

Chains of the grid (rows of the folded two-dimensional layout) are poured
into columns of the box {1..2^{e_1}} x {1..m}.  A circulant 0/1 matrix decides
which chains contribute two points to which columns, spreading the surplus
2^{e_1} - a_1 evenly; the filling loop below is the literal stateful
construction, with a closed-form prefix-count formula kept alongside as a
cross-check oracle.  The closed form is exact integer floor division, so it
is evaluated for every (chain, column prefix) at once as one array and
asserted equal to the loop's counts at build time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor

import numpy as np

from .grids import GridSpec, kappa, level_budget


@dataclass(frozen=True)
class CirculantR:
    """Circulant 0/1 matrix over chains: R(i,j) = first_column[(i-j) mod a1]."""

    a1: int
    e1: int
    first_column: tuple[int, ...]

    @property
    def q(self) -> Fraction:
        """Surplus density (2^{e1} - a1) / a1."""
        return Fraction((1 << self.e1) - self.a1, self.a1)

    def R(self, i: int, j: int) -> int:
        """1-based entry; j may exceed a1 (the matrix extends periodically)."""
        return self.first_column[(i - j) % self.a1]


def build_R(a1: int, e1: int) -> CirculantR:
    """First column r_i = floor(q i) - floor(q (i-1)) with q the surplus density.

    Requires e1 consistent with a1 (2^{e1-1} < a1 <= 2^{e1}); the column sums
    to 2^{e1} - a1 and any t cyclically consecutive entries sum to floor(q t)
    or floor(q t) + 1.
    """
    if a1 < 2:
        raise ValueError("chain count must be at least 2")
    if not (1 << (e1 - 1)) < a1 <= (1 << e1):
        raise ValueError(f"exponent {e1} inconsistent with chain count {a1}")
    q = Fraction((1 << e1) - a1, a1)
    col = tuple(floor(q * i) - floor(q * (i - 1)) for i in range(1, a1 + 1))
    if sum(col) != (1 << e1) - a1:
        raise AssertionError("column sum defect in circulant construction")
    return CirculantR(a1, e1, col)


def consecutive_sum(R: CirculantR, t: int) -> int:
    """S_t = floor(q t); asserts every cyclic t-run sums to S_t or S_t + 1."""
    if t < 1:
        raise ValueError("run length must be positive")
    s_t = floor(R.q * t)
    full, rem = divmod(t, R.a1)
    base = full * sum(R.first_column)
    for start in range(R.a1):
        run = base + sum(
            R.first_column[(start + p) % R.a1] for p in range(rem)
        )
        if run not in (s_t, s_t + 1):
            raise AssertionError(
                f"{t}-run starting at {start + 1} sums to {run}, "
                f"outside {{{s_t}, {s_t + 1}}}"
            )
    return s_t


def chain_prefix_count(R: CirculantR, i, j):
    """Closed form for N_ij, the points of chain i in columns 1..j.

    N_ij = j + floor(q i) - floor(q (i-j)) with q = p / a1, p = 2^{e1} - a1,
    evaluated as j + (p i) // a1 - (p (i-j)) // a1: floor division is exact
    for negative arguments in Python and in numpy.  ``i`` and ``j`` may be
    ints or numpy integer arrays (broadcast against each other).  Used as an
    independent oracle against the filling loop.
    """
    if np.any(np.asarray(j) < 0):
        raise ValueError("column prefix must be nonnegative")
    p = (1 << R.e1) - R.a1
    return j + (p * i) // R.a1 - (p * (i - j)) // R.a1


@dataclass(frozen=True)
class Embedding2D:
    """The filled box: chains 1..a1 poured into m columns of height 2^{e1}.

    `chains[i-1][p-1]` is the (row, col) image of the p-th point of chain i;
    `columns[j-1][row-1]` inverts it.  When a spec is attached, the grid's
    own vertices map through their chain fold (kappa).
    """

    R: CirculantR
    m: int
    chains: tuple[tuple[tuple[int, int], ...], ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]
    spec: GridSpec | None = None
    prefix_counts: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        counts = []
        for chain in self.chains:
            row = [0]
            seen = 0
            at = 1
            for _, col in chain:
                while at < col:
                    row.append(seen)
                    at += 1
                seen += 1
            while at <= self.m:
                row.append(seen)
                at += 1
            counts.append(tuple(row))
        object.__setattr__(self, "prefix_counts", tuple(counts))

    @property
    def a1(self) -> int:
        return self.R.a1

    @property
    def height(self) -> int:
        return 1 << self.R.e1

    def f(self, i: int, p: int) -> tuple[int, int]:
        """Image of the p-th point of chain i in the extended domain."""
        return self.chains[i - 1][p - 1]

    def chain_length(self, i: int) -> int:
        return len(self.chains[i - 1])

    def N(self, i: int, j: int) -> int:
        """Points of chain i placed in columns 1..j (N_ij)."""
        return self.prefix_counts[i - 1][j]

    def column(self, j: int) -> tuple[tuple[int, int], ...]:
        """Column j bottom-up: (chain, position) per row."""
        return self.columns[j - 1]

    def f2(self, v) -> tuple[int, int]:
        """Image of a grid vertex: fold onto its chain, then map the chain."""
        if self.spec is None:
            raise ValueError("no grid attached to this embedding")
        x1, y = kappa(v, self.spec)
        return self.chains[x1 - 1][y - 1]


def build_f2(spec: GridSpec, columns: int | None = None) -> Embedding2D:
    """Column-filling embedding restricted to the given grid.

    `columns` (default u_2) may exceed u_2 so extended-domain properties can
    be exercised; it may not be smaller.  The grid's chains must fit inside
    the filled box, which the balance properties guarantee at m = u_2.
    """
    u2 = level_budget(spec, 2)
    m = u2 if columns is None else columns
    if m < u2:
        raise ValueError(f"need at least u_2 = {u2} columns, got {m}")
    emb = fill_columns(spec.dims[0], spec.exponents[1], m, spec=spec)
    per_chain = spec.page_count(1)
    for i in range(1, emb.a1 + 1):
        if emb.chain_length(i) < per_chain:
            raise AssertionError(
                f"chain {i} holds {emb.chain_length(i)} points, "
                f"fewer than the grid's {per_chain}"
            )
    return emb


def fill_columns(a1: int, e1: int, m: int, spec: GridSpec | None = None) -> Embedding2D:
    """The literal filling loop over columns j = 1..m.

    Scanning chains in order, chain i contributes 1 + R(i,j) points to column
    j; a double contribution is placed descending (the later chain position
    below the earlier) exactly when j is even, ascending when j is odd.
    """
    R = build_R(a1, e1)
    fc = R.first_column
    height = 1 << e1
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
    emb = Embedding2D(
        R,
        m,
        tuple(tuple(ch) for ch in chains),
        tuple(tuple(c) for c in cols),
        spec=spec,
    )
    closed = chain_prefix_count(
        R, np.arange(1, a1 + 1)[:, None], np.arange(m + 1)[None, :]
    )
    bad = np.argwhere(np.array(emb.prefix_counts, dtype=np.int64) != closed)
    if len(bad):
        i, j = bad[0]
        raise AssertionError(
            f"prefix count N({i + 1},{j}) disagrees with the closed form"
        )
    return emb


def f2_column_profile(emb: Embedding2D, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """Rows of chain i within column j, as (row, chain position) pairs.

    The occupancy is 1 + R(i,j); a double contribution sits on consecutive
    rows.
    """
    if not 1 <= i <= emb.a1 or not 1 <= j <= emb.m:
        raise ValueError("chain or column out of range")
    hits = tuple(
        (row + 1, pos)
        for row, (chain, pos) in enumerate(emb.columns[j - 1])
        if chain == i
    )
    if len(hits) != 1 + emb.R.R(i, j):
        raise AssertionError(f"occupancy of chain {i} in column {j} is off")
    if len(hits) == 2 and abs(hits[0][0] - hits[1][0]) != 1:
        raise AssertionError(f"double contribution in column {j} not consecutive")
    return hits


def dump_columns(emb: Embedding2D) -> str:
    """Per-column dump: "col j: (chain, pos) ..." bottom row first."""
    lines = []
    for j in range(1, emb.m + 1):
        cells = " ".join(f"({i}, {p})" for i, p in emb.column(j))
        lines.append(f"col {j}: {cells}")
    return "\n".join(lines) + "\n"
