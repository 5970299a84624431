"""The base map: circulant column counts and the column-filling embedding.

Chains of the grid (rows of the folded two-dimensional layout) are poured
into columns of the box {1..2^{e_1}} x {1..m}.  A circulant 0/1 matrix decides
which chains contribute two points to which columns, spreading the surplus
2^{e_1} - a_1 evenly.  The layout is built as flat int arrays straight from
the circulant (the literal stateful filling loop is the tests' reference);
a closed-form prefix-count formula is kept alongside as a cross-check.  The
closed form is exact integer floor division, so it is evaluated for every
(chain, column prefix) at once as one array and asserted equal, at build
time, to the counts read off the built columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from .grids import GridSpec, level_budget


@dataclass(frozen=True)
class CirculantR:
    """Circulant 0/1 matrix over chains: R(i,j) = first_column[(i-j) mod a1]."""

    a1: int
    e1: int
    first_column: tuple[int, ...]


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


def chain_prefix_count(R: CirculantR, i, j):
    """Closed form for N_ij, the points of chain i in columns 1..j.

    N_ij = j + floor(q i) - floor(q (i-j)) with q = p / a1, p = 2^{e1} - a1,
    evaluated as j + (p i) // a1 - (p (i-j)) // a1: floor division is exact
    for negative arguments in Python and in numpy.  ``i`` and ``j`` may be
    ints or numpy integer arrays (broadcast against each other).  Used as an
    independent cross-check of the built layout.
    """
    if np.any(np.asarray(j) < 0):
        raise ValueError("column prefix must be nonnegative")
    p = (1 << R.e1) - R.a1
    return j + (p * i) // R.a1 - (p * (i - j)) // R.a1


@dataclass(frozen=True)
class Embedding2D:
    """The filled box: chains 1..a1 poured into m columns of height 2^{e1}.

    The p-th point of chain i sits at row `rows[t]` and column `cols[t]`,
    t = offsets[i-1] + p - 1 (flat chain-major arrays); `prefix_counts[i-1, j]`
    is N_ij, the points of chain i in columns 1..j.  All four arrays are
    read-only.
    """

    R: CirculantR
    m: int
    rows: np.ndarray
    cols: np.ndarray
    offsets: np.ndarray
    prefix_counts: np.ndarray

    @property
    def a1(self) -> int:
        return self.R.a1

    @property
    def height(self) -> int:
        return 1 << self.R.e1

    def column_inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """Chain and chain position of the point in every cell.

        Two m x 2^{e1} int32 arrays indexed [column-1, row-1]; 0 marks a
        cell that no point fills.
        """
        lengths = np.diff(self.offsets)
        chain = np.repeat(np.arange(1, self.a1 + 1, dtype=np.int32), lengths)
        pos = np.arange(1, len(self.rows) + 1) - np.repeat(self.offsets[:-1], lengths)
        owner = np.zeros((self.m, self.height), dtype=np.int32)
        at = np.zeros_like(owner)
        owner[self.cols - 1, self.rows - 1] = chain
        at[self.cols - 1, self.rows - 1] = pos
        return owner, at


def build_f2(spec: GridSpec) -> Embedding2D:
    """Column-filling embedding restricted to the given grid, in its box of
    m = u_2 columns.  The grid's chains must fit inside the filled box,
    which the balance properties guarantee at m = u_2; `fill_columns`
    builds wider boxes.
    """
    emb = fill_columns(spec.dims[0], spec.exponents[1], level_budget(spec, 2))
    per_chain = spec.page_count(1)
    lengths = np.diff(emb.offsets)
    short = np.flatnonzero(lengths < per_chain)
    if len(short):
        i = short[0]
        raise AssertionError(
            f"chain {i + 1} holds {lengths[i]} points, "
            f"fewer than the grid's {per_chain}"
        )
    return emb


def fill_columns(a1: int, e1: int, m: int) -> Embedding2D:
    """The filled box over columns j = 1..m, built from the circulant.

    Scanning chains in order, chain i contributes 1 + R(i,j) points to column
    j, on the rows just above those of chains 1..i-1; a double contribution
    is placed descending (the later chain position below the earlier)
    exactly when j is even, ascending when j is odd.  Every column must come
    out full, and the prefix counts read off the built columns must agree
    with the closed form.
    """
    R = build_R(a1, e1)
    height = 1 << e1
    j = np.arange(1, m + 1)
    double = np.array(R.first_column, dtype=np.int64)[
        (np.arange(1, a1 + 1)[:, None] - j) % a1
    ]
    cells = 1 + double
    below = np.cumsum(cells, axis=0) - cells
    descending = double * (1 - j % 2)
    # one entry per point, chain-major: its (chain, column) cell and whether
    # it is the second point its chain puts there
    per_cell = cells.ravel()
    cell = np.repeat(np.arange(a1 * m), per_cell)
    second = np.arange(len(cell)) - (np.cumsum(per_cell) - per_cell)[cell]
    rows = below.ravel()[cell] + 1 + (second ^ descending.ravel()[cell])
    rows = rows.astype(np.int32)
    cols = (cell % m + 1).astype(np.int32)
    lengths = cells.sum(axis=1)
    offsets = np.concatenate(([0], np.cumsum(lengths)))

    chain = np.repeat(np.arange(a1), lengths)
    filled = np.bincount(chain * (m + 1) + cols, minlength=a1 * (m + 1))
    filled = filled.reshape(a1, m + 1)
    per_column = filled.sum(axis=0)[1:]
    bad = np.flatnonzero(per_column != height)
    if len(bad):
        j0 = bad[0]
        raise AssertionError(
            f"column {j0 + 1} holds {per_column[j0]} points, not {height}"
        )
    counts = np.cumsum(filled, axis=1)
    closed = chain_prefix_count(
        R, np.arange(1, a1 + 1)[:, None], np.arange(m + 1)[None, :]
    )
    bad = np.argwhere(counts != closed)
    if len(bad):
        i, j0 = bad[0]
        raise AssertionError(
            f"prefix count N({i + 1},{j0}) disagrees with the closed form"
        )
    for arr in (rows, cols, offsets, counts):
        arr.flags.writeable = False
    return Embedding2D(R, m, rows, cols, offsets, counts)
