"""The base map: circulant column counts and the column-filling embedding.

Chains of the grid (rows of the folded two-dimensional layout) are poured
into columns of the box {1..2^{e_1}} x {1..m}, where e_1 is the least
exponent with a_1 <= 2^{e_1}: `fill_columns(a1, m)` derives it from a1.  A
circulant 0/1 matrix decides which chains contribute two points to which
columns, spreading the surplus 2^{e_1} - a_1 evenly.  The layout of any
range of columns is built in integers, as flat int arrays straight from the
circulant and the closed-form chain prefix counts; a grid's base map is
written by rank from ranges of its box.  The literal stateful filling loop
and the Fraction form of the prefix counts live in the tests
(`tests/oracles.py`) as the references the built layout must equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import RANK_BLOCK, GridSpec, level_budget


@dataclass(frozen=True)
class CirculantR:
    """Circulant 0/1 matrix over chains: R(i,j) = first_column[(i-j) mod a1]."""

    a1: int
    first_column: tuple[int, ...]

    @property
    def e1(self) -> int:
        """The box exponent: the least e1 with a1 <= 2^{e1}."""
        return (self.a1 - 1).bit_length()


def build_R(a1: int) -> CirculantR:
    """First column r_i = floor(p i / a1) - floor(p (i-1) / a1), i = 1..a1,
    with p = 2^{e1} - a1 the surplus.

    The column sums to p (the floors telescope), and any t cyclically
    consecutive entries sum to floor(p t / a1) or floor(p t / a1) + 1.
    """
    if a1 < 2:
        raise ValueError("chain count must be at least 2")
    p = (1 << (a1 - 1).bit_length()) - a1
    return CirculantR(a1, tuple(np.diff(p * np.arange(a1 + 1) // a1).tolist()))


def chain_prefix(R: CirculantR, j: int) -> np.ndarray:
    """N_ij, the points of chain i in columns 1..j, for i = 1..a1 (int64):
    j + F(i) - F(i - j) with F(x) = floor(p x / a1), p = 2^{e1} - a1.

    Chain i fills 1 + R(i, c) cells of column c, and R(i, c) = F(i - c + 1)
    - F(i - c) (the first column's floors, shifted by whole periods of a1,
    which add p to both), so the column sums telescope.
    """
    i = np.arange(1, R.a1 + 1, dtype=np.int64)
    p = (1 << R.e1) - R.a1
    return j + p * i // R.a1 - p * (i - j) // R.a1


@dataclass(frozen=True, eq=False)
class Embedding2D:
    """The filled box over columns start + 1..m: chains 1..a1 poured into
    columns of height 2^{e1}.

    The points of chain i in these columns sit at rows `rows[t]` and
    columns `cols[t]`, t = offsets[i-1] .. offsets[i] - 1 (flat chain-major
    arrays); the first is the chain's point `before[i-1]` + 1, as the
    chain holds before[i-1] = N_{i,start} points in the columns before.
    All arrays are read-only.
    """

    R: CirculantR
    m: int
    rows: np.ndarray
    cols: np.ndarray
    offsets: np.ndarray
    start: int = 0

    @property
    def a1(self) -> int:
        return self.R.a1

    @property
    def height(self) -> int:
        return 1 << self.R.e1

    @property
    def before(self) -> np.ndarray:
        """Points of each chain in the columns before the box (int64)."""
        return chain_prefix(self.R, self.start)

    @cached_property
    def prefix_counts(self) -> np.ndarray:
        """`prefix_counts[i-1, j - start]` is N_ij, the points of chain i in
        columns 1..j, j = start..m (a1 x (m - start + 1)), counted off the
        built columns when first read."""
        width = self.m - self.start + 1
        chain = np.repeat(np.arange(self.a1), np.diff(self.offsets))
        chain *= width
        chain += self.cols
        chain -= self.start
        filled = np.bincount(chain, minlength=self.a1 * width)
        counts = np.cumsum(filled.reshape(self.a1, width), axis=1)
        counts += self.before[:, None]
        counts.flags.writeable = False
        return counts

    def column_inverse(self) -> np.ndarray:
        """Chain of the point in every cell: an (m - start) x 2^{e1} int32
        array indexed [column - start - 1, row - 1]; 0 marks a cell that no
        point fills."""
        chain = np.repeat(
            np.arange(1, self.a1 + 1, dtype=np.int32), np.diff(self.offsets)
        )
        owner = np.zeros((self.m - self.start, self.height), dtype=np.int32)
        owner[self.cols - 1 - self.start, self.rows - 1] = chain
        return owner


@dataclass(frozen=True, eq=False)
class BaseMap:
    """The base map restricted to a grid: the row and column of each rank
    in the box of m = u_2 columns (|G| read-only int32 entries each)."""

    R: CirculantR
    m: int
    row: np.ndarray
    column: np.ndarray


def build_f2(spec: GridSpec) -> BaseMap:
    """Column-filling embedding restricted to the given grid, in its box of
    m = u_2 columns, written by rank; `fill_columns` builds the box.

    Every chain holds at least the grid's P_1 = |G| / a_1 points.  Chain i
    fills 1 + R(i,j) cells of column j, so over m columns it holds m plus m
    cyclically consecutive first-column entries, at least m + floor(p m /
    a_1) = floor(2^{e_1} m / a_1) points (p = 2^{e_1} - a_1, see
    `build_R`).  With m = u_2 = ceil(|G| / 2^{e_1}), 2^{e_1} m >= |G|, so
    that floor is at least |G| / a_1 = P_1, an integer.

    The grid keeps each chain's first P_1 points: rank p a_1 + i - 1 is
    point p + 1 of chain i.  So each row's grid points fill its columns
    1..c(row): the base of the staircase `stages.stack` carries up.  Chain
    i's points in columns 1..j number j plus j cyclically consecutive
    first-column entries, so any two chains' counts N_ij differ by at most
    1.  Row r of column j holds a point of some chain i at index (0-based
    place in its chain) at most N_ij - 1, and row r of column j + 1 one of
    a chain i' at index at least N_i'j >= N_ij - 1: along a row the index
    never decreases, for any a_1 and m.

    The box is filled a block of columns at a time (`fill_columns` from a
    start column, about RANK_BLOCK points per block), and each block's grid
    points are written straight to their ranks: no box-sized array is
    built.
    """
    a1, m = spec.dims[0], level_budget(spec, 2)
    row = np.empty(spec.size, dtype=np.int32)
    column = np.empty(spec.size, dtype=np.int32)
    # columns per block: each column holds 2^{e_1} points
    step = max(1, RANK_BLOCK >> (a1 - 1).bit_length())
    for start in range(0, m, step):
        box = fill_columns(a1, min(m, start + step), start)
        # the block's point t, of chain i, is its chain's point before + t
        # - offsets + 1 (0-based entries of chain i), of rank a1 t + a1
        # (before - offsets) + i - 1; the grid keeps the ranks below |G|,
        # each chain's first P_1 points
        shift = box.before - box.offsets[:-1]
        shift *= a1
        shift += np.arange(a1)
        rank = np.repeat(shift, np.diff(box.offsets))
        rank += np.arange(0, a1 * len(rank), a1)
        kept = rank < spec.size
        at = rank[kept]
        row[at] = box.rows[kept]
        column[at] = box.cols[kept]
    row.flags.writeable = column.flags.writeable = False
    return BaseMap(box.R, m, row, column)


def fill_columns(a1: int, m: int, start: int = 0) -> Embedding2D:
    """The filled box over columns j = start + 1..m, built from the circulant.

    Scanning chains in order, chain i contributes 1 + R(i,j) points to column
    j, on the rows just above those of chains 1..i-1; a double contribution
    is placed descending (the later chain position below the earlier)
    exactly when j is even, ascending when j is odd.

    Every column comes out full: column j holds a1 + sum_i R(i,j) =
    a1 + sum_i first[(i - j) mod a1] points, and every column of the
    circulant is a rotation of its first column, which sums to p =
    2^{e1} - a1, so the column holds a1 + p = 2^{e1} points.
    """
    R = build_R(a1)
    j = np.arange(start + 1, m + 1)
    first = np.array(R.first_column, dtype=np.int32)
    cells = first[(np.arange(1, a1 + 1)[:, None] - j) % a1]
    cells += 1
    # every point of a cell first takes the cell's lowest row, then the
    # higher point of each double cell moves up one row: the second point
    # in an odd column, the first in an even one
    below = np.cumsum(cells, axis=0, dtype=np.int32)
    below -= cells
    below += 1
    per_cell = cells.ravel()
    rows = np.repeat(below.ravel(), per_cell)
    cols = np.repeat(np.tile(j.astype(np.int32), a1), per_cell)
    at = np.cumsum(per_cell)
    at -= per_cell
    doubles = np.flatnonzero(per_cell == 2)
    rows[at[doubles] + (doubles % len(j) + start + 1) % 2] += 1
    offsets = np.zeros(a1 + 1, dtype=np.int64)
    np.cumsum(cells.sum(axis=1), out=offsets[1:])
    for arr in (rows, cols, offsets):
        arr.flags.writeable = False
    return Embedding2D(R, m, rows, cols, offsets, start)
