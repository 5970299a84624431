"""The base map: circulant column counts and the column-filling embedding.

Chains of the grid (rows of the folded two-dimensional layout) are poured
into columns of the box {1..2^{e_1}} x {1..m}, where e_1 is the least
exponent with a_1 <= 2^{e_1}: `fill_columns(a1, m)` derives it from a1.  A
circulant 0/1 matrix decides which chains contribute two points to which
columns, spreading the surplus 2^{e_1} - a_1 evenly.  The layout is built
once, in integers, as flat int arrays straight from the circulant.  The
literal stateful filling loop and the closed form of the chain prefix
counts live in the tests (`tests/oracles.py`) as the references the built
layout must equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import GridSpec, level_budget


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


@dataclass(frozen=True, eq=False)
class Embedding2D:
    """The filled box: chains 1..a1 poured into m columns of height 2^{e1}.

    The p-th point of chain i sits at row `rows[t]` and column `cols[t]`,
    t = offsets[i-1] + p - 1 (flat chain-major arrays).  All arrays are
    read-only.
    """

    R: CirculantR
    m: int
    rows: np.ndarray
    cols: np.ndarray
    offsets: np.ndarray

    @property
    def a1(self) -> int:
        return self.R.a1

    @property
    def height(self) -> int:
        return 1 << self.R.e1

    @cached_property
    def prefix_counts(self) -> np.ndarray:
        """`prefix_counts[i-1, j]` is N_ij, the points of chain i in columns
        1..j (a1 x (m + 1)), counted off the built columns when first read."""
        chain = np.repeat(np.arange(self.a1), np.diff(self.offsets))
        chain *= self.m + 1
        chain += self.cols
        filled = np.bincount(chain, minlength=self.a1 * (self.m + 1))
        counts = np.cumsum(filled.reshape(self.a1, self.m + 1), axis=1)
        counts.flags.writeable = False
        return counts

    def column_inverse(self) -> np.ndarray:
        """Chain of the point in every cell: an m x 2^{e1} int32 array
        indexed [column-1, row-1]; 0 marks a cell that no point fills."""
        chain = np.repeat(
            np.arange(1, self.a1 + 1, dtype=np.int32), np.diff(self.offsets)
        )
        owner = np.zeros((self.m, self.height), dtype=np.int32)
        owner[self.cols - 1, self.rows - 1] = chain
        return owner


def build_f2(spec: GridSpec) -> Embedding2D:
    """Column-filling embedding restricted to the given grid, in its box of
    m = u_2 columns; `fill_columns` builds wider boxes.

    Every chain holds at least the grid's P_1 = |G| / a_1 points.  Chain i
    fills 1 + R(i,j) cells of column j, so over m columns it holds m plus m
    cyclically consecutive first-column entries, at least m + floor(p m /
    a_1) = floor(2^{e_1} m / a_1) points (p = 2^{e_1} - a_1, see
    `build_R`).  With m = u_2 = ceil(|G| / 2^{e_1}), 2^{e_1} m >= |G|, so
    that floor is at least |G| / a_1 = P_1, an integer.

    The grid keeps each chain's first P_1 points (`stages._stage2`), so each
    row's grid points fill its columns 1..c(row): the base of the staircase
    `stages.stack` carries up.  Chain i's points in columns 1..j number j
    plus j cyclically consecutive first-column entries, so any two chains'
    counts N_ij differ by at most 1.  Row r of column j holds a point of
    some chain i at index (0-based place in its chain) at most N_ij - 1,
    and row r of column j + 1 one of a chain i' at index at least N_i'j >=
    N_ij - 1: along a row the index never decreases, for any a_1 and m.
    """
    return fill_columns(spec.dims[0], level_budget(spec, 2))


def fill_columns(a1: int, m: int) -> Embedding2D:
    """The filled box over columns j = 1..m, built from the circulant.

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
    j = np.arange(1, m + 1)
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
    start = np.cumsum(per_cell)
    start -= per_cell
    doubles = np.flatnonzero(per_cell == 2)
    rows[start[doubles] + (doubles % m + 1) % 2] += 1
    offsets = np.concatenate(([0], np.cumsum(cells.sum(axis=1))))
    for arr in (rows, cols, offsets):
        arr.flags.writeable = False
    return Embedding2D(R, m, rows, cols, offsets)
