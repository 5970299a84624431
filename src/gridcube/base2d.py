"""The base map: circulant column counts and the column-filling embedding.

Chains of the grid (rows of the folded two-dimensional layout) are poured
into columns of the box {1..2^{e_1}} x {1..m}, e_1 the least exponent with
a_1 <= 2^{e_1}.  A circulant 0/1 matrix decides which chains contribute
two points to which columns, spreading the surplus 2^{e_1} - a_1 evenly.
The chains' prefix counts (`chain_prefix`) and the map have closed forms:
`place` puts point q of chain i in the least column with N_ic >= q, one of
three candidates, above the cells of chains 1..i-1 there (a telescoped
count), and a row higher at the upper point of a double cell.  It places
a grid's base map (`build_f2`) and a whole box (`fill_columns`).  The
literal stateful filling loop and the Fraction form of the prefix counts
live in `tests/oracles.py` as the references they must equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import RANK_BLOCK, GridSpec, level_budget

# points per `place` call: it keeps about ten int64 temporaries per point,
# so a quarter of RANK_BLOCK keeps its scratch below a megabyte
PLACE_BLOCK = RANK_BLOCK >> 2


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


def place(R: CirculantR, chain: np.ndarray, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and the column of point q of chain i in the filled box, for
    int64 arrays `chain` (i in 1..a1) and `point` (q >= 1): two int64
    arrays, in closed form.

    With F(x) = floor(p x / a1) and p = 2^{e1} - a1, chain i holds N_ij =
    j + F(i) - F(i - j) points in columns 1..j (`chain_prefix`), so point q
    lies in the least column c with N_ic >= q.  F(i) - F(i - j) is
    floor(p j / a1) or one more, so N_ij is L(j) = floor(2^{e1} j / a1) or
    L(j) + 1.  With b = floor((q - 1) a1 / 2^{e1}) + 1 and a1 <= 2^{e1},
    L(b - 2) <= q - 2 and L(b + 1) >= q, so c is b - 1, b or b + 1: b - 1
    plus one for each of N_{i,b-1} and N_{i,b} below q (N_i0 = 0).

    Chains fill a column bottom-up in chain order, chain i' taking
    1 + F(i' - c + 1) - F(i' - c) cells of column c, so chains 1..i-1 fill
    (i - 1) + F(i - c) - F(1 - c) cells below chain i.  Its cell is double
    when F(i - c + 1) - F(i - c) = 1, and then its upper point is the
    second (q - N_{i,c-1} = 2) in an odd column and the first in an even
    one: exactly when q - N_{i,c-1} + c = q + 1 - F(i) + F(i - c + 1) is
    odd.  Each product is p or a1 times a chain, column or point, so int64
    holds them for a grid's box: |G| <= 2^31 (`GridSpec`), so a1 <= 2^30,
    and the box has 2^{e1} m < |G| + 2^{e1} <= 2^32 points.
    """
    a1, p = R.a1, (1 << R.e1) - R.a1
    lead = p * chain // a1  # F(i)
    col = (point - 1) * a1 >> R.e1  # b - 1
    col += col + lead - p * (chain - col) // a1 < point
    col += col + lead - p * (chain - col) // a1 < point
    below = p * (chain - col) // a1
    after = p * (chain - col + 1) // a1
    upper = (point + 1 - lead + after) & (after - below) & 1
    return chain + below - p * (1 - col) // a1 + upper, col


@dataclass(frozen=True, eq=False)
class Embedding2D:
    """The filled box: chains 1..a1 poured into m columns of height 2^{e1}.

    The points of chain i sit at rows `rows[t]` and columns `cols[t]`, t =
    offsets[i-1] .. offsets[i] - 1 (flat chain-major int32 arrays), point
    t - offsets[i-1] + 1 of the chain at t.  All arrays are read-only.
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
        1..j, j = 0..m (a1 x (m + 1)), counted off the built columns when
        first read."""
        chain = np.repeat(np.arange(self.a1), np.diff(self.offsets))
        chain *= self.m + 1
        chain += self.cols
        filled = np.bincount(chain, minlength=self.a1 * (self.m + 1))
        counts = np.cumsum(filled.reshape(self.a1, self.m + 1), axis=1)
        counts.flags.writeable = False
        return counts

    def column_inverse(self) -> np.ndarray:
        """Chain of the point in every cell: an m x 2^{e1} int32 array
        indexed [column - 1, row - 1]; 0 marks a cell that no point fills."""
        chain = np.repeat(
            np.arange(1, self.a1 + 1, dtype=np.int32), np.diff(self.offsets)
        )
        owner = np.zeros((self.m, self.height), dtype=np.int32)
        owner[self.cols - 1, self.rows - 1] = chain
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
    m = u_2 columns, written by rank from `place`.

    Every chain holds at least the grid's P_1 = |G| / a_1 points.  Chain i
    fills 1 + R(i,j) cells of column j, so over m columns it holds m plus m
    cyclically consecutive first-column entries, at least m + floor(p m /
    a_1) = floor(2^{e_1} m / a_1) points (p = 2^{e_1} - a_1, see
    `build_R`).  With m = u_2 = ceil(|G| / 2^{e_1}), 2^{e_1} m >= |G|, so
    that floor is at least |G| / a_1 = P_1, an integer.

    The grid keeps each chain's first P_1 points: rank r is point
    floor(r / a_1) + 1 of chain r mod a_1 + 1.  So each row's grid points
    fill its columns 1..c(row): the base of the staircase `stages.stack`
    carries up.  Chain i's points in columns 1..j number j plus j
    cyclically consecutive first-column entries, so any two chains' counts
    N_ij differ by at most 1.  Row r of column j holds a point of some
    chain i at index (0-based place in its chain) at most N_ij - 1, and row
    r of column j + 1 one of a chain i' at index at least N_i'j >= N_ij -
    1: along a row the index never decreases, for any a_1 and m.

    The ranks are placed PLACE_BLOCK at a time, each block straight into
    its slice of `row` and `column`: nothing of the box's size is built.
    """
    a1, m = spec.dims[0], level_budget(spec, 2)
    R = build_R(a1)
    row = np.empty(spec.size, dtype=np.int32)
    column = np.empty(spec.size, dtype=np.int32)
    for start in range(0, spec.size, PLACE_BLOCK):
        at = slice(start, min(start + PLACE_BLOCK, spec.size))
        point, chain = np.divmod(np.arange(at.start, at.stop), a1)
        chain += 1
        point += 1
        row[at], column[at] = place(R, chain, point)
    row.flags.writeable = column.flags.writeable = False
    return BaseMap(R, m, row, column)


def fill_columns(a1: int, m: int) -> Embedding2D:
    """The filled box over columns 1..m: each chain's N_im points
    (`chain_prefix`), chain after chain, placed by `place` PLACE_BLOCK
    points at a time.

    Every column comes out full: column j holds a1 + sum_i R(i,j) =
    a1 + sum_i first[(i - j) mod a1] points, and every column of the
    circulant is a rotation of its first column, which sums to p =
    2^{e1} - a1, so the column holds a1 + p = 2^{e1} points.
    """
    R = build_R(a1)
    offsets = np.zeros(a1 + 1, dtype=np.int64)
    np.cumsum(chain_prefix(R, m), out=offsets[1:])
    total = int(offsets[-1])
    rows = np.empty(total, dtype=np.int32)
    cols = np.empty(total, dtype=np.int32)
    for start in range(0, total, PLACE_BLOCK):
        at = slice(start, min(start + PLACE_BLOCK, total))
        point = np.arange(at.start, at.stop)
        chain = np.searchsorted(offsets, point, side="right")
        point -= offsets[chain - 1]
        point += 1
        rows[at], cols[at] = place(R, chain, point)
    for arr in (rows, cols, offsets):
        arr.flags.writeable = False
    return Embedding2D(R, m, rows, cols, offsets)
