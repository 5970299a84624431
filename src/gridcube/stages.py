"""The inductive lift: blank levels, designation matrices, inflate and stack.

Each stage i map sends the grid into a box of levels; the next stage spreads
those levels across sections of 2^{e_i - e_{i-1}} slots (skipping the slots a
designation matrix marks blank) and then collapses each section onto a shared
residue axis, recording how many earlier sections already claimed the same
residue slot.  The composition of all stages yields coordinates bounded by
the block widths, i.e. an embedding into the optimal hypercube's coordinate
box.

Sections, pages, offsets and heights are 1-based at this API surface.
"""
from __future__ import annotations

import codecs
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .base2d import Embedding2D, build_f2
from .grids import GridSpec, level_budget
from .rounding import BinaryMatrix, RoundingSpec, balance_violations, build_FX


def s_sequence(spec: GridSpec, i: int) -> tuple[int, ...]:
    """Blanks per section at stage i: s_i(j) for j = 1..P_i.

    s_i(j) = w - ceil(A/h) + floor(j phi) - floor((j-1) phi) where
    w = 2^{e_i - e_{i-1}}, A = a_1...a_i, h = 2^{e_{i-1}}, and
    phi = ceil(A/h) - A/h = phi_num / h, evaluated for all P_i sections in
    one integer expression.  Three facts follow from the numbers alone:

    - two values: 0 <= phi < 1, so each floor(j phi) - floor((j-1) phi) is
      0 or 1 and s_i(j) is base = w - ceil(A/h) or base + 1;
    - half width: e_i is the least exponent with A <= 2^{e_i}, so
      A > 2^{e_i - 1} = w h / 2, where w >= 2 as A >= 2 a_1...a_{i-1} > h;
      so ceil(A/h) >= w/2 + 1 and base + 1 <= w/2;
    - budget identity: the floors telescope, so s_i(1) + ... + s_i(r) =
      r w - ceil(A/h) r + floor(r phi) = r w - ceil(r A / h), and the
      nonblank slots of sections 1..r hold exactly the ceil(r A / h) levels
      they need.

    The tests hold all three over wide grid families; `budget_break` checks
    the identity on a plan's own matrix.
    """
    if not 2 <= i <= spec.k - 1:
        raise ValueError(f"stage {i} outside [2, {spec.k - 1}]")
    width = 1 << spec.block_width(i)
    half = 1 << spec.exponents[i - 1]
    prefix = spec.prefix_product(i)
    lead = -(-prefix // half)
    phi_num = lead * half - prefix  # phi = phi_num / half, in [0, 1)
    steps = np.diff(np.arange(spec.page_count(i) + 1) * phi_num // half)
    return tuple((width - lead + steps).tolist())


def budget_break(spec: GridSpec, i: int, s) -> int | None:
    """First section prefix r where the budget identity fails, else None.

    The identity: the nonblank slots of sections 1..r, r * width minus the
    blanks s(1) + ... + s(r), exactly hold the ceil(r A / h) stage-i levels
    those sections need (A = a_1...a_i, h = 2^{e_{i-1}}).  A plain loop:
    numpy's fixed cost per call outweighs a typical plan's short s.
    """
    width = 1 << spec.block_width(i)
    half = 1 << spec.exponents[i - 1]
    prefix = spec.prefix_product(i)
    blanks = 0
    for r, count in enumerate(s, start=1):
        blanks += count
        if -(-r * prefix // half) + blanks != r * width:
            return r
    return None


@dataclass(frozen=True)
class BlankPlan:
    """Designation of blank levels at stage i: F rows = sections, cols = slots.

    Entry (r, d) = 1 marks slot d of section r blank; zeros are the nonblank
    levels, in row-major order the global level sequence the inflation step
    maps onto.  Three tables are read off ``F.bits`` once: ``level_table[c-1]``
    is the global index of the c-th nonblank level, and ``ordinal_table[g]``
    and ``height_table[g]`` count the nonblanks up to level g along its row
    (its ordinal in its section) and down its column (its stack height, see
    `stack`); both are 0 at blanks and at the unused index 0.  A fourth,
    ``level_index``, inverts ``level_table`` when first read.
    """

    spec: GridSpec
    stage: int
    s: tuple[int, ...]
    F: BinaryMatrix
    level_table: np.ndarray = field(init=False, repr=False, compare=False)
    ordinal_table: np.ndarray = field(init=False, repr=False, compare=False)
    height_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nonblank = 1 - self.F.bits
        ordinals = np.zeros(nonblank.size + 1, dtype=np.int64)
        ordinals[1:] = (nonblank.cumsum(axis=1) * nonblank).ravel()
        heights = np.zeros(nonblank.size + 1, dtype=np.int32)
        heights[1:] = (nonblank.cumsum(axis=0) * nonblank).ravel()
        levels = np.flatnonzero(ordinals).astype(np.int32)
        tables = zip(("level_table", "ordinal_table", "height_table"),
                     (levels, ordinals, heights))
        for name, table in tables:
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @cached_property
    def level_index(self) -> np.ndarray:
        """``level_index[g]`` is searchsorted(level_table, g) + 1 for
        g = 0..P * width + 1 (int32): where level g sits in ``level_table``,
        1-based.  Every level table entry lies in 1..P * width, so reading it
        at g clipped to that index range gives the same for any int g."""
        g = np.arange(self.F.bits.size + 2)
        table = (np.searchsorted(self.level_table, g) + 1).astype(np.int32)
        table.flags.writeable = False
        return table

    @property
    def width(self) -> int:
        return 1 << self.spec.block_width(self.stage)

    @property
    def pages(self) -> int:
        return self.spec.page_count(self.stage)

    def section_of(self, level):
        """Section of a level (an int or an int array), 1-based."""
        return (level - 1) // self.width + 1

    def offset_of(self, level):
        """Slot of a level within its section (an int or an int array), 1-based."""
        return (level - 1) % self.width + 1

    def violations(self) -> list[str]:
        """Contract check: the stage's shape, then the balance contract."""
        F = self.F
        if F.m != self.pages or F.n != self.width:
            return [f"shape {F.m}x{F.n}, want {self.pages}x{self.width}"]
        return balance_violations(F, self.s)


def build_blank_plan(
    spec: GridSpec, i: int, matrix: BinaryMatrix | None = None
) -> BlankPlan:
    """Blank designation for stage i, generated or externally seeded.

    With no matrix, rounds the constant-row target s_i(j)/width; an external
    matrix (e.g. a published worked example) is accepted only if it passes
    the same contracts the generated one must.
    """
    s = s_sequence(spec, i)
    width = 1 << spec.block_width(i)
    if matrix is None:
        matrix = build_FX(RoundingSpec(s, width))
    plan = BlankPlan(spec, i, s, matrix)
    bad = plan.violations()
    if bad:
        raise ValueError(
            f"stage {i} designation matrix rejected: " + "; ".join(bad)
        )
    return plan


@dataclass(frozen=True, eq=False)
class Transition:
    """How a stacked stage was made: the blank plan its predecessor's level
    coordinate was inflated through, and the inflated (nonblank) level each
    vertex passed through, stored by base column.

    Every coordinate after the first is a function of the vertex's base
    column (stage 2's level; see `stack`), so the step holds `table`, the
    inflated level of each base column (u_2 int32 entries, `table[c - 1]`
    for column c), and `column`, the base column of each rank (one
    |G|-entry int32 row, copied from the chain by the first `stack` and
    shared by every step).  `source_level` gathers the table by rank into
    a new |G|-entry row on each read.  Over the identity column 1..|G|, a
    table holds one source level per vertex.
    """

    plan: BlankPlan
    table: np.ndarray
    column: np.ndarray

    def by_rank(self, table: np.ndarray) -> np.ndarray:
        """A table over base columns read at each rank's base column."""
        return table[self.column - 1]

    @property
    def source_level(self) -> np.ndarray:
        """The inflated level each vertex passed through, by rank (int32)."""
        return self.by_rank(self.table)


@dataclass(frozen=True, eq=False)
class StageEmbedding:
    """Stage `stage` of a composed map, read off the chain stored once.

    The chain is `final`, the k x |G| int32 coordinates of the composed
    map stored coordinate-major (C-contiguous: row j - 1 holds coordinate j
    of every vertex by rank, 1-based values), and `steps`, the `Transition`
    of each stacked stage 3, 4, ... in order, each holding its source
    levels as a table over base columns; every stage of one chain shares
    both.  Each stage pass reads and writes one coordinate of every
    vertex, so it walks one contiguous row.  Stacking never changes a
    settled coordinate, so coordinates 1..i-1 of stage i are rows of
    `final`, and its last, a level index, is where the next stage's source
    level sits in the next plan's `level_table`: one gather from the plan's
    `level_index` over the next step's base-column table, read at each
    rank's base column: the stage's `level` row, built when first read.
    The top stage of the chain (stage len(steps) + 2: stage k once
    `build_fk` is done) reads its `level` as row i - 1 of `final` too.
    """

    spec: GridSpec
    stage: int
    final: np.ndarray
    steps: tuple[Transition, ...] = ()

    def __post_init__(self):
        if self.final.shape != (self.spec.k, self.spec.size):
            raise ValueError("coordinate array shape mismatch")
        if not self.final.flags.c_contiguous:
            raise ValueError("coordinate array is not coordinate-major")
        if not 2 <= self.stage <= len(self.steps) + 2:
            raise ValueError(f"stage {self.stage} not in the chain")

    @cached_property
    def level(self) -> np.ndarray:
        """Coordinate i of every vertex by rank (contiguous int32): row
        i - 1 of `final` at the top stage, and below it the next plan's
        `level_index` gathered over the next step's table, by rank."""
        i = self.stage
        if i == len(self.steps) + 2:
            return self.final[i - 1]
        after = self.steps[i - 2]
        return after.by_rank(np.take(after.plan.level_index, after.table, mode="clip"))

    def column_levels(self) -> np.ndarray:
        """The stage's level for each base column 1..u_2 (int32): the base
        column itself at stage 2, and above it the height its plan's column
        prefix table gives the step's inflated level (see `stack`)."""
        if self.stage == 2:
            return np.arange(1, level_budget(self.spec, 2) + 1, dtype=np.int32)
        step = self.steps[self.stage - 3]
        return step.plan.height_table[step.table]

    @property
    def plan(self) -> BlankPlan | None:
        """The plan this stage was stacked through (None at stage 2)."""
        return self.steps[self.stage - 3].plan if self.stage > 2 else None

    @property
    def source_level(self) -> np.ndarray | None:
        """The inflated level each vertex passed through (None at stage 2)."""
        return self.steps[self.stage - 3].source_level if self.stage > 2 else None

    def box(self) -> list[int]:
        """The largest value of each coordinate: the first i - 1 are settled
        block values, 1..2^{e_t - e_{t-1}}, and the last a level index,
        1..u_i (the stage's level budget)."""
        spec, i = self.spec, self.stage
        caps = [1 << spec.block_width(t) for t in range(1, i)]
        return caps + [level_budget(spec, i)]

    @cached_property
    def in_box(self) -> bool:
        """Whether every coordinate lies in 1..its `box` value."""
        rows = zip([*self.final[: self.stage - 1], self.level], self.box())
        return all(row.min() >= 1 and row.max() <= cap for row, cap in rows)

    @cached_property
    def address(self) -> np.ndarray:
        """The `packed_address` of each vertex's first i - 1 coordinates."""
        return packed_address(self.spec, self.final[: self.stage - 1])

    def is_injective(self) -> bool:
        """Whether no two vertices share a stage-i coordinate tuple.

        Inside the `box`, each tuple packs into one int64 key without
        collision: the `address` below 2^{e_{i-1}}, plus the level minus 1
        from bit e_{i-1} up.  Keys then lie below 2^{e_{i-1}} u_i, which is
        under |G| + 2^{e_{i-1}} < 3|G|, so one scatter into a boolean mask of
        that size counts them.  A coordinate outside the box can alias
        another key, so such a chain sorts its tuples (`np.unique`).
        """
        spec, i = self.spec, self.stage
        if not self.in_box:
            tuples = np.column_stack([*self.final[: i - 1], self.level])
            return len(np.unique(tuples, axis=0)) == spec.size
        key = self.level.astype(np.int64)
        key -= 1
        key <<= spec.exponents[i - 1]
        key += self.address
        return keys_distinct(key, level_budget(spec, i) << spec.exponents[i - 1])

    def stage_chain(self) -> "list[StageEmbedding]":
        """Stages 2..stage of the chain, earliest first; each builds its
        level row only when read."""
        return [
            StageEmbedding(self.spec, i, self.final, self.steps)
            for i in range(2, self.stage + 1)
        ]


def inflate(prev: StageEmbedding, plan: BlankPlan) -> np.ndarray:
    """The nonblank global level of stage i's level for each base column:
    a u_2-entry int32 table over base columns, not over vertices.

    Order-preserving, hence injective.  `build_fk`, the one caller of
    `stack`, passes stage i's own plan, whose P_i w - s(1) - ... - s(P_i) =
    ceil(|G| / h) = u_i nonblank levels (the budget identity at r = P_i; a
    seeded plan's row sums are checked by `violations()`) cover prev's
    levels 1..u_i, its `box`.
    """
    return plan.level_table[prev.column_levels() - 1]


def keys_distinct(keys: np.ndarray, bound: int) -> bool:
    """Whether the keys, all in [0, bound), are pairwise distinct: one
    scatter into a `bound`-entry boolean mask, counted."""
    seen = np.zeros(bound, dtype=bool)
    seen[keys] = True
    return int(np.count_nonzero(seen)) == len(keys)


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


def stack(prev: StageEmbedding, plan: BlankPlan) -> StageEmbedding:
    """Inflate through the plan, then collapse sections onto the residue
    axis, recording stack heights.

    A point in section r at slot offset b becomes (address..., b, n), where
    n counts the points of sections 1..r (this one included) sharing both
    the address and the offset.  The staircase reads n off the plan alone:
    at every stage, the points of each address m sit one at each level
    1..c(m) (stage 2 by `build_f2`).  If it holds at stage i, the points of
    address m were inflated one to each of the first c(m) nonblank levels.
    A point's level L = (r - 1) w + b is one of them, and so is every
    nonblank level at offset b in sections 1..r, as none is above L.  So n
    is the column prefix of the nonblank mask at L, `plan.height_table[L]`,
    and the points of address (m, b) sit one at each height 1..n of the
    highest: the staircase at stage i + 1, for any plan, seeded or not.

    The offset and the height are functions of L alone, and L of prev's
    level, which by induction is a function of the base column alone (stage
    2's level is the base column).  So both are computed once per base
    column, on u_2 entries: L is `inflate`'s table, composed from prev's
    `column_levels`, not read from prev's level row.  Each is then gathered
    through the base column of every rank, `column`: stage 2's level row,
    copied once by the first stack and shared by every later step.

    Stacking consumes `prev`, the top stage of its chain: the 1-based
    offset, the low bits of L - 1 plus 1, and the height are written over
    rows i - 1 (prev's level row, which the new stage's `Transition` now
    determines) and i of the chain's `final`, so `prev` reads offsets where
    its levels were.  `final` starts zeroed past stage 2 and every height
    is at least 1, so a stage whose height row is written is refused.
    """
    i = prev.stage
    final = prev.final
    if final[i, 0]:
        raise ValueError(f"stage {i} is already stacked")
    table = inflate(prev, plan)
    column = prev.steps[0].column if prev.steps else final[1].copy()
    # one intp index for both gathers, which would each cast an int32 one
    at = column.astype(np.intp)
    at -= 1
    offsets = table - 1
    offsets &= plan.width - 1
    offsets += 1
    np.take(offsets, at, out=final[i - 1])
    np.take(plan.height_table[table], at, out=final[i])
    step = Transition(plan, table, column)
    return StageEmbedding(prev.spec, i + 1, final, prev.steps + (step,))


def _stage2(spec: GridSpec, base: Embedding2D) -> StageEmbedding:
    """Stage 2 from the base map, in the first two rows of a new
    coordinate-major chain whose other rows start zeroed."""
    # rank p a1 + i is point p + 1 of chain i + 1
    a1 = spec.dims[0]
    at = (base.offsets[:-1] + np.arange(spec.size // a1)[:, None]).ravel()
    final = np.zeros((spec.k, spec.size), dtype=np.int32)
    final[0] = base.rows[at]
    final[1] = base.cols[at]
    return StageEmbedding(spec, 2, final)


def build_fk(
    spec: GridSpec, seed_matrices: list[BinaryMatrix] | None = None
) -> StageEmbedding:
    """Compose all stages into one chain and return its top stage.

    `seed_matrices` optionally supplies the designation matrix for each stage
    2..k-1 in order (k-2 matrices); each must pass the stage's contracts.
    For k = 2 the base map is returned unchanged.
    """
    if seed_matrices is not None and len(seed_matrices) != spec.k - 2:
        raise ValueError(
            f"need {spec.k - 2} seed matrices for stages 2..{spec.k - 1}, "
            f"got {len(seed_matrices)}"
        )
    emb = _stage2(spec, build_f2(spec))
    for i in range(2, spec.k):
        matrix = seed_matrices[i - 2] if seed_matrices is not None else None
        plan = build_blank_plan(spec, i, matrix=matrix)
        emb = stack(emb, plan)
    return emb


# ranks per rendered block of text lines: render scratch stays fixed whatever |G|
RENDER_CHUNK = 1 << 15


def decimal_columns(values: np.ndarray, width: int) -> np.ndarray:
    """Nonnegative integers as ASCII decimals right-aligned in `width`
    columns, NUL in the unused leading columns: a len(values) x width uint8
    array.  The caller drops the NULs once its lines are assembled."""
    out = np.empty((len(values), width), dtype=np.uint8)
    rest = np.array(values, dtype=np.int64)
    out[:, -1] = rest % 10 + ord("0")
    for col in range(width - 2, -1, -1):
        rest //= 10
        out[:, col] = (rest % 10 + ord("0")) * (rest != 0)
    return out


def dump_stage(emb: StageEmbedding) -> str:
    """Stage dump: header "STAGE i u_i", then "rank: (c_1, ..., c_i)" lines.

    Rendered RENDER_CHUNK ranks at a time as uint8 blocks: each field is the
    rank or a coordinate in its column's widest decimal width, followed by
    its separator, and the padding NULs are dropped once per block.
    """
    spec, rows = emb.spec, [*emb.final[: emb.stage - 1], emb.level]
    seps = [b": (", *[b", "] * (emb.stage - 1), b")\n"]
    widths = [len(str(x)) for x in [spec.size - 1, *(int(row.max()) for row in rows)]]
    pieces = [f"STAGE {emb.stage} {level_budget(spec, emb.stage)}\n"]
    for start in range(0, spec.size, RENDER_CHUNK):
        stop = min(start + RENDER_CHUNK, spec.size)
        block = np.empty((stop - start, sum(widths) + sum(map(len, seps))), np.uint8)
        col = 0
        fields = [np.arange(start, stop), *(row[start:stop] for row in rows)]
        for values, width, sep in zip(fields, widths, seps):
            block[:, col : col + width] = decimal_columns(values, width)
            col += width
            block[:, col : col + len(sep)] = np.frombuffer(sep, np.uint8)
            col += len(sep)
        pieces.append(codecs.ascii_decode(block[block != 0])[0])
    return "".join(pieces)
