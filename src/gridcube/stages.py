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

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base2d import BaseMap, build_f2
from .grids import (
    RANK_BLOCK,
    GridSpec,
    check_block,
    level_budget,
    unsigned_dtype,
)
from .rounding import BinaryMatrix, RoundingSpec, balance_violations, build_FX


def s_sequence(spec: GridSpec, i: int) -> np.ndarray:
    """Blanks per section at stage i: s_i(j) for j = 1..P_i, one int64 array.

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

    A plan's blanks b(1), ..., b(P_i) meet the identity at every prefix r
    exactly when b = s_i: the prefix sums of b and of s_i then agree at
    every r, and their consecutive differences are b(r) and s_i(r).  So the
    battery states a plan's blank budget once, as its matrix's row sums
    equal to this array.  The tests hold all three facts over wide grid
    families.
    """
    if not 2 <= i <= spec.k - 1:
        raise ValueError(f"stage {i} outside [2, {spec.k - 1}]")
    width = 1 << spec.block_width(i)
    half = 1 << spec.exponents[i - 1]
    prefix = spec.prefix_product(i)
    lead = -(-prefix // half)
    phi_num = lead * half - prefix  # phi = phi_num / half, in [0, 1)
    s = np.diff(np.arange(spec.page_count(i) + 1) * phi_num // half)
    s += width - lead
    return s


@dataclass(frozen=True)
class BlankPlan:
    """Designation of blank levels at stage i: F rows = sections, cols = slots.

    Entry (r, d) = 1 marks slot d of section r blank; zeros are the nonblank
    levels, in row-major order the global level sequence the inflation step
    maps onto.  Its tables are read off ``F.bits`` when first read, as
    int32, and kept by the plan; `stack` keeps in its chain a copy of the
    plan that has read none, so a built chain holds only the matrices.
    ``level_table[c-1]`` is the global index of the c-th nonblank level, and
    ``ordinal_table[g]`` and ``height_table[g]`` count the nonblanks up to
    level g along its row (its ordinal in its section) and down its column
    (its stack height, see `stack`); both are 0 at blanks and at the unused
    index 0.  ``level_table`` is sorted, so where a level sits in it is one
    search (`StageEmbedding.column_levels`), with no inverse table kept.
    `build_blank_plan` checks a plan's matrix once, before it makes the
    plan; a plan made directly is not checked.
    """

    spec: GridSpec
    stage: int
    F: BinaryMatrix

    def _counts(self, axis: int) -> np.ndarray:
        """The nonblanks up to each level along `axis` of F (1: its row, 0:
        its column), 0 at blanks, after a 0 for the unused index 0: one
        int32 table, cumulated and masked in place."""
        nonblank = 1 - self.F.bits
        table = np.zeros(nonblank.size + 1, dtype=np.int32)
        counts = table[1:].reshape(nonblank.shape)
        counts[...] = nonblank
        np.cumsum(counts, axis=axis, out=counts)
        counts *= nonblank
        table.flags.writeable = False
        return table

    @cached_property
    def ordinal_table(self) -> np.ndarray:
        return self._counts(1)

    @cached_property
    def height_table(self) -> np.ndarray:
        return self._counts(0)

    @cached_property
    def level_table(self) -> np.ndarray:
        levels = np.flatnonzero(self.F.bits.ravel() == 0).astype(np.int32)
        levels += 1
        levels.flags.writeable = False
        return levels

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


def build_blank_plan(
    spec: GridSpec, i: int, matrix: BinaryMatrix | None = None
) -> BlankPlan:
    """Blank designation for stage i, generated or externally seeded.

    With no matrix, rounds the constant-row target s_i(j)/width; an external
    matrix (e.g. a published worked example) is taken as given.  Either is
    checked one way, against the stage's blanks, so `s_sequence` runs once:
    the stage's shape, P_i sections of `width` slots, then the balance
    contract (`balance_violations`).
    """
    s = s_sequence(spec, i)
    width = 1 << spec.block_width(i)
    F = build_FX(RoundingSpec(s, width)) if matrix is None else matrix
    shape = _shape_fault(F, s, width)
    bad = [shape] if shape else balance_violations(F, s)
    if bad:
        raise ValueError(
            f"stage {i} designation matrix rejected: " + "; ".join(bad)
        )
    return BlankPlan(spec, i, F)


def _shape_fault(F: BinaryMatrix, s: np.ndarray, width: int) -> str:
    """Why F is not shaped as a stage with blanks per section `s` and
    sections of `width` slots, or "" if it is."""
    if F.m != len(s) or F.n != width:
        return f"shape {F.m}x{F.n}, want {len(s)}x{width}"
    return ""


def plan_fault(spec: GridSpec, i: int, F: BinaryMatrix) -> str:
    """Why F cannot be the designation matrix of stage i of the grid, or ""
    if it can: it must have the stage's P_i sections of `width` slots and
    s_i(r) blanks in section r, so that its nonblank levels are the u_i
    that stage i fills (the budget identity, `s_sequence`).  Read against
    the chain's grid, never the plan's own, so a plan made for another grid
    is refused unless it would serve this one.  `StageEmbedding.steps`
    compose a chain only through plans with no fault; the battery checks
    the rest of a plan's contract on the chain it stacked."""
    s = s_sequence(spec, i)
    fault = _shape_fault(F, s, 1 << spec.block_width(i))
    if not fault and not np.array_equal(F.bits.sum(axis=1), s):
        fault = f"blanks per section differ from s_{i}"
    return fault and f"stage {i} plan refused: {fault}"


def by_rank(table: np.ndarray, column: np.ndarray, out=None) -> np.ndarray:
    """A table over base columns read at each rank's base column: entry r
    is table[column[r] - 1], written to `out` (the table cast to its dtype
    first) or to a new array in the table's dtype.  Gathered RANK_BLOCK
    ranks at a time, so the only index array is one block's, never a
    |G|-entry intp one.  Every column lies in 1..len(table) (a chain's
    tables all have one entry per base column), so the gather writes
    straight into `out` in clip mode, which copies nothing (mode 'raise'
    buffers each block)."""
    if out is None:
        out = np.empty(len(column), dtype=table.dtype)
    table = table.astype(out.dtype, copy=False)
    for start in range(0, len(column), RANK_BLOCK):
        at = column[start : start + RANK_BLOCK] - 1
        table.take(at, out=out[start : start + RANK_BLOCK], mode="clip")
    return out


@dataclass(frozen=True, eq=False)
class StageEmbedding:
    """Stage `stage` of a composed map, read off a chain stored by base column.

    Every coordinate after the first is a function of the vertex's base
    column (see `stack`), so a chain stores only:

    - `row` and `column`: the base map's row (coordinate 1) and column of
      each rank, |G| read-only int32 entries each;
    - `tables`: one table over base columns for each coordinate 2..top of
      the chain's top stage, whose entry c - 1 is the coordinate of base
      column c minus 1, in the narrowest unsigned dtype holding it (a
      settled coordinate's 2^{t_j} block values, the top level's budget);
      a built table has u_2 entries;
    - `plans`: the blank plan, that is the designation matrix, of each
      stage 2..top - 1.  The top stage is len(plans) + 2: stage k once
      `build_fk` is done.

    Every stage of one chain shares them.  The rest is derived when read
    and kept by no embed: the `steps` and a stage's per-column level
    (`column_levels`) and packed address (`column_address`).  No row by
    rank but `row` and `column` is derived: a reader gathers the per-column
    tables a block of ranks at a time (`by_rank`).  The steps
    are the source levels of stages 3..top, composed from the plans: at
    stage i, a table over base columns whose entry c - 1 is the nonblank
    level of `plans[i - 3]` that base column c was inflated to, in the
    narrowest unsigned dtype holding the plan's P w levels.
    Coordinates 1..i-1 of stage i are the chain's settled coordinates.  Its
    last, a level index, is the top table at the top stage, and below it
    where the next stage's source level sits in the next plan's
    `level_table`: one search of that sorted table for the next step's
    entries.  A chain written over other columns than the base map's
    (the identity column 1..|G|, one table entry per vertex, as the tests'
    mutant chains are) gives its source levels as `sources`.
    """

    spec: GridSpec
    stage: int
    row: np.ndarray
    column: np.ndarray
    tables: tuple[np.ndarray, ...]
    plans: tuple[BlankPlan, ...] = ()
    sources: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        size = self.spec.size
        if self.row.shape != (size,) or self.column.shape != (size,):
            raise ValueError("the base row and column need one entry per vertex")
        if len(self.tables) != len(self.plans) + 1:
            raise ValueError("need one coordinate table per stage after the first")
        if self.sources is not None and len(self.sources) != len(self.plans):
            raise ValueError("need one source-level table per stacked stage")
        columns = {len(table) for table in (*self.tables, *(self.sources or ()))}
        if len(columns) != 1:
            raise ValueError("every table needs one entry per base column")
        if not 2 <= self.stage <= self.top:
            raise ValueError(f"stage {self.stage} not in the chain")

    @property
    def top(self) -> int:
        """The top stage of the chain."""
        return len(self.plans) + 2

    @cached_property
    def steps(self) -> tuple[np.ndarray, ...]:
        """The source-level table of each stacked stage 3..top, in order, up
        to the first plan refused: the given `sources`, or else each
        inflated level composed from the plans as `stack` composed it, from
        the base column at stage 2.  A plan with a `plan_fault` is refused,
        and so is one with fewer nonblank levels than the stage below it
        fills, so no plan's tables are read past their end; the steps stop
        short of the top stage there, and `refused` says why."""
        tables = []
        levels = np.arange(1, level_budget(self.spec, 2) + 1, dtype=np.int32)
        for i, plan in enumerate(self.plans, start=2):
            if plan_fault(self.spec, i, plan.F):
                break
            if self.sources is not None:
                tables.append(self.sources[i - 2])
                continue
            if levels.max() > len(plan.level_table):
                break
            # levels lie in 1..P w, the size of the plan's matrix
            narrow = unsigned_dtype(plan.F.bits.size.bit_length())
            tables.append(plan.level_table[levels - 1].astype(narrow))
            # nothing else in an audit reads a height table: not kept
            levels = plan._counts(0)[tables[-1]]
        return tuple(tables)

    @property
    def refused(self) -> str:
        """Why the `steps` stop short of the top stage, naming the plan
        they stop at; "" when every plan is composed."""
        i = len(self.steps) + 2
        if i == self.top:
            return ""
        plan = self.plans[i - 2]
        return plan_fault(self.spec, i, plan.F) or (
            f"stage {i} plan refused: {len(plan.level_table)} nonblank levels, "
            f"fewer than stage {i} fills"
        )

    def _step(self, i: int) -> np.ndarray:
        """The source-level table of stacked stage i, or a ValueError saying
        why the steps stop below it."""
        if i - 3 >= len(self.steps):
            raise ValueError(self.refused)
        return self.steps[i - 3]

    def column_levels(self) -> np.ndarray:
        """The stage's level for each base column (int32, read-only, kept
        by the stage): the top table plus 1 at the top stage, and below it
        where the next step's inflated levels sit in the next plan's sorted
        `level_table`, 1-based."""
        return self._column_levels

    @cached_property
    def _column_levels(self) -> np.ndarray:
        if self.stage == self.top:
            levels = self.tables[-1].astype(np.int32)
            levels += 1
        else:
            plan = self.plans[self.stage - 2]
            step = self._step(self.stage + 1)
            levels = (np.searchsorted(plan.level_table, step) + 1).astype(np.int32)
        levels.flags.writeable = False
        return levels

    @property
    def plan(self) -> BlankPlan | None:
        """The plan this stage was stacked through (None at stage 2)."""
        return self.plans[self.stage - 3] if self.stage > 2 else None

    def box(self) -> list[int]:
        """The largest value of each coordinate: the first i - 1 are settled
        block values, 1..2^{e_t - e_{t-1}}, and the last a level index,
        1..u_i (the stage's level budget)."""
        spec, i = self.spec, self.stage
        caps = [1 << spec.block_width(t) for t in range(1, i)]
        return caps + [level_budget(spec, i)]

    @cached_property
    def in_box(self) -> bool:
        """Whether every coordinate lies in 1..its `box` value.  The row is
        read by rank, and each settled coordinate and the level off its
        table over base columns: every base column holds a vertex (the
        grid's chains fill columns 1..u_2 in order, and a chain over the
        identity column holds every vertex)."""
        caps = self.box()
        ok = self.row.min() >= 1 and self.row.max() <= caps[0]
        for table, cap in zip(self.tables[: self.stage - 2], caps[1:]):
            ok = ok and table.min() >= 0 and table.max() <= cap - 1
        levels = self.column_levels()
        return bool(ok and levels.min() >= 1 and levels.max() <= caps[-1])

    @cached_property
    def column_address(self) -> np.ndarray:
        """Each base column's part of the address (read-only, u_2 entries).

        A vertex's address packs its leading block coordinates into one
        integer: coordinate j fills bits e_{j-1} up to e_j - 1, so the
        first i - 1 pack below 2^{e_{i-1}} and two vertices get the same
        address exactly when they agree in each.  Coordinates 2..i-1 are
        functions of the base column, so they are packed here, minus 1, once
        per base column, and a vertex's address is this entry at its base
        column plus its row (coordinate 1); a reader gathers it a block of
        ranks at a time and holds no |G|-entry row.  Inside the `box` every
        address is below 2^{e_{i-1}} <= 2^31 (n <= 31, `GridSpec`), so the
        table is int32, and a sort key that packs the address with more
        fields widens it itself; outside the box a coordinate may overrun
        its bits, and the table is int64."""
        spec = self.spec
        dtype = np.int32 if self.in_box else np.int64
        packed = np.full(len(self.tables[0]), -1, dtype=dtype)
        for j, table in enumerate(self.tables[: self.stage - 2], start=2):
            packed += table.astype(dtype) << spec.exponents[j - 1]
        packed.flags.writeable = False
        return packed

    def is_injective(self) -> bool:
        """Whether no two vertices share a stage-i coordinate tuple.

        Inside the `box`, each tuple packs into one int64 key without
        collision: the address (`column_address`) below 2^{e_{i-1}}, plus
        the level minus 1 from bit e_{i-1} up.  Keys then lie below
        2^{e_{i-1}} u_i, which is under |G| + 2^{e_{i-1}} < 3|G|, so one
        boolean mask of that size counts them, scattered a `check_block` of
        keys at a time: the level and the address are read off their tables
        over base columns, and no key row is built.  A coordinate outside
        the box can alias another key, so such a chain sorts its tuples
        (`np.unique`).
        """
        spec, i = self.spec, self.stage
        if not self.in_box:
            # coordinates 2..i are functions of the base column
            per_column = np.column_stack([*self.tables[: i - 2], self.column_levels()])
            rows = per_column.take(self.column - 1, axis=0, mode="clip")
            rows = np.column_stack([self.row, rows])
            return len(np.unique(rows, axis=0)) == spec.size
        shift, levels = spec.exponents[i - 1], self.column_levels()
        seen = np.zeros(level_budget(spec, i) << shift, dtype=bool)
        block = check_block(spec.size)
        for start in range(0, spec.size, block):
            # a block's ranks are fewer than RANK_BLOCK: one gather each
            at = self.column[start : start + block] - 1
            key = levels.take(at, mode="clip").astype(np.int64)
            key -= 1
            key <<= shift
            key += self.column_address.take(at, mode="clip")
            key += self.row[start : start + block]
            seen[key] = True
        return int(np.count_nonzero(seen)) == spec.size

    def stage_chain(self) -> "list[StageEmbedding]":
        """Stages 2..stage of the chain, earliest first (`view`)."""
        return [self.view(i) for i in range(2, self.stage + 1)]

    def view(self, i: int) -> "StageEmbedding":
        """Stage i of the chain, sharing its `steps`, composed once for
        every stage; it builds its per-column level and address only when
        read."""
        st = StageEmbedding(
            self.spec, i, self.row, self.column, self.tables, self.plans, self.sources
        )
        vars(st)["steps"] = self.steps
        return st


def inflate(prev: StageEmbedding, plan: BlankPlan) -> np.ndarray:
    """The nonblank global level of stage i's level for each base column:
    a table over base columns (u_2 int32 entries), not over vertices.

    Order-preserving, hence injective.  `build_fk`, the one caller of
    `stack`, passes stage i's own plan, whose P_i w - s(1) - ... - s(P_i) =
    ceil(|G| / h) = u_i nonblank levels (the budget identity at r = P_i;
    `build_blank_plan` checks every plan's row sums against s_i) cover
    prev's levels 1..u_i, its `box`.
    """
    return plan.level_table[prev.column_levels() - 1]


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
    column, on u_2 entries, and nothing is computed by rank: L is
    `inflate`'s table, and the new stage's chain replaces prev's top table
    by two, the offset minus 1 (the low bits of L - 1) and the height minus
    1, each in the narrowest unsigned dtype holding it.  The chain keeps a
    copy of the plan, whose count tables are read again when a battery or a
    test reads them, not the tables read here.

    Only the top stage of a chain is stacked: a stage below it was stacked
    already, and is refused.
    """
    i, spec = prev.stage, prev.spec
    if i != prev.top:
        raise ValueError(f"stage {i} is already stacked")
    table = inflate(prev, plan)
    offsets = table - 1
    offsets &= plan.width - 1
    heights = plan.height_table[table]
    heights -= 1
    tables = (
        *prev.tables[:-1],
        offsets.astype(unsigned_dtype(spec.block_width(i))),
        heights.astype(unsigned_dtype((level_budget(spec, i + 1) - 1).bit_length())),
    )
    sources = None if prev.sources is None else (*prev.sources, table)
    plans = (*prev.plans, BlankPlan(plan.spec, plan.stage, plan.F))
    return StageEmbedding(spec, i + 1, prev.row, prev.column, tables, plans, sources)


def _stage2(spec: GridSpec, base: BaseMap) -> StageEmbedding:
    """Stage 2 of a new chain from the base map: its row and column by rank,
    and the base column as the level (table entry c - 1 at column c)."""
    levels = np.arange(base.m, dtype=unsigned_dtype((base.m - 1).bit_length()))
    return StageEmbedding(spec, 2, base.row, base.column, (levels,))


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


def dump_stage(emb: StageEmbedding) -> Iterator:
    """Stage dump as blocks of ASCII bytes, rendered RANK_BLOCK ranks at a
    time as it is taken: the header "STAGE i u_i", then "rank: (c_1, ...,
    c_i)" lines.  Each field is the rank or a coordinate in its column's
    widest decimal width, followed by its separator; the padding NULs are
    dropped once per block.  A block reads only its own ranks' row and base
    column, and over base columns the settled tables (plus 1) and
    `column_levels`: every base column holds a vertex, so a table's largest
    entry is its coordinate's largest value."""
    spec, i = emb.spec, emb.stage
    settled = (np.add(table, 1, dtype=np.int32) for table in emb.tables[: i - 2])
    tables = [*settled, emb.column_levels()]
    seps = [b": (", *[b", "] * (i - 1), b")\n"]
    tops = [spec.size - 1, emb.row.max(), *(table.max() for table in tables)]
    widths = [len(str(int(x))) for x in tops]
    yield f"STAGE {i} {level_budget(spec, i)}\n".encode("ascii")
    for start in range(0, spec.size, RANK_BLOCK):
        stop = min(start + RANK_BLOCK, spec.size)
        at = emb.column[start:stop] - 1
        fields = [np.arange(start, stop), emb.row[start:stop], *(t[at] for t in tables)]
        block = np.empty((stop - start, sum(widths) + sum(map(len, seps))), np.uint8)
        col = 0
        for values, width, sep in zip(fields, widths, seps):
            block[:, col : col + width] = decimal_columns(values, width)
            col += width
            block[:, col : col + len(sep)] = np.frombuffer(sep, np.uint8)
            col += len(sep)
        lines = block.tobytes().translate(None, b"\0")
        del block, fields  # only the lines stay live while the consumer takes them
        yield lines
