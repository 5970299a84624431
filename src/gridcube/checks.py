"""Verification batteries, hypercube assembly, dilation reports, audits.

Every structural claim the construction relies on is expressed here as a
named check that PASSes, FAILs, or is REPORTED (measured, not asserted).  A
check's `gate` is the least grid side at which its FAIL stands (0: always);
below it, `_apply_gates` reports the finding.  The batteries are exhaustive
over their stated ranges -- no sampling except where a check is defined by it.
"""
from __future__ import annotations

import codecs
import itertools
import random
import re
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .base2d import fill_columns
from .caterpillars import CubeLabeling, best_labeling, gray_label
from .grids import (
    DEFAULT_VERTEX_CAP,
    RANK_BLOCK,
    AboveCap,
    GridSpec,
    check_block,
    keys_distinct,
    level_budget,
    unsigned_dtype,
)
from .rounding import BinaryMatrix
from .stages import StageEmbedding, build_fk, by_rank, decimal_columns

# ---------------------------------------------------------------------------
# Check results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named assertion: PASS, FAIL, or REPORTED (measured, not asserted)."""

    name: str
    status: str
    detail: str = ""
    gate: int = field(default=0, compare=False)  # least side a FAIL stands at

    def __post_init__(self):
        if self.status not in ("PASS", "FAIL", "REPORTED"):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def ok(self) -> bool:
        """True unless an applicable assertion failed."""
        return self.status != "FAIL"

    def line(self) -> str:
        if self.status == "REPORTED":
            return f"{self.name}: REPORTED({self.detail})"
        if self.detail and self.status == "FAIL":
            return f"{self.name}: FAIL {self.detail}"
        return f"{self.name}: {self.status}"


def _check(name: str, ok: bool, detail: str = "", gate: int = 0) -> CheckResult:
    return CheckResult(name, "PASS" if ok else "FAIL", "" if ok else detail, gate)


def _transition(name: str, ok: bool, detail: str = "") -> CheckResult:
    """A stacking-transition check: asserted when every side is at least 5."""
    return _check(name, ok, detail, gate=5)


def _apply_gates(checks: list[CheckResult], spec: GridSpec) -> list[CheckResult]:
    """The checks with each FAIL gated above the grid's least side turned
    into REPORTED, with the same detail: a finding, not an assertion."""
    side = min(spec.dims)
    return [
        replace(c, status="REPORTED") if c.status == "FAIL" and side < c.gate else c
        for c in checks
    ]


def _report(name: str, value) -> CheckResult:
    return CheckResult(name, "REPORTED", str(value))


def failed(checks) -> list[CheckResult]:
    return [c for c in checks if not c.ok]


def render_report(checks) -> str:
    return "\n".join(c.line() for c in checks) + "\n"


# ---------------------------------------------------------------------------
# Chain battery: the base map's occupancy, balance, and adjacency properties
# ---------------------------------------------------------------------------


def chain_battery(a1: int) -> list[CheckResult]:
    """Exhaustive property battery for the base 2-dimensional map.

    Builds the filled box of m = 256 columns for `a1` chains and checks every
    occupancy, initial-segment, window-count, balance, coverage, and
    adjacency property, plus the page-prefix containments for the grid
    restriction of chain length floor(m 2^{e1} / a1).  All checks are hard
    assertions except the step-total, which is measured and reported, and
    the segment-span check, which is sampled by its definition.

    The window counts are checked at widths 1..min(m, 2 a1) only, with the
    verdict of all widths 1..m.  Row i of R is periodic in j with period a1,
    so for W = q a1 + r (0 <= r < a1) a chain's count over W columns is
    q (a1 + S) plus its count over the last r of them, where S is the sum
    of R's first column; and the bound low(W) = W + floor((2^{e1} - a1) W
    / a1) is q 2^{e1} + low(r).  If S = 2^{e1} - a1, then a1 + S = 2^{e1}
    and every width-W window passes exactly when its width-r tail does,
    which the widths below a1 check (a tail of width 0 counts low(0) = 0).
    Otherwise every width-a1 window counts a1 + S, so width a1 fails unless
    a1 + S = 2^{e1} + 1, and then width 2 a1 counts 2^{e1 + 1} + 2, one
    above its range.  Both widths lie in the checked range whenever they
    lie in 1..m.

    The grid restriction's chain length L = floor(m 2^{e1} / a1) needs no
    check of its own: a1 <= 2^{e1} gives L >= m >= 2, and (m - 1) 2^{e1}
    <= m 2^{e1} - a1 < a1 L <= m 2^{e1}, so ceil(a1 L / 2^{e1}) = m: the
    grid's chains of length L reach the last column.  With a1 >= 2 and
    L >= 2, every step array below and the sampled lengths 2..L are nonempty.
    """
    m = 256
    emb = fill_columns(a1, m)
    height = emb.height
    out: list[CheckResult] = []

    rows, cols = emb.rows, emb.cols
    chain_start = emb.offsets[:-1]
    lengths = np.diff(emb.offsets)

    first = np.array(emb.R.first_column, dtype=np.int64)
    i_idx = np.arange(1, a1 + 1)[:, None]
    j_idx = np.arange(1, m + 1)[None, :]
    Rmat = first[(i_idx - j_idx) % a1]
    cumN = np.zeros((a1, m + 1), dtype=np.int64)
    cumN[:, 1:] = j_idx + np.cumsum(Rmat, axis=1)

    # occupancy 1 + R(i,j) per (chain, column); doubles at successive rows;
    # column index monotone along each chain with steps 0 or 1
    ok = np.array_equal(np.diff(emb.prefix_counts, axis=1), 1 + Rmat)
    inside = np.ones(len(cols) - 1, dtype=bool)
    inside[chain_start[1:] - 1] = False
    step = np.diff(cols)[inside]
    stay = np.flatnonzero(inside)[step == 0]
    ok = (
        ok
        and bool(np.isin(step, (0, 1)).all())
        and bool((np.abs(rows[stay + 1] - rows[stay]) == 1).all())
    )
    out.append(_check("chain.occupancy-and-monotone", ok))

    # columns list chains bottom-up in chain order (initial segments), and
    # the first r chains fill exactly r + sum_{i<=r} R(i,j) cells
    owner = emb.column_inverse()
    sizes = np.arange(1, a1 + 1)[:, None] + np.cumsum(Rmat, axis=0)
    seen = np.bincount(
        (np.arange(m)[:, None] * (a1 + 1) + owner).ravel(), minlength=m * (a1 + 1)
    ).reshape(m, a1 + 1)
    ok = bool((np.diff(owner, axis=1) >= 0).all()) and np.array_equal(
        np.cumsum(seen[:, 1:], axis=1), sizes.T
    )
    out.append(_check("chain.initial-segments", ok))

    # per-chain window counts over any column interval take one of the two
    # values allowed by the surplus density (so same-width windows on any
    # chains differ by at most 1); one width W at a time, so the scratch is
    # a1 x m and not a1 x m x m, and widths past 2 a1 repeat a verdict (see
    # the docstring)
    ok = True
    for W in range(1, min(m, 2 * a1) + 1):
        counts = cumN[:, W:] - cumN[:, :-W]
        low = W + (height - a1) * W // a1
        if counts.min() < low or counts.max() > low + 1:
            ok = False
            break
    out.append(_check("chain.window-counts", ok))

    # balance of chain prefix counts and column fill sizes; fills of
    # consecutive chain prefixes sit in two-value sets one step apart, so
    # they can differ by up to 3 (not 2: the sets slide when the surplus
    # run sum steps)
    nspread = cumN[:, 1:].max(axis=0) - cumN[:, 1:].min(axis=0)
    smax, smin = sizes.max(axis=1), sizes.min(axis=1)
    rspread = smax - smin
    cross = np.maximum(smax[1:] - smin[:-1], smax[:-1] - smin[1:])
    out.append(
        _check(
            "chain.prefix-balance",
            bool((nspread <= 1).all() and (rspread <= 1).all() and (cross <= 3).all()),
        )
    )

    # the full box is covered exactly: every column holds `height` cells
    dense = bool((owner > 0).all())
    out.append(_check("chain.box-cover", dense and int(lengths.sum()) == m * height))

    # grid restriction of chain length L fits the box and covers all but the
    # last column (L's own bounds are proved in the docstring)
    L = (m * height) // a1
    ok = bool((lengths >= L).all()) and bool((cumN[:, m - 1] <= L).all())
    out.append(_check("chain.grid-cover", ok, f"chain length {L}"))

    # same position across chains lands in columns within 1
    pmin = int(lengths.min())
    poscols = cols[chain_start[:, None] + np.arange(pmin)]
    pspread = poscols.max(axis=0) - poscols.min(axis=0)
    out.append(_check("chain.position-columns", bool((pspread <= 1).all())))

    # each chain stays within three consecutive rows
    out.append(
        _check(
            "chain.chain-rows",
            bool(
                (
                    np.maximum.reduceat(rows, chain_start)
                    - np.minimum.reduceat(rows, chain_start)
                    <= 2
                ).all()
            ),
        )
    )

    # where the circulant doubles a chain's contribution, the next column's
    # fill is no larger and the next chain's prefix count is no larger
    doubled = Rmat == 1
    ok = bool((~doubled[:, :-1] | (sizes[:, :-1] >= sizes[:, 1:])).all()) and bool(
        (~doubled[:-1] | (cumN[:-1, 1:] >= cumN[1:, 1:])).all()
    )
    out.append(_check("chain.shift-monotone", ok))

    # grid adjacency: consecutive chain positions and same-position
    # neighbours move at most 3 rows and 1 column
    gr = rows[chain_start[:, None] + np.arange(L)]
    gc = cols[chain_start[:, None] + np.arange(L)]
    drow = np.abs(np.diff(gr, axis=1))
    dcol = np.abs(np.diff(gc, axis=1))
    xrow = np.abs(np.diff(gr, axis=0))
    xcol = np.abs(np.diff(gc, axis=0))
    ok = max(drow.max(), xrow.max()) <= 3 and max(dcol.max(), xcol.max()) <= 1
    out.append(_check("chain.adjacent-steps", bool(ok)))
    total = max(int((drow + dcol).max()), int((xrow + xcol).max()))
    out.append(_report("chain.adjacent-step-total", total))

    # sampled: equally long chain segments span column counts within 1
    rng = random.Random(10_000 + a1)
    ok = True
    for _ in range(24):
        p = rng.randint(2, L)
        spans = []
        for _ in range(8):
            i = rng.randrange(a1)
            s = rng.randint(1, L - p + 1)
            spans.append(int(gc[i, s + p - 2] - gc[i, s - 1]) + 1)
        if max(spans) - min(spans) > 1:
            ok = False
            break
    out.append(_check("chain.segment-spans", ok))

    # two-position page prefixes: the columns they reach are covered fully
    # below the last one, and overshoot the page size by less than a column
    two_r = np.arange(2, 2 * (L // 2) + 1, 2)
    redge = gc[:, two_r - 1].max(axis=0)
    below = np.minimum(cumN[:, redge - 1], two_r).sum(axis=0)
    over = redge * height - a1 * two_r
    ok = bool(
        ((below == (redge - 1) * height) & (over >= 0) & (over < height)).all()
    )
    out.append(_check("chain.page-prefixes", ok))
    return out


# ---------------------------------------------------------------------------
# Pipeline battery: per-stage and per-transition structural properties
# ---------------------------------------------------------------------------


# The checks of one stacking transition, without their "pipeline.stage{j}."
# prefix, in the order the battery lists them (`_transition_checks`).
TRANSITION_CHECKS = (
    "level-coverage",
    "stack-two-value",
    "stack-last-coordinate",
    "stack-height-formula",
    "page-level-bounds",
    "page-section-containment",
    "section-page-window",
    "stack-section-monotone",
    "stack-page-monotone",
    "stack-missing-top",
    "stack-top-occupancy",
    "stack-top-occupancy-first",
    "page-stack-pair",
    "subpage-level-alignment",
    "section-height-spread",
    "page-height-spread",
)


class _StageRows:
    """What one stacking transition's checks read, by blocks of ranks.

    Every coordinate after the first is a function of the base column, so
    a stage holds no row by rank.  Its rows are tables over base columns,
    u_2 entries each (|G| for a chain over the identity column): the
    stage's level (the `heights`, int32), the source level clipped into
    the plan's levels 1..P w (`levels`) and its section, 0-based
    (`sections`), both in the step's dtype, and the packed address less
    the row (`address`, `StageEmbedding.column_address`).  A check reads
    them one block of `check_block` ranks at a time
    (`StageEmbedding.rank_blocks`), so a check group holds its block
    scratch, near 4 B per vertex, beside at most one |G|-sized table or
    key.  Pages are rank blocks: ranks are reversed-lexicographic (x_1
    fastest), so the (j - 1)-page of rank x is x // A, 0-based, with A =
    a_1...a_{j-1}.
    """

    def __init__(self, emb: StageEmbedding, step: np.ndarray):
        plan = emb.plan
        self.emb = emb
        self.size = emb.spec.size
        self.column = emb.column
        self.row = emb.row
        self.in_box = emb.in_box
        self.heights = emb.column_levels
        self.address = emb.column_address
        # a source level off the plan's levels 1..P * width fails prefix
        # stability; clipped, it indexes the plan's tables like any other
        self.levels = np.maximum(step, 1)
        np.minimum(self.levels, plan.pages * plan.width, out=self.levels)
        self.sections = self.levels - 1
        self.sections >>= plan.width.bit_length() - 1
        self.pages = plan.pages
        self.A = emb.spec.prefix_product(emb.stage - 1)
        self.block = check_block(self.size)

    def page(self, start: int, stop: int) -> np.ndarray:
        """The 0-based page of ranks start..stop - 1."""
        return np.arange(start, stop) // self.A


def _transition_checks(emb: StageEmbedding, step: np.ndarray) -> list[CheckResult]:
    """Checks for one stacking transition (embedding stage j >= 3), whose
    step, the source level of each base column, the caller hands over.
    The battery runs them only on a stage whose steps are composed and
    whose address lies in its box, as the tables over addresses need; its
    level may lie outside.

    Every check keeps its per-vertex form, read through `_StageRows`: the
    stage's address, heights and source levels are tables over base
    columns, read a block of ranks at a time, and no row by rank is held.
    Beside them each check group builds at most one |G|-sized array: a
    table over addresses by sections (M x P, under 2|G| entries, in the
    narrowest unsigned dtype holding |G|) or the 8-byte stacking key, which
    `stack-section-monotone`, `stack-page-monotone` and `page-stack-pair`
    all read in one pass.  Each group is a function of its own, so its
    scratch dies when it returns.

    Pages are rank blocks (`_StageRows`): a per-vertex bound on page r is
    an entry of a P-entry array read at the vertex's page, P = P_{j-1}, and
    no page index is stored.  The subpage position q within a page is
    (x // a_1...a_{j-2}) mod a_{j-1}.

    Two clauses of the paper's stacking lemmas read only the grid, never
    the embedding, and hold for every grid, so no check tests them.  With
    l_r = ceil(r A / M), the height formula's slack l_r M - r A lies in
    [0, M) for every r.  With L = 2^{e_{j-2}}, the section prefix after
    page prefix r is strictly larger: ceil(r A / L) L < r A + L <=
    (r + 1) A, because L < 2 a_1...a_{j-2} <= a_{j-1} a_1...a_{j-2} = A.

    Inside the stage's `box` the stacking order is one int64 key per
    vertex, sorted once: its bit fields, most significant first, are the
    `address` (below M = 2^{e_{j-1}}), the height (1..u_j) and the vertex
    rank, each as wide as its range, which the box guarantees.  With the
    rank as the lowest field every key is distinct, so the sorted keys give
    exactly the permutation of a stable lexsort of (address, height), ties
    included.  The key fits in 63 bits, as |G| <= 2^31 (`GridSpec`) gives
    n <= 31: the address has e_{j-1} bits, the rank n and the height at
    most n - e_{j-1} + 1, as u_j = ceil(|G| / M) <= 2^{n - e_{j-1}}.  A
    stage whose level leaves its box takes the lexsort.

    The plan is stage j - 1's, and `build_blank_plan` plans stages 2..k-1
    only, so P = P_{j-1} >= a_k >= 2.  `page-level-bounds` needs only h <=
    l_r on (j - 1)-page r: the page lies in j-page r' = ceil(r / a_j), and
    r A <= r' a_j A puts l_r within the j-page bound ceil(r' a_j A / M);
    and l_r <= l_P = ceil(|G| / M) = u_j.
    """
    spec = emb.spec
    j = emb.stage
    plan = emb.plan
    pre = f"pipeline.stage{j}."
    rows = _StageRows(emb, step)
    P = rows.pages
    M = 1 << spec.exponents[j - 1]
    # page prefixes r = 1..P and their bracket ceil(r A / M)
    l_arr = -(-np.arange(1, P + 1, dtype=np.int64) * rows.A // M)

    out = _level_coverage(plan, rows, pre)
    w_last = 1 << spec.block_width(j - 1)
    bracket, stacks = _section_stacks(rows, M, l_arr, w_last, pre)
    out += stacks
    out.append(
        _transition(
            pre + "stack-height-formula",
            bool(np.array_equal(bracket, l_arr)),
            f"measured {bracket[:8].tolist()}..., expected {l_arr[:8].tolist()}...",
        )
    )
    out += _page_bounds(rows, l_arr, pre)
    out += _stacking_order(rows, bracket, level_budget(spec, j).bit_length(), pre)
    out += _top_levels(rows, bracket, M, pre)
    out += _subpage_alignment(plan, rows, spec.dims[j - 2], pre)
    # listed in the order of TRANSITION_CHECKS, which names each just once
    named = {c.name[len(pre) :]: c for c in out}
    assert len(named) == len(out) == len(TRANSITION_CHECKS)
    return [named[name] for name in TRANSITION_CHECKS]


def _in_band(table: np.ndarray, low, high) -> bool:
    """Whether every column c of the table lies in low[c]..high[c]: read
    off its column minima and maxima, with no table-sized mask."""
    return bool((table.min(axis=0) >= low).all() and (table.max(axis=0) <= high).all())


def _spreads_within(lo: np.ndarray, hi: np.ndarray, within: int, across: int) -> bool:
    """Whether each group's heights lo..hi span at most `within`, and each
    two neighbouring groups' together at most `across`; compared in int64,
    so no int32 height or empty-group sentinel wraps."""
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    return bool((hi - lo <= within).all()) and bool(
        (np.maximum(hi[1:], hi[:-1]) - np.minimum(lo[1:], lo[:-1]) <= across).all()
    )


def _clamp(x: np.ndarray, high: int) -> np.ndarray:
    """x clipped into 0..high in place (`np.clip` without its wrapper's
    cost on small blocks)."""
    np.maximum(x, 0, out=x)
    return np.minimum(x, high, out=x)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in ascending order, the keys sorted in place."""
    keys.sort()
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def _count_into(table: np.ndarray, index: np.ndarray, limit: int, ufunc=np.add) -> None:
    """Add (or, with np.subtract, take) to each table[i] the number of
    times i occurs in index, in place.  A table of at most `limit` entries
    takes one bincount, whose intp counts are then no larger than a block's
    scratch; a longer one takes an unbuffered scatter, which makes no
    table-sized array."""
    if len(table) <= limit:
        counts = np.bincount(index, minlength=len(table))
        ufunc(table, counts, out=table, casting="unsafe")
    else:
        ufunc.at(table, index, table.dtype.type(1))


def _level_coverage(plan, rows, pre) -> list[CheckResult]:
    """Level coverage: every nonblank level outside the last section is hit
    by exactly level_size = 2^{e_{j-2}} vertices, counted into an int32
    table a block of ranks at a time."""
    counts = np.zeros(plan.pages * plan.width + 1, dtype=np.int32)
    for *_, level in rows.emb.rank_blocks(rows.block, rows.levels):
        _count_into(counts, level, rows.block)
    levels = plan.level_table
    interior = levels[plan.section_of(levels) <= plan.pages - 1]
    ok = bool((counts[interior] == 1 << plan.spec.exponents[plan.stage - 1]).all())
    return [_transition(pre + "level-coverage", ok)]


def cell_prefix_counts(rows, M: int, by_page: bool = False) -> np.ndarray:
    """Points per address and section prefix: entry (m, r - 1) of the
    M x P table counts the points with address m in sections 1..r, or,
    `by_page`, whose section and page are both at most r.  No count passes
    |G|, so the table is in the narrowest unsigned dtype holding |G|.  Each
    block of ranks counts its cells m P + r - 1 into the table
    (`_count_into`), which is then cumulated along the sections in place.  At stage j, with M =
    2^{e_{j-1}} and P = P_{j-1}, the table has under 2|G| entries, since
    P = |G| / (a_1...a_{j-1}) and 2^{e_{j-1}} < 2 a_1...a_{j-1}.
    """
    P = rows.pages
    dtype = unsigned_dtype(rows.size.bit_length())
    table = np.zeros((M, P), dtype=dtype)
    cells = table.reshape(-1)
    blocks = rows.emb.rank_blocks(rows.block, rows.address, rows.sections)
    for start, stop, addr, section in blocks:
        cell = addr.astype(np.int64)
        cell += rows.row[start:stop]
        cell *= P
        cell += np.maximum(section, rows.page(start, stop)) if by_page else section
        _count_into(cells, cell, rows.block)
    return np.cumsum(table, axis=1, dtype=dtype, out=table)


def _section_stacks(rows, M, l_arr, w_last, pre):
    """The cumulative stack heights per address over section prefixes (the
    battery's own count of the stored chain's points, not the heights
    `stack` wrote): its column maxima, the `bracket`, and the checks on the
    table: in every section prefix but the last each entry is the page
    bracket or one below, and equal across addresses that share their last
    block coordinate (the address's top bits)."""
    P = len(l_arr)
    T_sec = cell_prefix_counts(rows, M)
    head = T_sec[:, : P - 1]
    band = _in_band(head, l_arr[: P - 1] - 1, l_arr[: P - 1])
    grouped = head.reshape(w_last, M // w_last, P - 1)
    same = bool((grouped.max(axis=1) == grouped.min(axis=1)).all())
    return T_sec.max(axis=0).astype(np.int64), [
        _transition(pre + "stack-two-value", band),
        _transition(pre + "stack-last-coordinate", same),
    ]


def _page_bounds(rows, l_arr, pre):
    """The per-vertex bounds and the height spreads, in one pass of blocks.

    Heights across one section or page stay within the stated spreads:
    each group's lowest and highest height (empty: the int32 maximum, -1)
    goes into P-entry tables, a block at a time, by scatter for sections
    and for pages, which are runs of ranks, by a reduction over each run.
    Every page holds A ranks, so per-vertex level bounds read the page
    tables: each height lies within its page's budget, hence within the
    j-page budgets and u_j (see `_transition_checks`).  Sections track
    pages: the image of a page prefix stays inside the matching section
    prefix, one section below the page at most.
    """
    P, A = rows.pages, rows.A
    tables = np.full((4, P), np.iinfo(np.int32).max, dtype=np.int32)
    tables[1::2] = -1
    window = True
    blocks = rows.emb.rank_blocks(rows.block, rows.heights, rows.sections)
    for start, stop, h, section in blocks:
        page = rows.page(start, stop)
        window = window and bool(((section <= page) & (page <= section + 1)).all())
        np.minimum.at(tables[0], section, h)
        np.maximum.at(tables[1], section, h)
        # the block's pages page[0].., each from its first rank in the block
        runs = np.arange(int(page[0]) * A, stop, A) - start
        runs[0] = 0
        pages = slice(int(page[0]), int(page[0]) + len(runs))
        np.minimum(tables[2, pages], np.minimum.reduceat(h, runs), out=tables[2, pages])
        np.maximum(tables[3, pages], np.maximum.reduceat(h, runs), out=tables[3, pages])
    bounded = bool((tables[3] <= l_arr).all()) and bool((tables[2] >= 1).all())
    return [
        _transition(pre + "page-level-bounds", bounded),
        _transition(pre + "page-section-containment", window),
        _transition(pre + "section-page-window", window),
        _transition(pre + "section-height-spread", _spreads_within(*tables[:2], 1, 2)),
        _transition(pre + "page-height-spread", _spreads_within(*tables[2:], 2, 3)),
    ]


def _stacking_blocks(rows, height_bits) -> Iterator[tuple]:
    """(address, height, rank) of every vertex in stacking order, by
    (address, height, rank), a run of whole addresses at a time.

    Inside the box the order is one int64 key per vertex (see
    `_transition_checks`), built a block of ranks at a time and sorted in
    place.  A run's nominal length is half a block, as it runs on to the
    end of an address: each run ends where the address at its nominal end
    begins (or, if one address fills the run, where the next begins),
    found by a search of the sorted keys, and its fields are read back off
    the keys.
    Outside the box the order is the lexsort of the stage's level and
    address by rank, taken in one run.
    """
    if not rows.in_box:
        h = by_rank(rows.heights, rows.column)
        addr = by_rank(rows.address, rows.column)
        addr += rows.row
        order = np.lexsort((h, addr))
        yield addr[order], h[order], order
        return
    rank_bits = (rows.size - 1).bit_length()
    shift = height_bits + rank_bits
    key = np.empty(rows.size, dtype=np.int64)
    blocks = rows.emb.rank_blocks(rows.block, rows.address, rows.heights)
    for start, stop, addr, h in blocks:
        part = key[start:stop]
        part[...] = addr
        part += rows.row[start:stop]
        part <<= height_bits
        part |= h
        part <<= rank_bits
        part |= np.arange(start, stop)
    key.sort()
    start = 0
    while start < rows.size:
        stop = start + (rows.block >> 1)
        if stop < rows.size:
            first = int(key[stop]) >> shift << shift
            stop = int(np.searchsorted(key, first))
            if stop == start:
                stop = int(np.searchsorted(key, first + (1 << shift) - 1, side="right"))
        part = key[start:stop]
        height = part >> rank_bits
        height &= (1 << height_bits) - 1
        # every field is below 2^31 (n <= 31); none is kept here
        height = height.astype(np.int32)
        yield (
            (part >> shift).astype(np.int32),
            height,
            (part & ((1 << rank_bits) - 1)).astype(np.int32),
        )
        start = stop


def _stacking_order(rows, bracket, height_bits, pre):
    """Stacking order and single-page stack slices, off one pass over the
    vertices in stacking order (`_stacking_blocks`).

    Stacking order: within a stack, height ascends exactly with the source
    section, and source pages never descend.

    Single-page stack slices, over the vertices whose section is at most
    their page: at most two entries, at successive heights, within two of
    the section-prefix maximum (the page's `bracket`).  The slices read the
    (address, page, height) order; where pages never descend along a stack
    it is the stacking order restricted to the slices' vertices, and a run
    in which they do descend is sorted by (address, page) stably, which
    keeps the heights ascending within each slice.  A run holds whole
    addresses, so whole slices.
    """
    section_ok = page_ok = pair_ok = True
    bracket = bracket.astype(np.int32)  # no bracket passes |G|
    for addr, h, rank in _stacking_blocks(rows, height_bits):
        same = addr[1:] == addr[:-1]
        section = rows.sections.take(rows.column[rank] - 1, mode="clip")
        page = rank // rows.A
        # a run may hold one whole address of u_j points beside the key, so
        # each of its rows is dropped as soon as it is read
        del rank
        section_ok = section_ok and not (same & (section[1:] <= section[:-1])).any()
        if (same & (page[1:] < page[:-1])).any():
            page_ok = False
            order = np.lexsort((page, addr))
            addr, h, section, page = addr[order], h[order], section[order], page[order]
        del same
        if not pair_ok:
            continue
        inside = section <= page
        del section
        top = bracket[page]
        pair_ok = bool((((h <= top) & (h >= top - 2)) | ~inside).all())
        del top
        am, pm, hm = addr[inside], page[inside], h[inside]
        slice_ = (am[1:] == am[:-1]) & (pm[1:] == pm[:-1])
        # a slice of three would hold two neighbouring same-slice pairs
        pair_ok = pair_ok and not (slice_[1:] & slice_[:-1]).any()
        pair_ok = pair_ok and bool(((hm[1:] - hm[:-1])[slice_] == 1).all())
    return [
        _check(pre + "stack-section-monotone", section_ok),
        _transition(pre + "stack-page-monotone", page_ok),
        _transition(pre + "page-stack-pair", pair_ok),
    ]


def _top_levels(rows, bracket, M, pre) -> list[CheckResult]:
    """The top two levels of the page-prefix stacks.

    Page-prefix stacks count within 2 of the section-prefix maximum, and
    everything below the top two levels is already covered by the prefix:
    a vertex's page is at most one above `need`, the first prefix whose
    bracket reaches h + 2 (where bracket - 2 reaches h), which every page
    meets where `need` is P.

    The top-two-level occupancy of each page prefix exceeds one full level:
    top[r - 1] counts the vertices of pages 1..r at height bracket[r - 1]
    or one below.  Since the bracket never decreases, each vertex counts on
    one interval of r, from `start` up to `need`, added through a
    difference array; a `start` clipped to `need` adds and removes at one
    prefix, which cancels.  Both read `reach[x]`, the first prefix whose
    bracket reaches x, x = 0..bracket[-1] + 1: the bracket is nonnegative
    and nondecreasing, so at x clipped into the table (h + 2 in int64) it
    is exact for any height, inside the box or not.  A height is a function
    of the base column, so both prefixes are read once per base column.
    """
    P = rows.pages
    ok = _in_band(cell_prefix_counts(rows, M, by_page=True), bracket - 2, bracket)
    reach = np.searchsorted(bracket, np.arange(bracket[-1] + 2)).astype(np.int32)
    last = len(reach) - 1
    need_at = reach[_clamp(rows.heights + np.int64(2), last)]
    start_at = reach[_clamp(rows.heights.astype(np.int64), last)]
    top = np.zeros(P + 1, dtype=np.int64)
    for start, stop, need, begin in rows.emb.rank_blocks(rows.block, need_at, start_at):
        page = rows.page(start, stop)
        ok = ok and bool((need >= page).all())
        np.maximum(begin, page, out=begin)
        np.minimum(begin, need, out=begin)
        _count_into(top, begin, rows.block)
        _count_into(top, need, rows.block, np.subtract)
    np.cumsum(top, out=top)
    short = np.flatnonzero(top[1:P] <= M) + 1
    br = int(bracket[0])
    h1 = rows.heights.take(rows.column[: rows.A] - 1, mode="clip")
    first = np.count_nonzero((h1 == br) | ((h1 == br - 1) & (br >= 2)))
    return [
        _transition(pre + "stack-missing-top", ok),
        _transition(
            pre + "stack-top-occupancy",
            not len(short),
            f"prefix {short[0] + 1} holds {top[short[0]]} <= {M}" if len(short) else "",
        ),
        _report(pre + "stack-top-occupancy-first", f"{first} vs {M}"),
    ]


def _subpage_alignment(plan, rows, a_next, pre) -> list[CheckResult]:
    """Same subpage position => nonblank-level ordinals within 3
    cyclically; the first pair past 3 in (ordinal, row size) order is the
    one reported.

    A vertex's subpage position q, its level's ordinal and its section's
    row size pack into one key, (q (w + 1) + ordinal) t + size - least,
    where t counts the row sizes from the least up; the (ordinal, size)
    part is a function of the level, so it is packed once per base
    column.  The plan's row sums
    are s_i, which takes two values (`s_sequence`), so t <= 2 and the
    keys stay below a_{j-1} (w + 1) 2 < 2^61, as w < 2 a_{j-1} and a_{j-1}
    <= |G| / 4 <= 2^29.  Where they stay below |G|, each block of ranks
    marks its keys in a mask over that range, read in ascending order at
    the end; otherwise each block keeps its distinct keys, and the blocks'
    are merged once, in (q, ordinal, size) order.  Either way no |G|-entry
    row is gathered or sorted.  One pass per d compares
    each distinct key t with key t + d where both share a q.  The distance
    is symmetric and 0 on a pair with itself, so a position's first far
    pair is its least far (t, d).
    """
    width = plan.width
    sizes = width - plan.F.bits.sum(axis=1, dtype=np.int64)
    least = int(sizes.min())
    spread = int(sizes.max()) - least + 1
    sizes -= least
    inner = rows.A // a_next
    radix = (width + 1) * spread
    pairs = plan.ordinal_table[rows.levels].astype(np.int64)
    pairs *= spread
    pairs += sizes[rows.sections]
    # a key range no larger than |G| is marked in a mask, 1 B per key
    seen = np.zeros(a_next * radix, dtype=bool) if a_next * radix <= rows.size else None
    distinct = []
    for start, stop, pair in rows.emb.rank_blocks(rows.block, pairs):
        key = np.arange(start, stop, dtype=np.int64)
        key //= inner
        key %= a_next
        key *= radix
        key += pair
        if seen is None:
            distinct.append(_distinct(key))
        else:
            seen[key] = True
    if seen is not None:
        keys = np.flatnonzero(seen)
    else:
        keys = distinct[0] if len(distinct) == 1 else _distinct(np.concatenate(distinct))
    q, pair = np.divmod(keys, radix)
    ordinal, size = np.divmod(pair, spread)
    size += least
    worst, first = "", len(ordinal)
    # q ascends, so once no two keys d apart share a q, no two further do
    d, same = 1, q[1:] == q[:-1]
    while same.any():
        v1, v2, m1, m2 = ordinal[:-d], ordinal[d:], size[:-d], size[d:]
        dist = np.minimum(np.abs(v2 - v1), np.minimum(m1 - v1 + v2, m2 - v2 + v1))
        hit = np.flatnonzero((dist > 3) & same)
        if len(hit) and hit[0] < first:
            first = t = int(hit[0])
            worst = f"ordinals {v1[t]},{v2[t]} at distance {dist[t]}"
        d += 1
        same = q[d:] == q[:-d]
    return [_transition(pre + "subpage-level-alignment", not worst, worst)]


def pipeline_battery(emb: StageEmbedding) -> list[CheckResult]:
    """Structural battery over the full stage chain of a composed embedding.

    Injectivity, coordinate ranges, prefix stability, the blank budget
    identity and `stack-section-monotone` are hard assertions; every other
    transition check carries gate 5, applied once to the transition list.
    Every stage reads the chain's one verdict on each plan (its
    `faults`) and the steps composed through the plans with none, shared
    by every stage.  A stage holds no row by rank: its level, source
    levels and packed addresses are read off tables over base columns a
    block of ranks at a time (`_StageRows`), and its transition checks hold
    one |G|-sized table or key at a time (`_transition_checks`).

    A malformed chain fails checks and raises nothing.  A plan's
    `blank-budget` is its verdict, with the fault as the detail.  The steps
    stop at the first plan refused, and every check that reads a step past
    it fails unrun, with the reason: stage j's level below the top reads
    step j + 1, so its injectivity, coordinate range and transition checks
    fail from the refused plan's stage up; its prefix stability reads step
    j, so it fails from the next stage up.  The top stage's level is its
    own table.  A stage whose address (coordinates 1..j-1) leaves its box
    fails its transition checks unrun, naming the least coordinate outside.
    Stage 2's coordinate range also bounds the stored base column to
    1..u_2, which every read by rank clips into.
    """
    spec = emb.spec
    out: list[CheckResult] = []
    stable: list[CheckResult] = []
    budgets: list[CheckResult] = []
    transitions: list[CheckResult] = []
    composed = len(emb.steps) + 2  # the stages whose source levels are composed
    why = ""
    if composed < emb.top:
        why = emb.faults[composed - 2] or (
            f"stage {composed} plan refused: {len(emb.plans[composed - 2].level_table)} "
            f"nonblank levels, fewer than stage {composed} fills"
        )
    for j in range(2, emb.stage + 1):
        st = emb.view(j)
        pre = f"pipeline.stage{j}."
        level_ok, source_ok = j < composed or j == emb.top, j <= composed
        # the first j - 1 coordinates are settled block values and the last
        # a level index bounded by the stage's level budget: its `box`
        if level_ok:
            ok = st.in_box
            if j == 2:
                column = st.column
                ok = ok and int(column.min()) >= 1 and int(column.max()) <= len(st.tables[0])
            out.append(_check(pre + "injective", st.is_injective()))
            out.append(_check(pre + "coordinate-range", ok))
        else:
            out.append(_check(pre + "injective", False, why))
            out.append(_check(pre + "coordinate-range", False, why))
        if st.plan is None:
            continue
        plan = st.plan
        if source_ok:
            source = st.steps[j - 3]
            # the chain stores stage j - 1's level as these source levels:
            # each must be a nonblank level of the plan (one with a nonzero
            # ordinal), and its offset the coordinate stage j settled; read
            # per base column, as every base column holds a vertex
            ordinals = plan.ordinal_table
            ok = (
                int(source.min()) >= 1
                and int(source.max()) < len(ordinals)
                and bool((ordinals[source] > 0).all())
                and np.array_equal(st.tables[j - 3], plan.offset_of(source) - 1)
            )
            stable.append(_check(pre + "prefix-stability", ok))
        else:
            stable.append(_check(pre + "prefix-stability", False, why))
        fault = emb.faults[j - 3]
        budgets.append(_check(f"pipeline.stage{j - 1}.blank-budget", not fault, fault))
        unrun = why
        if level_ok and source_ok:
            unrun = ""
            if not st.in_box and st.first_outside < j:
                c = st.first_outside
                unrun = f"stage {j} coordinate {c} outside 1..{st.box()[c - 1]}"
        if unrun:
            transitions += [_check(pre + name, False, unrun) for name in TRANSITION_CHECKS]
        else:
            transitions += _transition_checks(st, st.steps[j - 3])
    return out + stable + budgets + _apply_gates(transitions, spec)


# ---------------------------------------------------------------------------
# Coordinate differences across grid edges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateDiffs:
    """Per-dimension coordinate movement across grid edges.

    `cyclic[j-1][i0-1]` is the largest cyclic difference (mod the block
    size 2^{e_j - e_{j-1}}) of output coordinate j across edges that step in
    grid dimension i0.
    """

    spec: GridSpec
    cyclic: tuple[tuple[int, ...], ...]

    def per_dimension(self) -> tuple[int, ...]:
        return tuple(max(row) for row in self.cyclic)


def _rotate(d: np.ndarray, mask) -> np.ndarray:
    """Rotate unsigned differences d = b - a of coordinates a, b in 1..2^t,
    held in a `unsigned_dtype` of at least t bits, in place to
    s = (d + h) & mask, for mask = 2^t - 1 (a scalar or an array
    broadcasting over d) and h = 2^{t-1}: |s - h| is the cyclic difference.

    1..2^t is the one range `HypercubeEmbedding` accepts.  The dtype's B >= t
    bits make d = (b - a) mod 2^B, and 2^t divides 2^B, so s = (r + h) mod
    2^t for r = (b - a) mod 2^t: s - h is r when r < h and r - 2^t
    otherwise.  Since |a - b| < 2^t, r is |a - b| or 2^t - |a - b| (both 0
    when a = b), so |s - h| = min(|a - b|, 2^t - |a - b|).  A coordinate
    held minus 1, or 2^t held in exactly t bits (wrapped to 0), has the
    same residues mod 2^t up to one shift, which leaves every distance
    unchanged.
    """
    d += mask // 2 + 1
    d &= mask
    return d


def coordinate_diffs(fk: StageEmbedding) -> CoordinateDiffs:
    """Exhaustive edge scan of cyclic output-coordinate differences.

    Output coordinates are read by rank into contiguous rows of their
    widest block's `unsigned_dtype`, as many at a time as fit in
    RANK_BLOCK entries and at least one: the base row, or a table over base
    columns gathered through the base column (coordinate minus 1).  Edges
    in grid dimension i0 join rank r to r + s, for the stride s =
    a_1...a_{i0-1}, unless r is last along dimension i0.  So one
    subtraction of the rows lagged by s gives every edge's difference, the
    ranks last along i0 (the s unset ones at the end among them) are
    cleared through the middle index a - 1 of the differences' (|G| / (a
    s), a, s) view, and `_rotate`, with row j masked to its block width,
    moves each difference to a value v whose distance from h = 2^{t-1} is
    the cyclic difference, so a row's largest is max(max v - h, h - min v)
    (a cleared rank reads v = h).  Beside the stored chain, one narrow row
    and its differences are live on a large grid, and a tiny grid scans all
    its coordinates in a fixed number of numpy calls per dimension.
    """
    spec = fk.spec
    k = spec.k
    cyc = np.zeros((k, k), dtype=np.int64)
    group = max(1, RANK_BLOCK // spec.size)
    for first in range(0, k, group):
        js = range(first + 1, min(k, first + group) + 1)
        widths = [spec.block_width(j) for j in js]
        dtype = unsigned_dtype(max(widths))
        rows = np.empty((len(js), spec.size), dtype=dtype)
        for row, j in zip(rows, js):
            if j == 1:
                row[:] = fk.row
            else:
                by_rank(fk.tables[j - 2], fk.column, row)
        masks = np.array([(1 << t) - 1 for t in widths], dtype=dtype)[:, None]
        h = np.array([1 << (t - 1) for t in widths])
        steps = np.empty_like(rows)
        for i0 in range(1, k + 1):
            a, s = spec.dims[i0 - 1], spec.prefix_product(i0 - 1)
            np.subtract(rows[:, s:], rows[:, :-s], out=steps[:, :-s])
            steps.reshape(len(js), -1, a, s)[:, :, -1] = 0
            _rotate(steps, masks)
            top, bottom = steps.max(axis=1), steps.min(axis=1)
            cyc[first : first + len(js), i0 - 1] = np.maximum(top - h, h - bottom)
        del rows, steps
    return CoordinateDiffs(spec, tuple(tuple(int(x) for x in row) for row in cyc))


def diff_case_checks(diffs: CoordinateDiffs) -> list[CheckResult]:
    """Case-table bounds on cyclic coordinate differences.

    Every check carries gate 8: asserted when every grid side is at least
    8, reported below that.  The cases: output dimensions
    1 and 2 stay within 8; above that, edges in higher grid dimensions move
    coordinate j by at most 6, same-dimension edges by at most 8, and edges
    in lower grid dimensions by at most 10; everything within 17.
    The step-above 6 is an empirical reading: coordinate 3 across
    dimension-4 edges reads 7 on 12x17x22x14 and six more grids the tests
    hold, but at most 5 on edges where coordinate 2 does not cross its
    cyclic wrap (|dx_2| above 2^{e_2 - e_1} / 2).
    """
    spec = diffs.spec
    k = spec.k
    table = diffs.cyclic
    out = []
    overall = max(max(row) for row in table)
    out.append(_check("diffs.within-17", overall <= 17, f"max {overall}", gate=8))
    cases = {"low-dims": 0, "step-above": 0, "step-same": 0, "step-below": 0}
    for jdim in range(1, k + 1):
        for i0 in range(1, k + 1):
            v = table[jdim - 1][i0 - 1]
            if jdim <= 2:
                cases["low-dims"] = max(cases["low-dims"], v)
            elif i0 > jdim:
                cases["step-above"] = max(cases["step-above"], v)
            elif i0 == jdim:
                cases["step-same"] = max(cases["step-same"], v)
            else:
                cases["step-below"] = max(cases["step-below"], v)
    bounds = {"low-dims": 8, "step-above": 6, "step-same": 8, "step-below": 10}
    for name, bound in bounds.items():
        got = cases[name]
        detail = f"max {got} vs bound {bound}"
        out.append(_check(f"diffs.case-{name}", got <= bound, detail, gate=8))
    return _apply_gates(out, spec)


# ---------------------------------------------------------------------------
# Hypercube assembly and dilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HypercubeEmbedding:
    """Grid vertices labeled with hypercube corners of the optimal dimension.

    Labels concatenate one block per grid dimension (dimension 1 in the most
    significant bits); block j is the labeling's cube vertex for the final
    map's j-th coordinate.  They are uint32: n <= 31, as |G| <= 2^31
    (`grids.VERTEX_BOUND`).  Blocks 2..k depend on the base column alone, so
    they are concatenated once per base column into one uint32 table C, and
    block 1 shifted into the top bits is a table A over rows: the label of a
    rank is A[row - 1] | C[column - 1], two gathers per block of ranks.
    Construction does not check that the labels are distinct: the audit
    reports it as ``embedding.injective``, and ``embedding_blocks`` refuses
    to write colliding labels.  `diffs` holds the stage map's coordinate
    differences, scanned once by `assemble_Hk`, the one constructor.
    """

    fk: StageEmbedding
    labelings: tuple[CubeLabeling, ...]
    diffs: CoordinateDiffs
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        spec = self.spec
        if len(self.labelings) != spec.k:
            raise ValueError("need one labeling per grid dimension")
        for jdim, lab in enumerate(self.labelings, start=1):
            if lab.t != spec.block_width(jdim):
                raise ValueError(
                    f"dimension {jdim} labeling has {lab.t} bits, "
                    f"block needs {spec.block_width(jdim)}"
                )
        fk = self.fk
        first, *rest = self.labelings
        if fk.row.min() < 1 or fk.row.max() > len(first.order):
            raise ValueError("coordinate 1 outside the labeling domain")
        A = first.order.view(np.uint32) << (spec.n - first.t)
        C = np.zeros(len(fk.tables[0]), dtype=np.uint32)
        for jdim, (lab, table) in enumerate(zip(rest, fk.tables), start=2):
            if table.min() < 0 or table.max() >= len(lab.order):
                raise ValueError(f"coordinate {jdim} outside the labeling domain")
            C <<= lab.t
            C |= lab.order.view(np.uint32)[table]
        labels = by_rank(C, fk.column)
        for start in range(0, spec.size, RANK_BLOCK):
            labels[start : start + RANK_BLOCK] |= A[fk.row[start : start + RANK_BLOCK] - 1]
        object.__setattr__(self, "labels", labels)

    def is_injective(self) -> bool:
        """Whether the labels are distinct: they lie in [0, 2^n), and
        2^n < 2|G|, so one scatter into a 2^n-entry mask counts them."""
        return keys_distinct(self.labels, 1 << self.spec.n)

    @property
    def spec(self) -> GridSpec:
        return self.fk.spec

    def windows(self) -> tuple[int, ...]:
        return tuple(lab.window for lab in self.labelings)


def assemble_Hk(
    fk: StageEmbedding, labelings: list[CubeLabeling] | None = None
) -> HypercubeEmbedding:
    """Label the composed map's image blocks, one cube labeling per dimension.

    With no labelings given, each block takes the best available windowed
    labeling, falling back to the Gray labeling whenever the block's measured
    cyclic differences exceed the candidate's window (the windowed guarantee
    would then be vacuous while Gray still bounds distance by difference).
    Either way the stage map's coordinate differences are scanned once,
    here, and kept as the embedding's `diffs`.
    """
    diffs = coordinate_diffs(fk)
    if labelings is not None:
        return HypercubeEmbedding(fk, tuple(labelings), diffs)
    per_dim = diffs.per_dimension()
    picked = []
    for jdim in range(1, fk.spec.k + 1):
        lab = best_labeling(fk.spec.block_width(jdim))
        if lab.window and per_dim[jdim - 1] > lab.window:
            lab = gray_label(fk.spec.block_width(jdim))
        picked.append(lab)
    return HypercubeEmbedding(fk, tuple(picked), diffs)


@dataclass(frozen=True)
class DilationReport:
    """Measured dilation of a labeled embedding, with its per-case breakdown."""

    spec: GridSpec
    dilation: int
    histogram: tuple[int, ...]
    diffs: CoordinateDiffs
    windows: tuple[int, ...]
    implied_bound: int
    all_windowed: bool
    within_windows: bool
    window_implication_sound: bool

    @property
    def guaranteed_3k(self) -> bool:
        """Whether the 3-per-dimension guarantee applied to every dimension."""
        return self.all_windowed and self.within_windows

    def checks(self) -> list[CheckResult]:
        out = [
            _check(
                "dilation.within-implied-bound",
                self.dilation <= self.implied_bound,
                f"{self.dilation} > {self.implied_bound}",
            ),
            _check(
                "dilation.window-implication",
                self.window_implication_sound,
            ),
        ]
        if self.guaranteed_3k:
            out.append(
                _check(
                    "dilation.three-per-dimension",
                    self.dilation <= 3 * self.spec.k,
                    f"{self.dilation} > {3 * self.spec.k}",
                )
            )
        out.append(_report("dilation.value", self.dilation))
        out.append(_report("dilation.implied-bound", self.implied_bound))
        return out


def _edge_histogram(spec: GridSpec, labels: np.ndarray) -> np.ndarray:
    """Grid edges by the Hamming distance of their two labels, up to the
    largest distance met.  Ranks are row-major with dimension 1 fastest, so
    for the stride s = a_1...a_{i0-1} each row of the labels' (|G| / (a s),
    a s) view is one run of grid dimension i0, whose edges join columns c
    and c + s for c < (a - 1) s: one XOR of two contiguous column ranges.
    The runs are read a block of about RANK_BLOCK labels at a time, whole
    rows or a row's column range, so the popcounts and their counting's
    intp scratch stay one block's.  A grid (k >= 2, sides >= 2) has an
    edge, so some entry is nonzero."""
    hist = np.zeros(spec.n + 1, dtype=np.int64)
    for i0 in range(1, spec.k + 1):
        a, s = spec.dims[i0 - 1], spec.prefix_product(i0 - 1)
        runs = labels.reshape(-1, a * s)
        rows, width = max(1, RANK_BLOCK // (a * s)), (a - 1) * s
        cols = min(width, RANK_BLOCK)
        for top in range(0, len(runs), rows):
            block = runs[top : top + rows]
            for left in range(0, width, cols):
                stop = min(left + cols, width)
                x = np.bitwise_count(block[:, left + s : stop + s] ^ block[:, left:stop])
                hist += np.bincount(x.ravel(), minlength=spec.n + 1)
    return hist[: int(np.flatnonzero(hist)[-1]) + 1]


def dilation(emb: HypercubeEmbedding) -> DilationReport:
    """Exact dilation over all grid edges, plus the labeling-implied bound.

    Also verifies the window implication: no windowed labeling has a
    `window_breach`.  Block j of a label is `order[x_j - 1]` for the final
    map's coordinate x_j, so this implies that every edge whose cyclic
    difference in coordinate j lies within the window moves block j by at
    most 3, at 2^t * window work once per labeling, whatever the grid's
    size.  Edges are counted by `_edge_histogram`.
    """
    spec = emb.spec
    diffs = emb.diffs
    hist = _edge_histogram(spec, emb.labels)
    dil = len(hist) - 1

    windowed = [lab for lab in emb.labelings if lab.window]
    implied = 0
    within = True
    for lab, dmax in zip(emb.labelings, diffs.per_dimension()):
        if lab.window and dmax <= lab.window:
            implied += 3 if dmax else 0
        else:
            implied += dmax
            if lab.window:
                within = False
    return DilationReport(
        spec,
        dil,
        tuple(int(x) for x in hist),
        diffs,
        emb.windows(),
        implied,
        len(windowed) == spec.k,
        within,
        all(lab.window_breach is None for lab in windowed),
    )


# ---------------------------------------------------------------------------
# Embedding file format: `_header` and `_line_blocks` are its one definition
# ---------------------------------------------------------------------------


def _header(spec: GridSpec, windows) -> str:
    """Magic, sides, exponents n e_1 ... e_k, and labeling windows."""
    return (
        f"GRIDCUBE 1\ndims {' '.join(map(str, spec.dims))}\n"
        f"{spec.n} {' '.join(map(str, spec.exponents[1:]))}\n"
        f"labelings {' '.join(map(str, windows))}\n"
    )


def _line_blocks(spec: GridSpec, labels: np.ndarray | None) -> Iterator:
    """The vertex lines "x_1 ... x_k label" in rank order (x_1 fastest), as
    bytes-like ASCII blocks of whole lines, at most RANK_BLOCK ranks each.

    The lines are first laid out padded, one row per rank.  Field "x_j " is
    row x_j of a per-side table, right-aligned with NUL padding.  The lowest
    dimensions whose product P fits in a chunk are rendered once into a P-row
    template by broadcasting each table over its mixed-radix axis; a block is
    whole copies of it, with the higher coordinates broadcast over each copy.
    The label is the low n bits of `labels` unpacked from their big-endian
    bytes, or "." in every bit when `labels` is None (the reader's template).
    One `bytes.translate` per block drops the NULs; when no side reaches 10,
    no field is padded and the block is the lines as laid out, a uint8 view.
    """
    padded = max(spec.dims) >= 10
    tables = []
    for a in spec.dims:
        table = np.full((a, len(str(a)) + 1), ord(" "), dtype=np.uint8)
        table[:, :-1] = decimal_columns(np.arange(1, a + 1), len(str(a)))
        tables.append(table)
    edges = np.cumsum([0, *(table.shape[1] for table in tables)]).tolist()
    n = spec.n
    low, per = 0, 1
    while low < spec.k and per * spec.dims[low] <= RANK_BLOCK:
        per *= spec.dims[low]
        low += 1
    template = np.empty((*reversed(spec.dims[:low]), edges[-1] + n + 1), np.uint8)
    for j in range(low):
        axes = [1] * (low + 1)
        axes[low - 1 - j], axes[-1] = tables[j].shape
        template[..., edges[j] : edges[j + 1]] = tables[j].reshape(axes)
    template[..., edges[-1] : -1] = ord(".")
    template[..., -1] = ord("\n")
    template = template.reshape(per, -1)
    copies, step = spec.size // per, RANK_BLOCK // per
    for first in range(0, copies, step):
        count = min(step, copies - first)
        block = np.empty((count, *template.shape), np.uint8)
        block[:] = template
        upper = np.arange(first, first + count)
        for j in range(low, spec.k):
            upper, x = np.divmod(upper, spec.dims[j])
            block[:, :, edges[j] : edges[j + 1]] = tables[j][x, None]
        block = block.reshape(count * per, -1)
        if labels is not None:
            ranks = labels[first * per : (first + count) * per]
            block[:, edges[-1] : -1] = _label_chars(ranks, n)
        lines = block.tobytes().translate(None, b"\0") if padded else block.ravel()
        del block  # only the lines stay live while the consumer takes them
        yield lines


def _label_chars(labels: np.ndarray, n: int) -> np.ndarray:
    """The low n bits of each label as ASCII "0"/"1", most significant
    first: unpacked from the labels' big-endian bytes (n <= 31)."""
    nbytes = (n + 7) // 8
    octets = labels.astype(">u4").view(np.uint8).reshape(-1, 4)[:, 4 - nbytes :]
    return np.unpackbits(octets, axis=1)[:, 8 * nbytes - n :] + ord("0")


def embedding_blocks(emb: HypercubeEmbedding) -> Iterator:
    """The labeled embedding's GRIDCUBE file as blocks of ASCII bytes: the
    header, then each `_line_blocks` block, rendered as it is taken.
    Colliding labels are a construction defect and raise RuntimeError here,
    before any block exists."""
    if not emb.is_injective():
        raise RuntimeError("labels collide; embedding bug")
    header = _header(emb.spec, emb.windows()).encode("ascii")
    return itertools.chain([header], _line_blocks(emb.spec, emb.labels))


def dump_embedding(emb: HypercubeEmbedding) -> str:
    """The labeled embedding in the GRIDCUBE text format: the join of
    `embedding_blocks`, which refuses colliding labels.

    The text grows by one decoded block at a time, in place: `text` holds
    the only reference to the string, so CPython resizes it where it lies
    (a realloc) instead of copying it into a new one, once the interpreter
    has specialized the loop's `+=` (from its eighth pass on CPython 3.11;
    the first passes copy the text, then at most seven blocks long).  So a
    long text is not held twice, as it is by a list of pieces and their
    join, and beside it only one block's scratch is live.
    """
    text = ""
    for block in embedding_blocks(emb):
        text += codecs.ascii_decode(block)[0]
    return text


@dataclass(frozen=True, eq=False)
class ParsedEmbedding:
    """A GRIDCUBE file: spec, declared windows, and per-rank uint32 labels."""

    spec: GridSpec
    windows: tuple[int, ...]
    labels: np.ndarray


def parse_embedding(text: str, vertex_cap: int = DEFAULT_VERTEX_CAP) -> ParsedEmbedding:
    """Parse a GRIDCUBE file: exactly the writer's layout, any n-bit labels.

    The sides must make a `GridSpec` of at most `vertex_cap` vertices, and
    the header must re-render unchanged from them and the windows (int()
    reads "1_0", "03" or "+2", the re-render does not).  The body must hold
    |G| lines, counted before anything of size |G| is built, and equal the
    vertex lines rendered with "." in each label bit, where it holds 0 or 1.
    It is compared one `_line_blocks` block at a time, so the template never
    grows with |G|; each block's label bits are packed into its ranks.  The
    text is encoded a block at a time too, as ASCII with "?" for any other
    character: one byte per character, so a block's bytes start at its
    character offset.
    """
    head = re.match("(.*)\n" * 4, text)
    if head is None or head[1] != "GRIDCUBE 1":
        raise ValueError("not a GRIDCUBE file")
    dims = tuple(int(x) for x in head[2].split(" ")[1:])
    spec = GridSpec(dims, vertex_cap=vertex_cap)
    windows = tuple(int(x) for x in head[4].split(" ")[1:])
    if len(windows) != spec.k or min(windows) < 0:
        raise ValueError("bad labelings line")
    for got, want in zip(head.groups(), _header(spec, windows).split("\n")):
        if got != want:
            raise ValueError(f"header line {got!r} is not {want!r}")
    found = text.count("\n", head.end())
    if found != spec.size or not text.endswith("\n"):
        raise ValueError(f"expected {spec.size} vertex lines, found {found} newlines")
    labels = np.zeros(spec.size, dtype=np.uint32)
    at, rank = head.end(), 0
    for expect in _line_blocks(spec, None):
        # both bodies hold |G| lines, so unequal lengths differ within the shorter
        chunk = text[at : at + len(expect)].encode("ascii", "replace")
        got = np.frombuffer(chunk, np.uint8)
        expect = np.frombuffer(expect, np.uint8, count=len(got))
        slot, bad = expect == ord("."), got != expect
        bits = got[slot] - ord("0")  # 0 or 1 for a label bit, above 1 otherwise
        bad[slot] = bits > 1
        if bad.any():
            rank += int(np.count_nonzero(got[: bad.argmax()] == ord("\n")))
            raise ValueError(f"line {rank + 5} is not the line of rank {rank}")
        bits = bits.reshape(-1, spec.n)
        part = labels[rank : rank + len(bits)]
        for column in bits.T:
            part <<= 1
            part |= column
        at, rank = at + len(got), rank + len(bits)
    return ParsedEmbedding(spec, windows, labels)


def audit_file(text: str, vertex_cap: int = DEFAULT_VERTEX_CAP) -> list[CheckResult]:
    """Structural audit of a GRIDCUBE file of at most `vertex_cap` vertices.

    The labelings themselves are not stored in the file, so only measured
    dilation, over the `_edge_histogram` views, is reported; the labeling-implied
    bound is not recomputable.  A file above the cap raises `AboveCap`, as
    a grid above it does; any other fault fails the check ``file.parse``.
    """
    out: list[CheckResult] = []
    try:
        parsed = parse_embedding(text, vertex_cap)
    except AboveCap:
        raise
    except ValueError as exc:
        return [_check("file.parse", False, str(exc))]
    out.append(_check("file.parse", True))
    spec, labels = parsed.spec, parsed.labels
    # `parse_embedding` packs n bits per label, so each lies in [0, 2^n)
    injective = keys_distinct(labels, 1 << spec.n)
    out.append(_check("file.label-injective", injective))
    width = bool((labels < (1 << spec.n)).all()) and bool((labels >= 0).all())
    out.append(_check("file.label-width", width))
    out.append(_report("file.dilation", len(_edge_histogram(spec, labels)) - 1))
    return out


# ---------------------------------------------------------------------------
# Full audit
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _chain_checks(a1: int) -> tuple[CheckResult, ...]:
    """``chain_battery(a1)``, built once per a1 in a process: the battery
    depends on nothing but a1."""
    return tuple(chain_battery(a1))


def audit_grid(
    spec: GridSpec,
    seed_matrices: list[BinaryMatrix] | None = None,
) -> tuple[list[CheckResult], HypercubeEmbedding, DilationReport]:
    """Run the full invariant battery for a grid and return the artifacts."""
    checks: list[CheckResult] = []
    checks.extend(_chain_checks(spec.dims[0]))
    fk = build_fk(spec, seed_matrices=seed_matrices)
    checks.extend(pipeline_battery(fk))
    emb = assemble_Hk(fk)
    diffs = emb.diffs
    checks.extend(diff_case_checks(diffs))
    for jdim in range(1, spec.k + 1):
        checks.append(
            _report(
                f"diffs.max.dim{jdim}", diffs.per_dimension()[jdim - 1]
            )
        )
    checks.append(_check("embedding.injective", emb.is_injective()))
    report = dilation(emb)
    checks.extend(report.checks())
    return checks, emb, report
