"""Reference implementations the library is tested against.

These are the literal Fraction forms of the integer-exact construction
core: the prefix windows and the two-way rounding in fractions.Fraction, a
recursive Dinic with adjacency lists, the leaf matching built on it, the
Fraction closed form of the chain prefix counts, and the embedding file
written one rank at a time.  Beside them sit the literal column-filling loop
of the base map, the per-row forms of the blank plan tables (nonblank
levels, and section ordinals by bisection) and the per-column
coordinate-difference scan.  They run in tests only; the
library's integer and table-driven forms must reproduce their outputs
exactly.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import ceil, floor

import numpy as np

from gridcube.base2d import build_R
from gridcube.rounding import BinaryMatrix, RoundingSpec


class Dinic:
    """Unit-capacity max flow with fixed (ascending) adjacency order."""

    def __init__(self, size: int):
        self.size = size
        self.head: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int = 1) -> int:
        i = len(self.to)
        self.head[u].append(i)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(i + 1)
        self.to.append(u)
        self.cap.append(0)
        return i

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.size
            level[s] = 0
            queue = [s]
            for u in queue:
                for ei in self.head[u]:
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.size

            def dfs(u: int) -> bool:
                if u == t:
                    return True
                while it[u] < len(self.head[u]):
                    ei = self.head[u][it[u]]
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] == level[u] + 1 and dfs(v):
                        self.cap[ei] -= 1
                        self.cap[ei ^ 1] += 1
                        return True
                    it[u] += 1
                return False

            while dfs(s):
                flow += 1


def prefix_windows(order: list[int], fracs: list[Fraction], total_ones: int):
    """For each fractional item, the slots it may serve in the given order."""
    serve: dict[int, list[int]] = {}
    g = Fraction(0)
    for pos in order:
        f = fracs[pos]
        if f == 0:
            continue
        lo = floor(g) + 1
        g += f
        hi = min(ceil(g), total_ones)
        if lo <= hi:
            serve[pos] = list(range(lo, hi + 1))
        else:
            serve[pos] = []
    return serve


def try_round(fracs: list[Fraction], order_b: list[int], total_ones: int):
    n = len(fracs)
    items = [i for i in range(n) if fracs[i] != 0]
    if total_ones == 0:
        return [0] * n
    order_a = list(range(n))
    serve_a = prefix_windows(order_a, fracs, total_ones)
    serve_b = prefix_windows(order_b, fracs, total_ones)
    item_in = {k: total_ones + 1 + 2 * idx for idx, k in enumerate(items)}
    b_base = total_ones + 1 + 2 * len(items)
    sink = b_base + total_ones + 1
    net = Dinic(sink + 1)
    for v in range(1, total_ones + 1):
        net.add_edge(0, v)
    item_edge: dict[int, int] = {}
    for k in items:
        for v in serve_a[k]:
            net.add_edge(v, item_in[k])
        item_edge[k] = net.add_edge(item_in[k], item_in[k] + 1)
        for v in serve_b[k]:
            net.add_edge(item_in[k] + 1, b_base + v)
    for v in range(1, total_ones + 1):
        net.add_edge(b_base + v, sink)
    if net.max_flow(0, sink) != total_ones:
        return None
    return [
        1 if k in item_edge and net.cap[item_edge[k]] == 0 else 0
        for k in range(n)
    ]


def two_way_round_core(values: list[Fraction], order_b: list[int]) -> list[int]:
    floors = [floor(v) for v in values]
    fracs = [v - f for v, f in zip(values, floors)]
    total = sum(fracs, Fraction(0))
    candidates = [int(total)] if total.denominator == 1 else [floor(total), ceil(total)]
    for b in candidates:
        bits = try_round(fracs, order_b, b)
        if bits is not None:
            return [f + o for f, o in zip(floors, bits)]
    raise RuntimeError("oracle found no feasible rounding")


def two_way_round(values, perm) -> list[int]:
    return two_way_round_core([Fraction(v) for v in values], [p - 1 for p in perm])


def round_matrix(T) -> BinaryMatrix:
    rows = [[Fraction(x) for x in row] for row in T]
    m, n = len(rows), len(rows[0])
    row_sums = [sum(row, Fraction(0)) for row in rows]
    col_sums = [sum(row[j] for row in rows) for j in range(n)]
    grand = sum(row_sums, Fraction(0))
    ext = [row + [ceil(row_sums[i]) - row_sums[i]] for i, row in enumerate(rows)]
    ext.append([ceil(c) - c for c in col_sums] + [grand])
    values = [x for row in ext for x in row]
    order_b = [i * (n + 1) + j for j in range(n + 1) for i in range(m + 1)]
    rounded = two_way_round_core(values, order_b)
    out = [tuple(rounded[i * (n + 1) + j] for j in range(n)) for i in range(m)]
    return BinaryMatrix(tuple(out))


def build_FX(spec: RoundingSpec) -> BinaryMatrix:
    if all(s == 0 for s in spec.X):
        return BinaryMatrix(tuple(tuple(0 for _ in range(spec.n)) for _ in spec.X))
    return round_matrix([[Fraction(s, spec.n)] * spec.n for s in spec.X])


def assign_leaves(t: int, spine: list[int], leaf_degree: int):
    """Match non-spine vertices to adjacent spine vertices, leaf_degree each."""
    n = 1 << t
    spine_pos = {v: i for i, v in enumerate(spine)}
    others = [v for v in range(n) if v not in spine_pos]
    adjacency = []
    for v in others:
        hits = [spine_pos[v ^ (1 << b)] for b in range(t) if v ^ (1 << b) in spine_pos]
        if not hits:
            return None
        adjacency.append(hits)
    e = len(spine)
    spine_base = 1 + len(others)
    sink = spine_base + e
    net = Dinic(sink + 1)
    leaf_edges = []
    for idx, hits in enumerate(adjacency):
        net.add_edge(0, 1 + idx)
        leaf_edges.append([(net.add_edge(1 + idx, spine_base + i), i) for i in hits])
    for i in range(e):
        net.add_edge(spine_base + i, sink, leaf_degree)
    if net.max_flow(0, sink) != len(others):
        return None
    buckets: list[list[int]] = [[] for _ in range(e)]
    for idx, edges in enumerate(leaf_edges):
        for eid, i in edges:
            if net.cap[eid] == 0:
                buckets[i].append(others[idx])
                break
    return tuple(tuple(sorted(b)) for b in buckets)


def chain_prefix_counts(a1: int, e1: int, m: int) -> list[list[int]]:
    """N_ij = j + floor(q i) - floor(q (i-j)) with q = (2^e1 - a1) / a1, for
    chains i = 1..a1 (rows) and column prefixes j = 0..m."""
    q = Fraction((1 << e1) - a1, a1)
    floor_q = {x: floor(q * x) for x in range(1 - m, a1 + 1)}
    return [
        [j + floor_q[i] - floor_q[i - j] for j in range(m + 1)]
        for i in range(1, a1 + 1)
    ]


def fill_columns(a1: int, e1: int, m: int):
    """The literal filling loop over columns j = 1..m.

    Scanning chains in order, chain i contributes 1 + R(i,j) points to column
    j; a double contribution is placed descending (the later chain position
    below the earlier) exactly when j is even, ascending when j is odd.
    Returns (chains, columns): `chains[i-1][p-1]` is the (row, col) image of
    the p-th point of chain i, `columns[j-1][row-1]` is the (chain, position)
    in that cell, bottom-up.
    """
    fc = build_R(a1, e1).first_column
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
    return tuple(tuple(ch) for ch in chains), tuple(tuple(c) for c in cols)


def dump_embedding(emb) -> str:
    """The GRIDCUBE text built one rank at a time from coords_of and
    label_bits."""
    spec = emb.spec
    lines = [
        "GRIDCUBE 1",
        "dims " + " ".join(str(a) for a in spec.dims),
        str(spec.n) + " " + " ".join(str(e) for e in spec.exponents[1:]),
        "labelings " + " ".join(str(w) for w in emb.windows()),
    ]
    for rank in range(spec.size):
        coords = spec.coords_of(rank)
        lines.append(" ".join(str(x) for x in coords) + " " + emb.label_bits(rank))
    return "\n".join(lines) + "\n"


def zero_columns(F: BinaryMatrix) -> list[tuple[int, ...]]:
    """1-based columns of the zeros of every row, left to right."""
    return [tuple(j + 1 for j, b in enumerate(row) if b == 0) for row in F.rows]


def nonblank_levels(zero_cols: list[tuple[int, ...]], width: int) -> tuple[int, ...]:
    """Global indices of the zeros, row by row (sections of ``width``)."""
    levels = []
    for r, cols in enumerate(zero_cols):
        levels.extend(r * width + c for c in cols)
    return tuple(levels)


def nu_of(zero_cols: list[tuple[int, ...]], width: int, level: int) -> int:
    """Ordinal of a nonblank level among its section's nonblanks, by
    bisection in the section's zero columns; ValueError at a blank."""
    cols = zero_cols[(level - 1) // width]
    off = (level - 1) % width + 1
    idx = bisect_right(cols, off)
    if idx == 0 or cols[idx - 1] != off:
        raise ValueError(f"level {level} is blank")
    return idx


def coordinate_diffs(fk) -> tuple[tuple, tuple]:
    """(cyclic, absolute) coordinate-difference tables, one output dimension
    and one grid dimension at a time."""
    spec = fk.spec
    k = spec.k
    coords = fk.coords.astype(np.int64)
    ranks = np.arange(spec.size, dtype=np.int64)
    cyc = np.zeros((k, k), dtype=np.int64)
    absd = np.zeros((k, k), dtype=np.int64)
    for i0 in range(1, k + 1):
        stride = spec.prefix_product(i0 - 1)
        src = ranks[ranks // stride % spec.dims[i0 - 1] < spec.dims[i0 - 1] - 1]
        if not len(src):
            continue
        a = coords[src]
        b = coords[src + stride]
        for jdim in range(1, k + 1):
            width = 1 << spec.block_width(jdim)
            d = np.abs(a[:, jdim - 1] - b[:, jdim - 1])
            absd[jdim - 1, i0 - 1] = int(d.max())
            cyc[jdim - 1, i0 - 1] = int(np.minimum(d, width - d).max())
    return (
        tuple(tuple(int(x) for x in row) for row in cyc),
        tuple(tuple(int(x) for x in row) for row in absd),
    )
