"""Spanning cyclic caterpillars of hypercubes and the labelings they induce.

A caterpillar here is a spanning subgraph of the t-cube whose core is a
cycle (the spine) with the same number of pendant vertices (leaves) hanging
off every spine vertex.  Numbering the vertices block by block along the
spine gives a labeling in which close labels mean close cube vertices: any
two labels within a window of leaf_degree + 2 (cyclically) are at Hamming
distance at most 3.  A reflected-Gray ordering serves as the fallback for
cubes too small to host any caterpillar, and for blocks whose measured
coordinate differences exceed the caterpillar's window (`assemble_Hk`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .flow import max_flow
from .grids import keys_distinct


class SearchExhausted(RuntimeError):
    """Raised when an exhaustive spine search finds no caterpillar."""


def _check_params(t: int, leaf_degree: int) -> int:
    """Validate (t, leaf_degree) and return the spine length."""
    if t < 1:
        raise ValueError(f"cube dimension {t} must be positive")
    d = leaf_degree
    if d < 1 or d % 2 == 0 or (d + 1) & d:
        raise ValueError(
            f"leaf degree {d} must be odd with {d} + 1 a power of two"
        )
    if (1 << t) % (d + 1):
        raise ValueError(f"leaf degree {d} does not tile a {t}-cube")
    e = (1 << t) // (d + 1)
    if e < 3:
        raise ValueError(f"spine length {e} below 3; no cycle exists")
    if d + 2 > t:
        raise ValueError(
            f"spine degree {d + 2} exceeds cube degree {t}; infeasible"
        )
    return e


def _frozen(values) -> np.ndarray:
    """An int32 array of the values, held read-only (t <= 26 fits)."""
    array = np.asarray(values, dtype=np.int32)
    array.setflags(write=False)
    return array


def _covers(values: np.ndarray, n: int) -> bool:
    """Whether the values are 0..n-1, each exactly once."""
    if len(values) != n or values.min() < 0 or values.max() >= n:
        return False
    return keys_distinct(values, n)


@dataclass(frozen=True, eq=False)
class Caterpillar:
    """Spine cycle plus one row of leaves per spine vertex covering a whole
    t-cube, validated when built: `spine` is an int array of length e and
    `leaves` an e x d int array, both read-only."""

    t: int
    spine: np.ndarray
    leaves: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "spine", _frozen(self.spine))
        object.__setattr__(self, "leaves", _frozen(self.leaves))
        self.validate()

    @property
    def spine_length(self) -> int:
        return len(self.spine)

    @property
    def leaf_degree(self) -> int:
        return self.leaves.shape[1]

    @property
    def window(self) -> int:
        """Cyclic label window within which Hamming distance stays <= 3."""
        return self.leaf_degree + 2

    def validate(self) -> None:
        spine, leaves = self.spine, self.leaves
        e = len(spine)
        if e < 3:
            raise ValueError("spine shorter than a cycle")
        if leaves.ndim != 2 or len(leaves) != e:
            raise ValueError("one leaf row per spine vertex required")
        if e * (leaves.shape[1] + 1) != 1 << self.t:
            raise ValueError("spine and leaves do not tile the cube")
        breaks = np.flatnonzero(np.bitwise_count(spine ^ np.roll(spine, -1)) != 1)
        if len(breaks):
            raise ValueError(f"spine break after position {breaks[0]}")
        far = np.bitwise_count(leaves ^ spine[:, None]) != 1
        if far.any():
            raise ValueError(f"leaf {leaves[far][0]} not adjacent to its spine vertex")
        if not _covers(np.concatenate((spine, leaves.ravel())), 1 << self.t):
            raise ValueError("vertices not covered exactly once")


def _assign_leaves(
    t: int, spine: list[int], leaf_degree: int
) -> tuple[tuple[int, ...], ...] | None:
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
    # node ids: 0 source, 1..len(others) leaves, then spine slots, then sink;
    # edges: per leaf its source edge then its spine edges, then sink edges
    spine_base = 1 + len(others)
    sink = spine_base + e
    tail: list[int] = []
    head: list[int] = []
    leaf_edges = []
    for idx, hits in enumerate(adjacency):
        tail.append(0)
        head.append(1 + idx)
        leaf_edges.append([(len(tail) + p, i) for p, i in enumerate(hits)])
        tail.extend([1 + idx] * len(hits))
        head.extend(spine_base + i for i in hits)
    # each spine vertex takes leaf_degree leaves: as many parallel edges
    tail.extend(spine_base + i for i in range(e) for _ in range(leaf_degree))
    head.extend([sink] * (e * leaf_degree))
    carries = max_flow(sink + 1, tail, head, sink).tolist()
    if sum(carries[-e * leaf_degree :]) != len(others):
        return None
    buckets: list[list[int]] = [[] for _ in range(e)]
    for idx, edges in enumerate(leaf_edges):
        for eid, i in edges:
            if carries[eid]:
                buckets[i].append(others[idx])
                break
    return tuple(tuple(sorted(b)) for b in buckets)


_SEARCH_CAP = 8


def search_caterpillar(t: int, leaf_degree: int) -> Caterpillar:
    """Exhaustive deterministic search for a spanning caterpillar of Q_t.

    The spine is grown depth-first from the fixed edge 0-1, introducing new
    coordinate bits in first-use order (sound for existence: any caterpillar
    can be translated and bit-permuted into such a form).  Fresh bits are
    tried before old ones so space-filling spines are reached early.  Raises
    SearchExhausted when the full canonical space holds no solution, which
    is distinct from parameter rejection (ValueError).
    """
    e = _check_params(t, leaf_degree)
    if t > _SEARCH_CAP:
        raise ValueError(
            f"dimension {t} above the search cap {_SEARCH_CAP}; "
            "search a smaller cube and double up"
        )
    spine = [0, 1]
    used = bytearray(1 << t)
    used[0] = used[1] = 1
    result: list[Caterpillar] = []

    def dfs(bits_used: int) -> bool:
        cur = spine[-1]
        depth = len(spine)
        if depth == e:
            if cur.bit_count() == 1:
                leaves = _assign_leaves(t, spine, leaf_degree)
                if leaves is not None:
                    result.append(Caterpillar(t, tuple(spine), leaves))
                    return True
            return False
        slack = e - depth + 1  # edges still to place, closing edge included
        dist = cur.bit_count()
        if dist > slack or (slack - dist) % 2:
            return False
        candidates = ([bits_used] if bits_used < t else []) + list(range(bits_used))
        for b in candidates:
            nxt = cur ^ (1 << b)
            if used[nxt]:
                continue
            used[nxt] = 1
            spine.append(nxt)
            if dfs(bits_used + (b == bits_used)):
                return True
            spine.pop()
            used[nxt] = 0
        return False

    if not dfs(1):
        raise SearchExhausted(
            f"no spanning caterpillar with leaf degree {leaf_degree} in a "
            f"{t}-cube"
        )
    return result[0]


def double_caterpillar(cat: Caterpillar) -> Caterpillar:
    """Lift a caterpillar one dimension up, doubling the spine length.

    The new spine walks copy 0 forward, crosses on the new top bit, walks
    copy 1 backward and crosses back; every spine vertex keeps its own
    leaves inside its copy, so the leaf degree is unchanged.
    """
    hi = 1 << cat.t
    spine = np.concatenate((cat.spine, cat.spine[::-1] | hi))
    leaves = np.concatenate((cat.leaves, cat.leaves[::-1] | hi))
    return Caterpillar(cat.t + 1, spine, leaves)


@dataclass(frozen=True, eq=False)
class CubeLabeling:
    """Bijection between cube vertices and labels 1..2^t.

    `order[c-1]` is the vertex holding label c, in a read-only int array.
    `window` > 0 promises that cyclic label distance <= window implies
    Hamming distance <= 3 (and label distance bounds Hamming distance beyond
    the window, via the spine walk); window == 0 marks a Gray-style labeling
    where Hamming distance is at most the cyclic label distance, for every
    distance.  `window_breach` checks the promise once per labeling.
    """

    t: int
    order: np.ndarray
    window: int

    def __post_init__(self):
        object.__setattr__(self, "order", _frozen(self.order))
        if self.order.ndim != 1 or not _covers(self.order, 1 << self.t):
            raise ValueError("labeling order is not a bijection on the cube")

    @cached_property
    def window_breach(self) -> tuple[int, int, int] | None:
        """`verify_window(self, self.window, 3)`, computed when first read:
        None when the window promise holds (always, at window 0)."""
        return verify_window(self, self.window, 3)


def label_from_caterpillar(cat: Caterpillar) -> CubeLabeling:
    """Block labeling: spine vertex i takes (d+1)i, its j-th leaf (d+1)(i-1)+j."""
    order = np.column_stack((cat.leaves, cat.spine)).ravel()
    return CubeLabeling(cat.t, order, cat.window)


@cache
def gray_label(t: int) -> CubeLabeling:
    """Reflected-Gray fallback: consecutive labels differ in one bit.
    Memoized per t: a labeling is frozen, with a read-only order."""
    if t < 1:
        raise ValueError(f"cube dimension {t} must be positive")
    c = np.arange(1 << t, dtype=np.int32)
    return CubeLabeling(t, c ^ (c >> 1), 0)


def verify_window(
    lab: CubeLabeling, w: int, dbound: int
) -> tuple[int, int, int] | None:
    """Check all pairs within a cyclic label window for a distance breach.

    Returns None when every pair at cyclic label distance 1..w has Hamming
    distance <= dbound, else the first violation as (label_a, label_b,
    distance) in label scan order: label_a ascending, then the label
    distance.  Each label distance is one XOR of `order` with its cyclic
    shift, so the scan is 2^t * w work with no Python loop over labels.
    """
    order = lab.order
    breaches = []
    for delta in range(1, w + 1):
        dist = np.bitwise_count(order ^ np.roll(order, -delta))
        c = int(np.argmax(dist > dbound))
        if dist[c] > dbound:
            breaches.append((c, delta, int(dist[c])))
    if not breaches:
        return None
    c, delta, dist = min(breaches)
    return (c + 1, (c + delta) % len(order) + 1, dist)


# Base spine per leaf degree: Cat(4,1) in Q_3 and Cat(16,3) in Q_6, the
# caterpillars search_caterpillar finds (the tests hold the two equal).
_BASE_SPINES: dict[int, tuple[int, ...]] = {
    1: (0, 1, 3, 2),
    3: (0, 1, 3, 7, 15, 31, 29, 61, 53, 52, 54, 50, 58, 42, 40, 8),
}


@cache
def caterpillar_for(t: int, leaf_degree: int) -> Caterpillar:
    """Caterpillar at dimension t with the given leaf degree, memoized.

    The base caterpillar for each leaf degree is built in: its spine is a
    constant and its leaves are assigned by matching, and it is validated
    on first use.  Larger dimensions are reached by repeated doubling.
    """
    if leaf_degree not in _BASE_SPINES:
        raise ValueError(
            f"leaf degree {leaf_degree} has no feasible base dimension "
            f"within the search cap; supported: {sorted(_BASE_SPINES)}"
        )
    spine = _BASE_SPINES[leaf_degree]
    base = (len(spine) * (leaf_degree + 1)).bit_length() - 1  # e(d+1) = 2^base
    if t < base:
        raise ValueError(
            f"leaf degree {leaf_degree} needs dimension >= {base}, got {t}"
        )
    if t == base:
        return Caterpillar(t, spine, _assign_leaves(t, list(spine), leaf_degree))
    return double_caterpillar(caterpillar_for(t - 1, leaf_degree))


@cache
def best_labeling(t: int) -> CubeLabeling:
    """Widest-window labeling available at dimension t; Gray when t < 3.
    Memoized per t, like the caterpillars it is read from."""
    if t >= 6:
        return label_from_caterpillar(caterpillar_for(t, 3))
    if t >= 3:
        return label_from_caterpillar(caterpillar_for(t, 1))
    return gray_label(t)
