"""Deterministic max flow (Dinic) over flat arc arrays.

Edge e, in insertion order, is arc 2e (forward, its capacity) paired with arc
2e+1 (reverse, capacity 0).  The arcs leaving a node are scanned in arc
order, that is in the order their edges were inserted, so the augmenting
paths depend only on the node numbering and the edge order.  The arcs are
laid out in CSR form, grouped by tail node by a stable sort; each CSR slot
holds its arc's head, residual capacity and the slot of its reverse arc.

Each phase computes breadth-first levels and then runs a depth-first search
for one-unit augmenting paths along strictly increasing levels, with a
current-arc pointer per node; a successful augment leaves the pointers
where they are.  The search is iterative, so path length is not bounded by
the interpreter's recursion limit.  Three shortcuts leave every augmenting
path unchanged: the breadth-first search stops once the sink is labelled
(a node not yet labelled then lies at or beyond the sink's level and cannot
reach it along increasing levels); the search scans only the phase's
admissible arcs, into nodes that can reach the sink along them; and a node
found exhausted is marked dead (every later visit in the phase would fail).
The level computation and the admissible-arc selection are numpy array
passes, module functions over any CSR arc list with a mask of live arcs, so
the rounding solver runs them on its own arc lists; only the depth-first
search walks arcs one at a time.
"""
from __future__ import annotations

from array import array

import numpy as np


class FlowNetwork:
    """A flow network on nodes 0..size-1 with edges given in insertion order.

    ``tail``, ``head`` and ``cap`` are per-edge sequences; ``cap`` defaults
    to 1 on every edge.  ``edges`` is the number of edges.
    """

    def __init__(self, size: int, tail, head, cap=None):
        tail = np.asarray(tail, dtype=np.int64)
        head = np.asarray(head, dtype=np.int64)
        edges = len(tail)
        arc_from = np.empty(2 * edges, dtype=np.int64)
        arc_from[0::2] = tail
        arc_from[1::2] = head
        arc_to = np.empty(2 * edges, dtype=np.int64)
        arc_to[0::2] = head
        arc_to[1::2] = tail
        arc_cap = np.zeros(2 * edges, dtype=np.int64)
        arc_cap[0::2] = 1 if cap is None else np.asarray(cap, dtype=np.int64)
        order = np.argsort(arc_from, kind="stable")  # CSR slot -> arc
        slot = np.empty(2 * edges, dtype=np.int64)  # arc -> CSR slot
        slot[order] = np.arange(2 * edges, dtype=np.int64)
        start = csr_bounds(arc_from, size)
        self.size = size
        self.edges = edges
        self._forward = slot[0::2]
        self._tail = arc_from[order]
        self._head = arc_to[order]
        # flat machine-integer arrays: scalar reads in the search loop are as
        # fast as from lists, they hold no int objects, and numpy reads them
        # without a copy
        self._cap = array("q", arc_cap[order].tobytes())
        self._rev = array("q", slot[order ^ 1].tobytes())
        self._start = start

    def residual(self, edges) -> np.ndarray:
        """Residual capacity of each listed edge (by insertion index)."""
        return np.frombuffer(self._cap, dtype=np.int64)[self._forward[edges]]

    def max_flow(self, s: int, t: int) -> int:
        """Complete a maximum flow from s to t, one unit per augmenting path,
        starting from whatever flow the network already carries; returns the
        units added."""
        cap, rev = self._cap, self._rev
        flow = 0
        while True:
            live = np.frombuffer(cap, dtype=np.int64) > 0
            level = levels(self._start, self._head, live, s, t)
            if level[t] < 0:
                return flow
            adm, head, it, end, alive = phase_arcs(
                self._tail, self._head, live, level, t
            )
            slot = array("q", adm.tobytes())
            del live, level, adm
            nodes = [s]
            arcs: list[int] = []  # the path's arcs, by slot
            u = s
            while True:
                if u == t:
                    flow += 1
                    for p in arcs:
                        cap[p] -= 1
                        cap[rev[p]] += 1
                    cut = next((k for k, p in enumerate(arcs) if not cap[p]), -1)
                    if cut >= 0:
                        # resume where the first saturated arc left off: the
                        # nodes before it would retrace the same arcs
                        del nodes[cut + 1 :]
                        del arcs[cut:]
                        u = nodes[-1]
                    continue
                i = it[u]
                e = end[u]
                while i < e:
                    p = slot[i]
                    if cap[p] and alive[head[i]]:
                        break
                    i += 1
                else:
                    alive[u] = 0
                    nodes.pop()
                    if not arcs:
                        break
                    arcs.pop()
                    u = nodes[-1]
                    it[u] += 1
                    continue
                it[u] = i
                u = head[i]
                nodes.append(u)
                arcs.append(p)


def csr_bounds(tail, size: int) -> np.ndarray:
    """CSR bounds of arcs listed by ascending tail: node u's arcs are
    bounds[u]..bounds[u + 1] - 1."""
    bounds = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=size), out=bounds[1:])
    return bounds


def levels(start, head, live, s: int, t: int) -> np.ndarray:
    """Breadth-first levels from s over the live arcs of a CSR list
    (``start`` bounds each node's slots of ``head``, ``live`` masks them),
    up to and including the level of t; -1 elsewhere.  Levels are held in
    the dtype of ``head``."""
    size = len(start) - 1
    level = np.full(size, -1, dtype=head.dtype)
    level[s] = 0
    seen = np.empty(size, dtype=np.int64)
    frontier = np.array([s], dtype=np.int64)
    depth = 0
    while len(frontier) and level[t] < 0:
        depth += 1
        lo = start[frontier]
        counts = start[frontier + 1] - lo
        # the arc slots of every frontier node, concatenated
        offsets = np.cumsum(counts)
        slots = np.arange(offsets[-1]) + np.repeat(lo - offsets + counts, counts)
        # numpy indexes fastest with intp indices
        heads = head[slots[live[slots]]].astype(np.intp, copy=False)
        heads = heads[level[heads] < 0]
        # keep one copy of each head: the last write to `seen` wins
        index = np.arange(len(heads))
        seen[heads] = index
        frontier = heads[seen[heads] == index]
        level[frontier] = depth
    return level


def phase_arcs(tail, head, live, level, t: int):
    """The arcs one Dinic phase searches, in list order, laid out for the
    depth-first search over a list of arcs grouped by tail.

    An arc is admissible when it is live, goes one level up, and enters a
    node from which t is reachable along such arcs.  Capacity only grows on
    arcs one level down and levels only drop to -1 (exhausted), so no arc
    becomes admissible during the phase, and a node that cannot reach t now
    never will; the search skips exactly the arcs and nodes on which the
    full scan would have failed.  Returns ``(adm, heads, it, end, alive)``:
    the list indices of the admissible arcs, their heads, each node's first
    and past-last position among them (``it`` is the current-arc pointer),
    and whether each node reaches t; all but ``adm`` are flat machine
    arrays, whose scalar reads in the search loop are as fast as from lists.
    """
    size = len(level)
    from_level = level[tail]
    adm = np.flatnonzero(live & (from_level >= 0) & (level[head] == from_level + 1))
    tail = tail[adm].astype(np.intp, copy=False)
    head = head[adm].astype(np.intp, copy=False)
    from_level = from_level[adm]
    # levels are small: in the narrowest unsigned type numpy sorts them by radix
    by_level = np.argsort(
        from_level.astype(np.min_scalar_type(level[t])), kind="stable"
    )
    cuts = np.searchsorted(from_level[by_level], np.arange(level[t] + 1))
    useful = np.zeros(size, dtype=bool)
    useful[t] = True
    for d in range(level[t] - 1, -1, -1):
        arcs_d = by_level[cuts[d] : cuts[d + 1]]
        useful[tail[arcs_d][useful[head[arcs_d]]]] = True
    keep = useful[head]
    adm, tail, head = adm[keep], tail[keep], head[keep]
    bounds = csr_bounds(tail, size)
    heads = array("q", head.astype(np.int64, copy=False).tobytes())
    it = array("q", bounds[:-1].tobytes())
    end = array("q", bounds[1:].tobytes())
    alive = bytearray(useful.astype(np.uint8).tobytes())
    return adm, heads, it, end, alive
