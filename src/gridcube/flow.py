"""Deterministic unit-capacity max flow (Dinic) over flat arc arrays.

Every edge carries one unit; an edge of capacity c is given as c consecutive
parallel edges, along which Dinic's algorithm augments exactly as along the
one edge.  Edge e, in insertion order, is arc 2e (forward) paired with arc
2e+1 (reverse).  An arc is live while it has residual capacity: at first the
forward arcs, and augmenting a path flips the live bit of each of its arcs
and of their reverses.  The arcs leaving a node are scanned in arc order,
that is in the order their edges were inserted, so the augmenting paths
depend only on the node numbering and the edge order.  The arcs are laid out
in CSR form, grouped by tail node by a stable sort.

Each phase computes breadth-first levels from node 0 and then runs a
depth-first search from node 0 for augmenting paths along strictly
increasing levels, with a current-arc pointer per node; an augment
saturates every arc of its path, so the search steps past them and resumes
from node 0.  The search is iterative, so path length is not bounded by the
interpreter's recursion limit.  Three shortcuts leave every augmenting path
unchanged: the breadth-first search stops once the sink is labelled (a node
not yet labelled then lies at or beyond the sink's level and cannot reach it
along increasing levels); the search scans only the phase's admissible
arcs, into nodes that can reach the sink along them; and a node found
exhausted is marked dead (every later visit in the phase would fail).  The
level computation, the admissible-arc selection and the search are module
functions over any CSR arc list with a mask of live arcs: ``max_flow`` runs
them on the arcs of an edge list, from zero or from a given flow.  The
breadth-first search reads the live arcs of each frontier node and keeps,
per level, those into the next level; the admissible arcs are selected from
these lists alone, so no phase scans the whole arc list.  Only the
depth-first search walks arcs one at a time.
"""
from __future__ import annotations

from array import array

import numpy as np


def max_flow(size: int, tail, head, sink: int, carrying=None) -> np.ndarray:
    """A maximum flow from node 0 to ``sink`` over the unit edges
    tail[e] -> head[e] on nodes 0..size-1, as Dinic's algorithm finds it
    from the flow ``carrying`` (whether each edge carries flow; None for
    zero); returns whether each edge carries flow.  The edge lists are freed
    once the arc arrays exist, unless the caller holds them too."""
    # node and arc ids are held in int32 where they fit
    ids = np.int32 if max(size, 2 * len(tail)) <= 1 << 31 else np.int64
    tail = np.asarray(tail, dtype=ids)
    head = np.asarray(head, dtype=ids)
    arc_from = np.column_stack([tail, head]).ravel()  # arc 2e + 1 leaves head[e]
    arc_to = np.column_stack([head, tail]).ravel()
    del tail, head
    order = np.argsort(arc_from, kind="stable")  # CSR slot -> arc
    tail, head = arc_from[order], arc_to[order]
    del arc_from, arc_to
    live = (order & 1) == 0
    if carrying is not None:
        live ^= np.asarray(carrying, dtype=bool)[order >> 1]
    slot = np.empty(len(order), dtype=ids)  # arc -> CSR slot
    slot[order] = np.arange(len(order), dtype=ids)
    forward = slot[0::2].copy()
    order ^= 1  # in place: arrays the size of the arc list are the large ones
    rev = slot[order]  # CSR slot -> the CSR slot of its reverse arc
    del order, slot
    start = csr_bounds(tail, size)
    # every phase's level arcs, in one array of the arc count allocated once
    found = np.empty(len(head), dtype=head.dtype)
    while True:
        level, level_arcs = levels(start, head, live, sink, found)
        if level[sink] < 0:
            return ~live[forward]
        on_path = phase_paths(tail, head, size, level_arcs, sink)
        live[on_path] = False
        live[rev[on_path]] = True


def csr_bounds(tail, size: int) -> np.ndarray:
    """CSR bounds of arcs listed by ascending tail: node u's arcs are
    bounds[u]..bounds[u + 1] - 1."""
    bounds = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=size), out=bounds[1:])
    return bounds


def levels(start, head, live, t: int, found) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first levels from the source, node 0, over the live arcs of
    a CSR list (``start`` bounds each node's slots of ``head``, ``live``
    masks them), up to and including the level of t; -1 elsewhere.  Levels
    are held in the dtype of ``head``.  Also returns, for each level d from
    1 up, the slots of the live arcs it scanned into level d: every live
    arc from level d - 1 to level d, as the frontier is all of level d - 1
    and a head not labelled before is labelled d.  These are views, level
    after level, into ``found``, an array of at least the arc count in the
    dtype of ``head``, which the next call overwrites."""
    size = len(start) - 1
    level = np.full(size, -1, dtype=head.dtype)
    level[0] = 0
    seen = np.empty(size, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    level_arcs = []
    at = 0
    while len(frontier) and level[t] < 0:
        lo = start[frontier]
        counts = start[frontier + 1] - lo
        # the arc slots of every frontier node, concatenated
        offsets = counts.cumsum()
        slots = np.arange(offsets[-1]) + (lo - offsets + counts).repeat(counts)
        slots = slots[live[slots]]
        # numpy indexes fastest with intp indices
        heads = head[slots].astype(np.intp, copy=False)
        new = level[heads] < 0
        into = slots[new]
        level_arcs.append(found[at : at + len(into)])
        level_arcs[-1][:] = into
        at += len(into)
        heads = heads[new]
        # keep one copy of each head: the last write to `seen` wins
        index = np.arange(len(heads))
        seen[heads] = index
        frontier = heads[seen[heads] == index]
        level[frontier] = len(level_arcs)
    return level, level_arcs


def phase_arcs(tail, head, size: int, level_arcs, t: int):
    """The arcs one Dinic phase searches on nodes 0..size-1, in list order,
    laid out for the depth-first search over a list of arcs grouped by tail.

    An arc is admissible when it is live, goes one level up, and enters a
    node from which t is reachable along such arcs.  Capacity only grows on
    arcs one level down and levels only drop to -1 (exhausted), so no arc
    becomes admissible during the phase, and a node that cannot reach t now
    never will; the search skips exactly the arcs and nodes on which the
    full scan would have failed.  The live arcs one level up are the lists
    ``levels`` scanned (``level_arcs``, one per level); from the top level
    down, an arc into a node that reaches t is kept and makes its tail
    reach t.
    Returns ``(adm, heads, it, end, alive)``: the list indices of the
    admissible arcs, their heads, each node's first and past-last position
    among them (``it`` is the current-arc pointer), and whether each node
    reaches t; all but ``adm`` are flat machine arrays, whose scalar reads
    in the search loop are as fast as from lists.
    """
    useful = np.zeros(size, dtype=bool)
    useful[t] = True
    for arcs in reversed(level_arcs):
        useful[tail[arcs[useful[head[arcs]]]]] = True
    adm = np.concatenate(level_arcs)
    adm = adm[useful[head[adm]]]
    adm.sort()
    bounds = csr_bounds(tail[adm], size)
    heads, it, end = array("q"), array("q"), array("q")
    for flat, x in (heads, head[adm].astype(np.int64)), (it, bounds[:-1]), (end, bounds[1:]):
        flat.frombytes(x.view(np.uint8))  # one copy, straight from the numpy buffer
    return adm, heads, it, end, bytearray(useful.view(np.uint8))


def phase_paths(tail, head, size: int, level_arcs, t: int) -> np.ndarray:
    """One Dinic phase over the live unit arcs of a list grouped by tail
    on nodes 0..size-1, given the level arcs of ``levels``: the depth-first
    search from node 0 along the arcs ``phase_arcs`` admits, with a
    current-arc pointer per node and dead nodes skipped.  Returns the
    indices of the arcs of every path it augments."""
    adm, heads, it, end, alive = phase_arcs(tail, head, size, level_arcs, t)
    taken = array("q")  # the arcs of every augmenting path
    nodes = [0]
    arcs: list[int] = []
    u = 0
    while True:
        if u == t:
            # every arc of the path is saturated, and is its tail's current
            # arc: step past them and resume from node 0
            for u in nodes[:-1]:
                it[u] += 1
            taken.extend(arcs)
            del nodes[1:]
            arcs.clear()
            u = 0
            continue
        i = it[u]
        e = end[u]
        while i < e:
            if alive[heads[i]]:
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
        u = heads[i]
        nodes.append(u)
        arcs.append(i)
    return adm[np.frombuffer(taken, dtype=np.int64)]
