"""Tests for the flat-array unit-capacity max flow against the recursive
Dinic of the oracles."""
from __future__ import annotations

import random
import sys

import oracles

from gridcube.flow import max_flow


def random_networks():
    """300 random networks on 2..14 nodes, source 0 and sink size - 1: each
    as its size, its edges (tail, head, capacity), and the unit edge lists
    that ``max_flow`` takes, one unit edge per unit of capacity."""
    rng = random.Random(8128)
    for _ in range(300):
        size = rng.randint(2, 14)
        edges = [
            (rng.randrange(size), rng.randrange(size), rng.randint(1, 3))
            for _ in range(rng.randint(0, 40))
        ]
        tail = [u for u, _, c in edges for _ in range(c)]
        head = [v for _, v, c in edges for _ in range(c)]
        yield size, edges, tail, head


def test_same_augmentations_as_recursive_dinic():
    # equal residual capacities on every edge mean the two solvers pushed
    # the same units along the same paths
    for size, edges, tail, head in random_networks():
        ref = oracles.Dinic(size)
        for u, v, c in edges:
            ref.add_edge(u, v, c)
        ref.max_flow(0, size - 1)
        carries = iter(max_flow(size, tail, head, size - 1).tolist())
        residual = [c - sum(next(carries) for _ in range(c)) for _, _, c in edges]
        assert residual == ref.cap[0::2]


def flow_path(tail, head, carries, sink: int) -> list[int]:
    """The edges of one path from node 0 to ``sink`` along edges that carry
    flow, found breadth-first (one exists while the flow's value is
    positive)."""
    reached_by = {0: None}  # node -> the edge it was first reached by
    queue = [0]
    for u in queue:
        for e, (t, h) in enumerate(zip(tail, head)):
            if carries[e] and t == u and h not in reached_by:
                reached_by[h] = e
                queue.append(h)
    path, u = [], sink
    while u:
        path.append(reached_by[u])
        u = tail[reached_by[u]]
    return path


def net_outflow(size, tail, head, carries) -> list[int]:
    out = [0] * size
    for u, v, c in zip(tail, head, carries):
        out[u] += c
        out[v] -= c
    return out


def test_started_from_a_flow_keeps_it_maximal():
    # from a maximum flow, its own or the one it finds with the edges
    # listed in reverse, max_flow finds no augmenting path and returns the
    # flow unchanged; from one path of its own flow it reaches a flow of
    # the same value, though not necessarily along the same edges
    started = other_flows = 0
    for size, _, tail, head in random_networks():
        sink = size - 1
        carries = max_flow(size, tail, head, sink)
        other = max_flow(size, tail[::-1], head[::-1], sink)[::-1]
        for flow in (carries, other):
            assert (max_flow(size, tail, head, sink, flow) == flow).all()
        other_flows += bool((other != carries).any())
        value = net_outflow(size, tail, head, carries)[0]
        if value == 0:
            continue
        start = [False] * len(tail)
        for e in flow_path(tail, head, carries, sink):
            start[e] = True
        out = net_outflow(size, tail, head, max_flow(size, tail, head, sink, start))
        assert out[0] == value == -out[sink]
        assert not any(out[1:sink])
        started += 1
    assert started > 100 and other_flows > 100, (started, other_flows)


def test_later_phase_cancels_flow_along_a_reverse_arc():
    # the first phase sends s-a-c-t; the second reaches a only back along
    # a-c, and moves that unit onto a-e-f-t
    s, a, b, c, e, f, t = range(7)
    edges = [(s, a), (s, b), (a, c), (b, c), (c, t), (a, e), (e, f), (f, t)]
    carries = max_flow(7, [u for u, _ in edges], [v for _, v in edges], t)
    assert carries.tolist() == [True, True, False, True, True, True, True, True]


def test_long_augmenting_path_needs_no_recursion():
    length = sys.getrecursionlimit() + 500
    carries = max_flow(length + 1, range(length), range(1, length + 1), length)
    assert carries.all()
