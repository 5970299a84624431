"""Tests for the flat-array unit-capacity max flow against the recursive
Dinic of the oracles."""
from __future__ import annotations

import random
import sys

import oracles

from gridcube.flow import max_flow


def test_same_augmentations_as_recursive_dinic():
    # each capacity-c edge goes to max_flow as c consecutive unit edges;
    # equal residual capacities on every edge mean the two solvers pushed
    # the same units along the same paths
    rng = random.Random(8128)
    for _ in range(300):
        size = rng.randint(2, 14)
        edges = [
            (rng.randrange(size), rng.randrange(size), rng.randint(1, 3))
            for _ in range(rng.randint(0, 40))
        ]
        ref = oracles.Dinic(size)
        for u, v, c in edges:
            ref.add_edge(u, v, c)
        ref.max_flow(0, size - 1)
        carries = iter(
            max_flow(
                size,
                [u for u, _, c in edges for _ in range(c)],
                [v for _, v, c in edges for _ in range(c)],
                size - 1,
            ).tolist()
        )
        residual = [c - sum(next(carries) for _ in range(c)) for _, _, c in edges]
        assert residual == ref.cap[0::2]


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
