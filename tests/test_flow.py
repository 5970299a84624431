"""Tests for the flat-array max-flow solver against the recursive oracle."""
from __future__ import annotations

import random
import sys

import numpy as np
import oracles

from gridcube.flow import FlowNetwork


def test_same_augmentations_as_recursive_dinic():
    # equal final residual capacities on every edge mean the two solvers
    # pushed the same units along the same paths
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
        net = FlowNetwork(
            size,
            [u for u, _, _ in edges],
            [v for _, v, _ in edges],
            [c for _, _, c in edges],
        )
        assert net.max_flow(0, size - 1) == ref.max_flow(0, size - 1)
        assert net.residual(np.arange(len(edges))).tolist() == ref.cap[0::2]


def test_long_augmenting_path_needs_no_recursion():
    length = sys.getrecursionlimit() + 500
    net = FlowNetwork(length + 1, range(length), range(1, length + 1))
    assert net.max_flow(0, length) == 1
    assert not net.residual(np.arange(length)).any()
