"""Fixtures shared across test modules."""
from __future__ import annotations

import pytest
from hypothesis import settings

from gridcube.grids import GridSpec
from gridcube.stages import build_fk

# every property test replays the same examples and keeps no example database
settings.register_profile("gridcube", deadline=None, derandomize=True, database=None)
settings.load_profile("gridcube")

BATTERY_SIDES = (5, 6, 7, 8, 9, 12)
BATTERY_KS = (2, 3, 4, 5)


@pytest.fixture(scope="session")
def battery_grids():
    """The composed stage maps of the battery grids a^k, keyed by (k, a)."""
    grids = {}
    for k in BATTERY_KS:
        for a in BATTERY_SIDES:
            spec = GridSpec((a,) * k)
            assert spec.size <= 1 << 20
            grids[(k, a)] = build_fk(spec)
    return grids
