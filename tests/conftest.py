"""Shared fixtures: model-problem hierarchies reused across test modules."""

import pytest

from polymg import GridSpec, build_hierarchy
from polymg.optpoly import optimal_roots


@pytest.fixture(scope="session")
def hierarchy_m4_a2():
    """Three-level hierarchy on a 15x15 interior grid, aspect ratio 2."""
    return build_hierarchy(GridSpec(m=4, aspect=2.0))


@pytest.fixture(scope="session")
def two_level_m5_a2():
    """Two-level 31x31 hierarchy, aspect ratio 2, for dense operator analysis."""
    return build_hierarchy(GridSpec(m=5, aspect=2.0), min_interior=15)


@pytest.fixture(scope="session")
def optimal_states():
    """``optimal_roots(k)`` for every supported degree, k = 1..200, in order."""
    return [optimal_roots(k) for k in range(1, 201)]
