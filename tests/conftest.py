"""Shared fixtures: small topologies and pre-solved schedules reused across tests.

Fixtures that require an LP solve are session-scoped so the solver runs once
per test session, keeping the suite fast while letting many tests assert
against the same optimal solutions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro import obs
from repro.topology import (
    bidirectional_ring,
    complete,
    complete_bipartite,
    generalized_kautz,
    hypercube,
    ring,
    torus,
    torus_2d,
    twisted_hypercube,
)


# Property-based tests: deterministic examples (stable CI runtime) and no
# per-example deadline (some examples trigger LP solves).
settings.register_profile(
    "repro-ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-ci")


@pytest.fixture(autouse=True)
def _fresh_counters():
    """Every test reads the process's work counters from zero."""
    obs.reset()


@pytest.fixture(scope="session")
def ring5():
    """Unidirectional 5-node ring; optimal all-to-all F = 1/10."""
    return ring(5)


@pytest.fixture(scope="session")
def complete4():
    """Complete digraph on 4 nodes; optimal F = 1."""
    return complete(4)


@pytest.fixture(scope="session")
def cube3():
    """3D hypercube (N=8, degree 3); optimal F = 1/4."""
    return hypercube(3)


@pytest.fixture(scope="session")
def twisted3():
    """3D twisted hypercube (N=8, degree 3)."""
    return twisted_hypercube(3)


@pytest.fixture(scope="session")
def bipartite44():
    """Complete bipartite K4,4 (N=8, degree 4), the paper's GPU-testbed topology."""
    return complete_bipartite(4, 4)


@pytest.fixture(scope="session")
def torus33():
    """2D 3x3 torus (N=9, degree 4)."""
    return torus_2d(3)


@pytest.fixture(scope="session")
def torus333():
    """3D 3x3x3 torus (N=27, degree 6), the paper's TACC topology."""
    return torus([3, 3, 3])


@pytest.fixture(scope="session")
def genkautz_3_10():
    """Generalized Kautz graph with degree 3 and 10 nodes."""
    return generalized_kautz(3, 10)


@pytest.fixture(scope="session")
def genkautz_4_16():
    """Generalized Kautz graph with degree 4 and 16 nodes."""
    return generalized_kautz(4, 16)


@pytest.fixture(scope="session")
def biring6():
    """Bidirectional 6-node ring (degree 2)."""
    return bidirectional_ring(6)


# --------------------------------------------------------------------------- #
# Pre-solved schedules (expensive; shared across the whole session).
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def cube3_link_mcf(cube3):
    from repro.core import solve_link_mcf

    return solve_link_mcf(cube3)


@pytest.fixture(scope="session")
def cube3_decomposed_mcf(cube3):
    from repro.core import solve_decomposed_mcf

    return solve_decomposed_mcf(cube3)


@pytest.fixture(scope="session")
def cube3_tsmcf(cube3):
    from repro.core import solve_timestepped_mcf

    return solve_timestepped_mcf(cube3)


@pytest.fixture(scope="session")
def cube3_link_schedule(cube3_tsmcf):
    from repro.schedule import chunk_timestepped_flow

    return chunk_timestepped_flow(cube3_tsmcf)


@pytest.fixture(scope="session")
def genkautz_extp(genkautz_3_10):
    from repro.core import solve_mcf_extract_paths

    return solve_mcf_extract_paths(genkautz_3_10)


@pytest.fixture(scope="session")
def genkautz_routed_schedule(genkautz_extp):
    from repro.schedule import chunk_path_schedule

    return chunk_path_schedule(genkautz_extp)
