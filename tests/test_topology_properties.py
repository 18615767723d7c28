"""Tests for graph-property measurements (repro.topology.properties)."""

import math

import pytest

from repro.topology import (
    complete,
    generalized_kautz,
    hypercube,
    properties,
    ring,
    torus_2d,
    torus_3d,
)


class TestDistances:
    def test_total_pairwise_distance_ring(self):
        # Unidirectional ring: per source 1 + 2 + ... + (N-1).
        topo = ring(5)
        assert properties.total_pairwise_distance(topo) == 5 * (1 + 2 + 3 + 4)

    def test_total_pairwise_distance_complete(self):
        topo = complete(6)
        assert properties.total_pairwise_distance(topo) == 6 * 5

    def test_average_distance_hypercube(self):
        # Average hamming distance over ordered pairs of a 3-cube:
        # per source distances sum to 3*1 + 3*2 + 1*3 = 12, over 7 pairs.
        topo = hypercube(3)
        assert properties.average_distance(topo) == pytest.approx(12 / 7)

    def test_average_distance_torus(self):
        topo = torus_3d(3)
        assert properties.average_distance(topo) == pytest.approx(54 / 26)


class TestSpectralAndExpansion:
    def test_spectral_gap_complete_graph(self):
        # K_n has eigenvalues n-1 and -1: gap = n.
        topo = complete(6)
        assert properties.spectral_gap(topo) == pytest.approx(6.0, abs=1e-9)

    def test_spectral_gap_positive_for_connected(self):
        assert properties.spectral_gap(generalized_kautz(4, 20)) > 0

    def test_algebraic_connectivity_ring_small(self):
        topo = ring(8)
        # Symmetrized unidirectional ring = cycle with weight 1/2 edges.
        expected = (1 - math.cos(2 * math.pi / 8))  # 2*(w=1/2)*(1-cos)
        assert properties.algebraic_connectivity(topo) == pytest.approx(expected, rel=1e-6)

    def test_expander_has_larger_gap_than_torus(self):
        gk = generalized_kautz(4, 16)
        t = torus_2d(4)
        assert properties.spectral_gap(gk) > properties.spectral_gap(t)


class TestBisection:
    def test_bisection_hypercube(self):
        # Bisection bandwidth of the d-cube is N/2 bidirectional links.
        topo = hypercube(3)
        est = properties.bisection_bandwidth_estimate(topo, trials=200, seed=0)
        assert est <= 4.0 + 1e-9
        assert est > 0

    def test_bisection_complete(self):
        topo = complete(4)
        est = properties.bisection_bandwidth_estimate(topo)
        # Balanced 2|2 cut crosses 2*2 node pairs = 8 directed edges -> 4 per direction.
        assert est == pytest.approx(4.0, abs=1e-9)


class TestFlowBound:
    def test_flow_upper_bound_ring(self):
        topo = ring(5)
        # total cap 5, total dist 50.
        assert properties.all_to_all_upper_bound_from_distance(topo) == pytest.approx(0.1)

    def test_flow_upper_bound_matches_mcf_on_hypercube(self):
        from repro.core import solve_decomposed_mcf

        topo = hypercube(3)
        bound = properties.all_to_all_upper_bound_from_distance(topo)
        achieved = solve_decomposed_mcf(topo).concurrent_flow
        assert achieved <= bound + 1e-6
        assert achieved == pytest.approx(bound, rel=1e-4)  # hypercube is distance-optimal

    def test_summary_keys(self):
        s = properties.summary(hypercube(2))
        for key in ("num_nodes", "diameter", "average_distance", "spectral_gap",
                    "bisection_estimate", "flow_upper_bound"):
            assert key in s
        assert s["num_nodes"] == 4
