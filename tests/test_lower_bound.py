"""Tests for the Theorem 1 lower bound and the per-graph distance bound."""


import pytest

from repro.core import (
    dual_bound_concurrent_flow,
    ideal_arborescence_distance_sum,
    lower_bound_time_graph,
    lower_bound_time_regular,
    solve_decomposed_mcf,
    upper_bound_concurrent_flow,
)
from repro.topology import complete, generalized_kautz, hypercube, properties, ring, torus_2d


class TestArborescenceSum:
    def test_full_binary_tree(self):
        # N = 1 + 2 + 4 = 7 nodes: distances 2*1 + 4*2 = 10.
        assert ideal_arborescence_distance_sum(2, 7) == 10

    def test_partial_last_level(self):
        # N = 6: root + 2 at level 1 + 3 of 4 at level 2 -> 2*1 + 3*2 = 8.
        assert ideal_arborescence_distance_sum(2, 6) == 8

    def test_degree_one_chain(self):
        # Chain of N nodes: 1 + 2 + ... + (N-1).
        assert ideal_arborescence_distance_sum(1, 5) == 10

    def test_single_node(self):
        assert ideal_arborescence_distance_sum(3, 1) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            ideal_arborescence_distance_sum(0, 5)


class TestTheorem1:
    def test_lower_bound_complete_graph_tight(self):
        # Complete graph: d = N-1, every node at distance 1 -> bound = 1 = 1/F.
        assert lower_bound_time_regular(5, 6) == pytest.approx(1.0)
        assert solve_decomposed_mcf(complete(6)).concurrent_flow == pytest.approx(1.0, rel=1e-5)

    def test_scaling_n_log_n(self):
        # The bound grows like (N/d) * log_d N for large N.
        small = lower_bound_time_regular(4, 64)
        large = lower_bound_time_regular(4, 256)
        assert large > 3.5 * small            # ~4x from N alone, plus the log factor

    @pytest.mark.parametrize("make_topo", [
        lambda: hypercube(3),
        lambda: torus_2d(3),
        lambda: generalized_kautz(3, 10),
        lambda: ring(6),
    ])
    def test_no_topology_beats_the_regular_bound(self, make_topo):
        topo = make_topo()
        d = topo.max_degree()
        bound_time = lower_bound_time_regular(d, topo.num_nodes)
        achieved_time = 1.0 / solve_decomposed_mcf(topo).concurrent_flow
        assert achieved_time >= bound_time - 1e-6

    def test_graph_bound_at_least_regular_bound(self):
        for topo in (hypercube(3), torus_2d(4), generalized_kautz(4, 20)):
            assert lower_bound_time_graph(topo) >= \
                lower_bound_time_regular(topo.max_degree(), topo.num_nodes) - 1e-9


class TestGraphBound:
    def test_graph_bound_matches_mcf_on_hypercube(self, cube3, cube3_decomposed_mcf):
        # The hypercube achieves its distance bound exactly.
        assert 1.0 / cube3_decomposed_mcf.concurrent_flow == pytest.approx(
            lower_bound_time_graph(cube3), rel=1e-5)

    def test_upper_bound_concurrent_flow_reciprocal(self, cube3):
        assert upper_bound_concurrent_flow(cube3) == pytest.approx(
            1.0 / lower_bound_time_graph(cube3))

    def test_unit_lengths_give_the_distance_bound(self):
        # Total capacity over the sum of hop distances, counted by networkx.
        topo = generalized_kautz(4, 20)
        hops = properties.total_pairwise_distance(topo)
        expected = sum(topo.capacities().values()) / hops
        assert upper_bound_concurrent_flow(topo) == pytest.approx(expected, rel=1e-12)
        assert lower_bound_time_graph(topo) == pytest.approx(1.0 / expected, rel=1e-12)

    def test_any_lengths_bound_the_optimum(self, cube3, cube3_decomposed_mcf):
        # Weak duality: non-uniform (even zero) lengths still bound F above.
        lengths = [float((u * 7 + v) % 3) for u, v in cube3.edges]
        assert dual_bound_concurrent_flow(cube3, lengths) >= \
            cube3_decomposed_mcf.concurrent_flow - 1e-12

    def test_zero_lengths_give_no_bound(self, cube3):
        assert dual_bound_concurrent_flow(cube3, [0.0] * cube3.num_edges) == float("inf")

    def test_torus_27_bound(self, torus333):
        # Sum of distances 27*54, capacity 162 -> bound time 9 = 1/F.
        assert lower_bound_time_graph(torus333) == pytest.approx(9.0)
