"""Tests for the decomposed time-stepped MCF (§3.1.3, decomposition remark)."""

import pytest

from repro.core import (
    augment_host_nic_bottleneck,
    delivered,
    solve_timestepped_mcf,
    solve_timestepped_mcf_decomposed,
)
from repro.schedule import chunk_timestepped_flow, validate_link_schedule
from repro.topology import Topology, bidirectional_ring, complete, complete_bipartite, hypercube, ring


class TestOptimality:
    @pytest.mark.parametrize("make_topo,expected_util", [
        (lambda: complete(4), 1.0),
        (lambda: ring(4), 6.0),
        (lambda: complete_bipartite(4, 4), 2.5),
        (lambda: hypercube(3), 4.0),
    ])
    def test_matches_monolithic_optimum(self, make_topo, expected_util):
        topo = make_topo()
        decomposed = solve_timestepped_mcf_decomposed(topo)
        assert decomposed.total_utilization == pytest.approx(expected_util, rel=1e-4)

    def test_agrees_with_monolithic_on_asymmetric_topology(self):
        # A topology with no closed-form optimum: both formulations must agree.
        topo = bidirectional_ring(5)
        mono = solve_timestepped_mcf(topo)
        decomposed = solve_timestepped_mcf_decomposed(topo)
        assert decomposed.total_utilization == pytest.approx(mono.total_utilization, rel=1e-4)


class TestSolutionStructure:
    @pytest.fixture(scope="class")
    def cube_flow(self):
        return solve_timestepped_mcf_decomposed(hypercube(3))

    def test_every_commodity_delivered(self, cube_flow):
        flows = cube_flow.edge_flows()
        assert flows.commodities == list(cube_flow.topology.commodities())
        assert delivered(flows) == pytest.approx(1.0, abs=1e-5)

    def test_causality(self, cube_flow):
        topo = cube_flow.topology
        for (s, d), per in cube_flow.flows.items():
            for u in topo.nodes:
                if u in (s, d):
                    continue
                for t in range(1, cube_flow.num_steps + 1):
                    sent = sum(v for (a, b, tt), v in per.items() if a == u and tt <= t)
                    recv = sum(v for (a, b, tt), v in per.items() if b == u and tt < t)
                    assert sent <= recv + 1e-6

    def test_chunks_to_valid_link_schedule(self, cube_flow):
        schedule = chunk_timestepped_flow(cube_flow)
        validate_link_schedule(schedule)

    def test_timing_breakdown_recorded(self, cube_flow):
        assert cube_flow.meta["method"] == "tsmcf-decomposed"
        assert cube_flow.meta["master_seconds"] > 0
        assert len(cube_flow.meta["child_seconds_each"]) == 8

    def test_master_variable_count_smaller_than_monolithic(self):
        # The point of the decomposition: grouped variables scale with N, not N^2.
        topo = hypercube(3)
        mono = solve_timestepped_mcf(topo)
        assert mono.meta["num_variables"] > topo.num_nodes * topo.num_edges


class TestTerminals:
    def test_augmented_topology_host_exchange(self):
        topo = bidirectional_ring(4)
        aug = augment_host_nic_bottleneck(topo, host_bandwidth=1.0)
        hosts = list(aug.host_nodes())
        decomposed = solve_timestepped_mcf_decomposed(aug.topology, terminals=hosts)
        mono = solve_timestepped_mcf(aug.topology, terminals=hosts)
        assert decomposed.total_utilization == pytest.approx(mono.total_utilization, rel=1e-3)
        flows = decomposed.edge_flows()
        hosts = sorted(hosts)
        assert flows.commodities == [(s, d) for s in hosts for d in hosts if s != d]
        assert delivered(flows) == pytest.approx(1.0, abs=1e-5)

    def test_rejects_disconnected(self):
        topo = Topology.from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(ValueError):
            solve_timestepped_mcf_decomposed(topo)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError):
            solve_timestepped_mcf_decomposed(hypercube(3), num_steps=1)
