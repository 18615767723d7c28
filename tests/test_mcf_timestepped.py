"""Tests for the time-stepped MCF (tsMCF, §3.1.3)."""

import numpy as np
import pytest

from repro.core import delivered, link_loads, solve_decomposed_mcf, solve_timestepped_mcf
from repro.topology import Topology, complete, ring


class TestOptimality:
    def test_total_utilization_equals_inverse_f_on_hypercube(self, cube3, cube3_tsmcf):
        # With enough steps the time-stepped optimum matches the steady state 1/F.
        assert cube3_tsmcf.total_utilization == pytest.approx(4.0, rel=1e-4)
        assert cube3_tsmcf.equivalent_concurrent_flow() == pytest.approx(0.25, rel=1e-4)

    def test_complete_graph_single_step(self):
        flow = solve_timestepped_mcf(complete(4), num_steps=1)
        assert flow.total_utilization == pytest.approx(1.0, rel=1e-6)
        assert flow.num_steps == 1

    def test_bipartite_matches_steady_state(self, bipartite44):
        steady = solve_decomposed_mcf(bipartite44).concurrent_flow
        ts = solve_timestepped_mcf(bipartite44)
        assert ts.equivalent_concurrent_flow() == pytest.approx(steady, rel=1e-3)

    def test_more_steps_never_hurts(self):
        topo = ring(4)
        short = solve_timestepped_mcf(topo, num_steps=3)
        long = solve_timestepped_mcf(topo, num_steps=5)
        assert long.total_utilization <= short.total_utilization + 1e-6

    def test_ring_matches_steady_state(self):
        topo = ring(4)
        ts = solve_timestepped_mcf(topo, num_steps=4)
        assert ts.total_utilization == pytest.approx(6.0, rel=1e-4)  # 1/F, F=1/6


class TestStructure:
    def test_every_commodity_fully_delivered(self, cube3_tsmcf):
        flows = cube3_tsmcf.edge_flows()
        assert flows.commodities == list(cube3_tsmcf.topology.commodities())
        assert delivered(flows) == pytest.approx(1.0, abs=1e-5)

    def test_step_utilization_bounds_link_loads(self, cube3_tsmcf):
        topo = cube3_tsmcf.topology
        caps = np.array([topo.capacities()[e] for e in topo.edges])
        loads = link_loads(cube3_tsmcf.edge_flows())
        assert loads.shape == (cube3_tsmcf.num_steps, topo.num_edges)
        for u_t, step in zip(cube3_tsmcf.step_utilizations, loads):
            assert (step <= u_t * caps + 1e-6).all()

    def test_causality_cumulative(self, cube3_tsmcf):
        """A node never forwards more of a shard than it has received so far."""
        topo = cube3_tsmcf.topology
        for (s, d), per in cube3_tsmcf.flows.items():
            for u in topo.nodes:
                if u in (s, d):
                    continue
                for t in range(1, cube3_tsmcf.num_steps + 1):
                    sent = sum(v for (a, b, tt), v in per.items() if a == u and tt <= t)
                    recv = sum(v for (a, b, tt), v in per.items() if b == u and tt < t)
                    assert sent <= recv + 1e-6

    def test_flows_respect_step_range(self, cube3_tsmcf):
        for per in cube3_tsmcf.flows.values():
            for (u, v, t) in per:
                assert 1 <= t <= cube3_tsmcf.num_steps
                assert cube3_tsmcf.topology.has_edge(u, v)

    def test_step_one_carries_traffic(self, cube3_tsmcf):
        flows = cube3_tsmcf.edge_flows()
        assert (flows.step == 0).any(), "step 1 must carry traffic"
        assert link_loads(flows)[0].sum() > 0


class TestParameters:
    def test_num_steps_below_diameter_rejected(self, cube3):
        with pytest.raises(ValueError, match="diameter"):
            solve_timestepped_mcf(cube3, num_steps=2)

    def test_default_steps_is_diameter_plus_extra(self, cube3, cube3_tsmcf):
        assert cube3_tsmcf.num_steps == cube3.diameter() + 1

    def test_disconnected_rejected(self):
        topo = Topology.from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(ValueError):
            solve_timestepped_mcf(topo)

    def test_meta_populated(self, cube3_tsmcf):
        assert cube3_tsmcf.meta["method"] == "tsmcf"
        assert cube3_tsmcf.meta["diameter"] == 3
        assert cube3_tsmcf.solve_seconds > 0
