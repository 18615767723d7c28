"""Tests for host-to-NIC bottleneck augmentation (§3.2.2, Fig. 2)."""

import pytest

from repro.core import augment_host_nic_bottleneck, solve_master_lp


class TestAugmentation:
    def test_structure(self, cube3):
        aug = augment_host_nic_bottleneck(cube3, host_bandwidth=2.0, link_bandwidth=1.0)
        n = cube3.num_nodes
        assert aug.topology.num_nodes == 3 * n
        # Host<->NIC edges: 2 per node; NIC-NIC edges: one per original edge.
        assert aug.topology.num_edges == 2 * n + cube3.num_edges
        assert list(aug.host_nodes()) == list(range(n))

    def test_capacities(self, cube3):
        aug = augment_host_nic_bottleneck(cube3, host_bandwidth=4.0, link_bandwidth=1.0)
        host = 0
        assert aug.topology.capacity(aug.nic_in[host], host) == 4.0
        assert aug.topology.capacity(host, aug.nic_out[host]) == 4.0
        # NIC-NIC edge inherits the physical capacity times link bandwidth.
        u, v = cube3.edges[0]
        assert aug.topology.capacity(aug.nic_out[u], aug.nic_in[v]) == 1.0

    def test_invalid_bandwidths(self, cube3):
        with pytest.raises(ValueError):
            augment_host_nic_bottleneck(cube3, host_bandwidth=0.0)
        with pytest.raises(ValueError):
            augment_host_nic_bottleneck(cube3, host_bandwidth=1.0, link_bandwidth=-1.0)

    def test_no_direct_nic_to_nic_bypass_of_host(self, cube3):
        # Data arriving at NIC_in(i) can only continue via Host(i): NIC_in has a
        # single outgoing edge (to the host).
        aug = augment_host_nic_bottleneck(cube3, host_bandwidth=2.0)
        for i in range(cube3.num_nodes):
            assert aug.topology.out_edges(aug.nic_in[i]) == [(aug.nic_in[i], i)]
            assert aug.topology.in_edges(aug.nic_out[i]) == [(i, aug.nic_out[i])]


class TestBottleneckedMCF:
    def test_paper_torus_value(self, torus333):
        """The paper's 3x3x3 torus example: f = 2/27 bottlenecked vs 1/9 otherwise.

        Injection 100 Gbps vs 6 x 25 Gbps NIC bandwidth -> host bandwidth is 4
        link units.
        """
        aug = augment_host_nic_bottleneck(torus333, host_bandwidth=4.0, link_bandwidth=1.0)
        master_value = solve_master_lp(aug.topology,
                                       terminals=list(aug.host_nodes())).concurrent_flow
        assert master_value == pytest.approx(2.0 / 27.0, rel=1e-3)

    def test_unbottlenecked_torus_value(self, torus333):
        value = solve_master_lp(torus333).concurrent_flow
        assert value == pytest.approx(1.0 / 9.0, rel=1e-3)

    def test_bottleneck_never_increases_flow(self, cube3):
        base = solve_master_lp(cube3).concurrent_flow
        aug = augment_host_nic_bottleneck(cube3, host_bandwidth=1.5)
        bottlenecked = solve_master_lp(aug.topology,
                                       terminals=list(aug.host_nodes())).concurrent_flow
        assert bottlenecked <= base + 1e-6

    def test_generous_host_bandwidth_recovers_base_flow(self, cube3):
        base = solve_master_lp(cube3).concurrent_flow
        aug = augment_host_nic_bottleneck(cube3, host_bandwidth=100.0)
        relaxed = solve_master_lp(aug.topology,
                                  terminals=list(aug.host_nodes())).concurrent_flow
        assert relaxed == pytest.approx(base, rel=1e-4)
