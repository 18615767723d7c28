"""Tests for the Fig. 1 schedule-generation pipeline (repro.core.pipeline)."""

import pytest

from repro.core import ForwardingModel, estimate_path_diversity, generate_schedule
from repro.core.mcf_path import PathSchedule
from repro.core.mcf_timestepped import TimeSteppedFlow
from repro.core.pipeline import PATH_DIVERSITY_THRESHOLD
from repro.topology import torus_2d


class TestPathDiversity:
    def test_expander_low_diversity(self, genkautz_3_10):
        assert estimate_path_diversity(genkautz_3_10) < 4.0

    def test_torus_higher_diversity_than_expander(self, genkautz_3_10):
        torus = torus_2d(4)
        assert estimate_path_diversity(torus) > estimate_path_diversity(genkautz_3_10)

    def test_sampling_is_deterministic(self, genkautz_4_16):
        a = estimate_path_diversity(genkautz_4_16, sample=16, seed=3)
        b = estimate_path_diversity(genkautz_4_16, sample=16, seed=3)
        assert a == b


class TestHostForwarding:
    def test_host_forwarding_returns_timestepped_flow(self, cube3):
        schedule = generate_schedule(cube3, forwarding=ForwardingModel.HOST)
        assert isinstance(schedule, TimeSteppedFlow)
        assert schedule.total_utilization == pytest.approx(4.0, rel=1e-3)

    def test_host_bottleneck_triggers_augmentation(self, cube3):
        schedule = generate_schedule(cube3, forwarding=ForwardingModel.HOST,
                                     host_bandwidth=1.5)
        assert isinstance(schedule, TimeSteppedFlow)
        assert schedule.meta.get("augmented") is True
        assert schedule.meta["num_hosts"] == 8
        # The augmented graph has 3N nodes.
        assert schedule.topology.num_nodes == 24

    def test_generous_host_bandwidth_skips_augmentation(self, cube3):
        schedule = generate_schedule(cube3, forwarding=ForwardingModel.HOST,
                                     host_bandwidth=10.0)
        assert schedule.topology.num_nodes == 8
        assert "augmented" not in schedule.meta

    def test_host_bandwidth_equal_to_aggregate_skips_augmentation(self, cube3):
        # The augmentation triggers strictly below the NIC aggregate (3 links
        # at capacity 1.0), so exactly-matching host bandwidth is a no-op.
        schedule = generate_schedule(cube3, forwarding=ForwardingModel.HOST,
                                     host_bandwidth=3.0)
        assert schedule.topology.num_nodes == 8
        assert "augmented" not in schedule.meta

    def test_decomposed_ts_branch_matches_monolithic(self, cube3):
        mono = generate_schedule(cube3, forwarding=ForwardingModel.HOST)
        deco = generate_schedule(cube3, forwarding=ForwardingModel.HOST,
                                 decompose_ts=True)
        assert isinstance(deco, TimeSteppedFlow)
        assert deco.total_utilization == pytest.approx(mono.total_utilization, rel=1e-6)

    def test_decomposed_ts_branch_with_augmentation(self, cube3):
        schedule = generate_schedule(cube3, forwarding=ForwardingModel.HOST,
                                     host_bandwidth=1.5, decompose_ts=True)
        assert schedule.meta.get("augmented") is True
        assert schedule.topology.num_nodes == 24


class TestNicForwarding:
    def test_low_diversity_uses_pmcf(self, genkautz_3_10):
        schedule = generate_schedule(genkautz_3_10, forwarding=ForwardingModel.NIC)
        assert isinstance(schedule, PathSchedule)
        assert schedule.meta["pipeline"] == "pmcf-disjoint"
        assert schedule.meta["path_diversity"] <= PATH_DIVERSITY_THRESHOLD

    def test_high_diversity_uses_mcf_extp(self):
        # A 3x3 torus averages 1.5 shortest paths per pair and stays on
        # pMCF; a 4x6 torus averages 4.7.
        torus = torus_2d(4, 6)
        schedule = generate_schedule(torus, forwarding=ForwardingModel.NIC)
        assert isinstance(schedule, PathSchedule)
        assert schedule.meta["pipeline"] == "mcf-extp"
        assert schedule.meta["path_diversity"] > PATH_DIVERSITY_THRESHOLD

    def test_default_request_is_nic(self, genkautz_3_10):
        schedule = generate_schedule(genkautz_3_10)
        assert isinstance(schedule, PathSchedule)

    def test_both_branches_reach_near_optimal_flow(self, bipartite44):
        from repro.core import solve_decomposed_mcf, solve_mcf_extract_paths

        # K_{4,4} is path poor, so the pipeline takes pMCF; MCF-extP is
        # called directly.
        optimal = solve_decomposed_mcf(bipartite44).concurrent_flow
        pmcf = generate_schedule(bipartite44)
        extp = solve_mcf_extract_paths(bipartite44)
        assert pmcf.meta["pipeline"] == "pmcf-disjoint"
        assert pmcf.concurrent_flow >= 0.9 * optimal
        assert extp.concurrent_flow == pytest.approx(optimal, rel=1e-4)
