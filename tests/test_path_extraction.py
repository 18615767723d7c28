"""Tests for MCF-extP widest-path extraction (§3.2.1)."""

import pytest

from repro.core import (
    delivered,
    extract_paths,
    link_loads,
    solve_decomposed_mcf,
    solve_mcf_extract_paths,
)


class TestExtraction:
    def test_extraction_preserves_concurrent_flow(self, cube3_decomposed_mcf):
        schedule = extract_paths(cube3_decomposed_mcf)
        assert schedule.concurrent_flow == cube3_decomposed_mcf.concurrent_flow

    def test_extracted_paths_deliver_f_per_commodity(self, cube3_decomposed_mcf):
        schedule = extract_paths(cube3_decomposed_mcf)
        f = schedule.concurrent_flow
        assert delivered(schedule.edge_flows()).min() >= f - 1e-6

    def test_extracted_paths_respect_capacity(self, cube3_decomposed_mcf):
        schedule = extract_paths(cube3_decomposed_mcf)
        # Unit capacities: the busiest link's load is its utilization.
        assert link_loads(schedule.edge_flows()).max() <= 1.0 + 1e-6

    def test_paths_connect_correct_endpoints(self, genkautz_extp):
        for (s, d), plist in genkautz_extp.paths.items():
            assert plist, f"no paths for {(s, d)}"
            for p in plist:
                assert p.source == s and p.destination == d
                assert p.weight > 0

    def test_paths_sorted_by_decreasing_rate(self, genkautz_extp):
        for plist in genkautz_extp.paths.values():
            weights = [p.weight for p in plist]
            assert weights == sorted(weights, reverse=True)

    def test_paths_are_simple(self, genkautz_extp):
        for plist in genkautz_extp.paths.values():
            for p in plist:
                assert len(set(p.nodes)) == len(p.nodes), f"non-simple path {p.nodes}"

    def test_paths_use_existing_links(self, genkautz_extp):
        topo = genkautz_extp.topology
        for plist in genkautz_extp.paths.values():
            for p in plist:
                for u, v in p.edges:
                    assert topo.has_edge(u, v)

    def test_min_weight_filter(self, cube3_decomposed_mcf):
        coarse = extract_paths(cube3_decomposed_mcf, min_weight=1e-3)
        for plist in coarse.paths.values():
            for p in plist:
                assert p.weight >= 1e-3 or p.weight == coarse.concurrent_flow


class TestEndToEnd:
    def test_mcf_extp_on_torus_matches_optimum(self, torus33):
        optimal = solve_decomposed_mcf(torus33).concurrent_flow
        schedule = solve_mcf_extract_paths(torus33)
        assert schedule.concurrent_flow == pytest.approx(optimal, rel=1e-5)
        assert delivered(schedule.edge_flows()).min() >= optimal - 1e-5

    def test_metadata_identifies_method(self, genkautz_extp):
        assert genkautz_extp.meta["method"] == "mcf-extp"
        assert "extraction_seconds" in genkautz_extp.meta

    def test_extraction_faster_than_solve(self, genkautz_extp):
        # Widest-path extraction is a small fraction of the total pipeline cost.
        assert genkautz_extp.meta["extraction_seconds"] <= genkautz_extp.solve_seconds
