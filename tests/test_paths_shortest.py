"""Tests for shortest/bounded path enumeration (repro.paths.shortest)."""

import pytest

from repro.paths import (
    all_shortest_path_sets,
    all_shortest_paths,
    bounded_length_path_sets,
    bounded_length_paths,
    first_shortest_path_sets,
    shortest_path,
)


class TestShortestPath:
    def test_shortest_path_on_ring(self, ring5):
        assert shortest_path(ring5, 0, 3) == [0, 1, 2, 3]

    def test_shortest_path_deterministic_lexicographic(self, cube3):
        # 0 -> 3 has two shortest paths (via 1 or via 2); lexicographic BFS picks via 1.
        assert shortest_path(cube3, 0, 3) == [0, 1, 3]

    def test_no_path_raises(self):
        import networkx as nx
        from repro.topology import Topology

        topo = Topology.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        ok = shortest_path(topo, 0, 2)
        assert ok == [0, 1, 2]
        broken = Topology.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(nx.NetworkXNoPath):
            shortest_path(broken, 0, 2)


class TestAllShortestPaths:
    def test_hypercube_pair_count(self, cube3):
        # Antipodal nodes in the 3-cube have 3! = 6 shortest paths.
        assert len(all_shortest_paths(cube3, 0, 7)) == 6

    def test_limit_respected(self, cube3):
        assert len(all_shortest_paths(cube3, 0, 7, limit=2)) == 2

    def test_path_sets_cover_all_commodities(self, cube3):
        sets = all_shortest_path_sets(cube3)
        assert len(sets) == 8 * 7
        for (s, d), paths in sets.items():
            for p in paths:
                assert p[0] == s and p[-1] == d

    def test_first_shortest_path_sets_single_path(self, cube3):
        sets = first_shortest_path_sets(cube3)
        assert all(isinstance(p, list) for p in sets.values())
        assert len(sets) == 56


class TestBoundedLength:
    def test_bounded_paths_respect_cutoff(self, cube3):
        paths = bounded_length_paths(cube3, 0, 7, max_length=3)
        assert all(len(p) - 1 <= 3 for p in paths)
        assert len(paths) == 6

    def test_longer_cutoff_gives_more_paths(self, cube3):
        short = bounded_length_paths(cube3, 0, 3, max_length=2)
        long = bounded_length_paths(cube3, 0, 3, max_length=4)
        assert len(long) > len(short)

    def test_always_contains_a_path(self, ring5):
        # Cutoff below the distance still yields the fallback shortest path.
        paths = bounded_length_paths(ring5, 0, 4, max_length=2)
        assert paths == [[0, 1, 2, 3, 4]]

    def test_path_set_default_cutoff_is_diameter(self, cube3):
        sets = bounded_length_path_sets(cube3)
        for (s, d), paths in sets.items():
            assert all(len(p) - 1 <= 3 for p in paths)

    def test_limit_per_pair(self, cube3):
        sets = bounded_length_path_sets(cube3, max_length=4, limit_per_pair=3)
        assert all(len(paths) <= 3 for paths in sets.values())
