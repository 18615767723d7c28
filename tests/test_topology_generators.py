"""Tests for the topology generators (Kautz, torus, hypercube, expanders, ...)."""

import math

import pytest

from repro.topology import (
    bidirectional_ring,
    chain,
    complete,
    complete_bipartite,
    coordinate_of,
    edge_punctured_torus,
    from_spec,
    generalized_kautz,
    hypercube,
    jellyfish,
    kautz,
    mesh,
    node_of,
    node_punctured_torus,
    random_regular,
    ring,
    spec_families,
    torus,
    torus_2d,
    torus_3d,
    twisted_hypercube,
    xpander,
)


class TestGeneralizedKautz:
    @pytest.mark.parametrize("degree,n", [(2, 6), (3, 10), (4, 16), (4, 25), (3, 11)])
    def test_out_degree_at_most_d(self, degree, n):
        topo = generalized_kautz(degree, n)
        assert topo.num_nodes == n
        assert all(topo.out_degree(u) <= degree for u in topo.nodes)
        # Imase-Itoh only degenerates on a handful of nodes.
        assert sum(topo.out_degree(u) for u in topo.nodes) >= degree * n - 2 * degree

    @pytest.mark.parametrize("degree,n", [(2, 8), (3, 12), (4, 20), (4, 100)])
    def test_strongly_connected(self, degree, n):
        assert generalized_kautz(degree, n).is_strongly_connected()

    @pytest.mark.parametrize("degree,n", [(2, 12), (3, 36), (4, 80)])
    def test_diameter_logarithmic(self, degree, n):
        topo = generalized_kautz(degree, n)
        assert topo.diameter() <= math.ceil(math.log(n, degree)) + 1

    def test_construction_rule(self):
        # GK(d, N): u -> (-d*u - j) mod N for j = 1..d.
        topo = generalized_kautz(2, 7)
        assert topo.has_edge(0, (-1) % 7)
        assert topo.has_edge(0, (-2) % 7)
        assert topo.has_edge(3, (-2 * 3 - 1) % 7)

    def test_any_n_d_coverage(self):
        # The selling point of the family: an instance exists for every (N, d).
        for n in range(5, 30):
            topo = generalized_kautz(4, n)
            assert topo.is_strongly_connected()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generalized_kautz(0, 10)
        with pytest.raises(ValueError):
            generalized_kautz(2, 1)

    def test_matches_classic_kautz_size(self):
        classic = kautz(2, 2)           # (d+1)*d^(k-1) = 6 nodes
        assert classic.num_nodes == 6
        assert classic.degree() == 2
        assert classic.is_strongly_connected()


class TestTorus:
    def test_3d_torus_shape(self):
        topo = torus_3d(3)
        assert topo.num_nodes == 27
        assert topo.degree() == 6
        assert topo.is_bidirectional()
        assert topo.diameter() == 3

    def test_2d_torus_shape(self):
        topo = torus_2d(4)
        assert topo.num_nodes == 16
        assert topo.degree() == 4
        assert topo.diameter() == 4

    def test_dimension_of_size_two_has_single_link(self):
        topo = torus([2, 3])
        # Along the size-2 dimension the wrap edge coincides with the direct one.
        assert topo.out_degree(0) == 3

    def test_mesh_no_wraparound(self):
        m = mesh([3, 3])
        corner_degree = m.out_degree(0)
        assert corner_degree == 2
        assert m.diameter() == 4

    def test_coordinate_roundtrip(self):
        dims = (3, 4, 5)
        for node in range(3 * 4 * 5):
            assert node_of(coordinate_of(node, dims), dims) == node

    def test_coordinate_out_of_bounds(self):
        with pytest.raises(ValueError):
            node_of((3, 0), (3, 3))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            torus([1, 3])


class TestPuncturedTorus:
    def test_edge_punctured_removes_links(self):
        base = torus([3, 3, 3])
        topo = edge_punctured_torus([3, 3, 3], num_removed=3, seed=1)
        assert topo.num_edges == base.num_edges - 6  # 3 bidirectional links
        assert topo.is_strongly_connected()
        assert topo.num_nodes == 27

    def test_edge_punctured_deterministic_per_seed(self):
        a = edge_punctured_torus([3, 3], num_removed=2, seed=5)
        b = edge_punctured_torus([3, 3], num_removed=2, seed=5)
        assert a.edges == b.edges

    def test_edge_punctured_seeds_differ(self):
        a = edge_punctured_torus([3, 3, 3], num_removed=3, seed=0)
        b = edge_punctured_torus([3, 3, 3], num_removed=3, seed=1)
        assert a.edges != b.edges

    def test_node_punctured(self):
        topo = node_punctured_torus([3, 3, 3], num_removed=3, seed=2)
        assert topo.num_nodes == 24
        assert topo.is_strongly_connected()

    def test_too_many_removals_rejected(self):
        with pytest.raises(ValueError):
            edge_punctured_torus([2, 2], num_removed=100)


class TestHypercube:
    def test_hypercube_properties(self):
        topo = hypercube(4)
        assert topo.num_nodes == 16
        assert topo.degree() == 4
        assert topo.diameter() == 4
        assert topo.is_bidirectional()

    def test_hypercube_edges_flip_single_bit(self):
        topo = hypercube(3)
        for u, v in topo.edges:
            assert bin(u ^ v).count("1") == 1

    def test_twisted_hypercube_same_size_and_degree(self):
        topo = twisted_hypercube(3)
        assert topo.num_nodes == 8
        assert topo.degree() == 3
        assert topo.is_bidirectional()
        assert topo.is_strongly_connected()

    def test_twisted_hypercube_differs_from_hypercube(self):
        assert set(twisted_hypercube(3).edges) != set(hypercube(3).edges)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            hypercube(0)
        with pytest.raises(ValueError):
            twisted_hypercube(1)


class TestBipartiteAndMisc:
    def test_complete_bipartite(self):
        topo = complete_bipartite(4, 4)
        assert topo.num_nodes == 8
        assert topo.degree() == 4
        assert topo.diameter() == 2
        # No edges within a side.
        assert not topo.has_edge(0, 1)
        assert topo.has_edge(0, 4)

    def test_complete_bipartite_asymmetric(self):
        topo = complete_bipartite(2, 3)
        assert topo.out_degree(0) == 3
        assert topo.out_degree(4) == 2

    def test_ring_and_chain(self):
        assert ring(6).degree() == 1
        assert bidirectional_ring(6).degree() == 2
        assert chain(5).diameter() == 4

    def test_complete(self):
        topo = complete(6)
        assert topo.num_edges == 30
        assert topo.degree() == 5


class TestExpanders:
    def test_xpander_size_and_degree(self):
        topo = xpander(degree=3, lift=4, seed=0)
        assert topo.num_nodes == 16
        assert topo.degree() == 3
        assert topo.is_strongly_connected()

    def test_xpander_deterministic(self):
        assert xpander(3, 5, seed=7).edges == xpander(3, 5, seed=7).edges

    def test_random_regular(self):
        topo = random_regular(3, 12, seed=0)
        assert topo.num_nodes == 12
        assert topo.degree() == 3
        assert topo.is_strongly_connected()

    def test_random_regular_handshake_violation(self):
        with pytest.raises(ValueError):
            random_regular(3, 9)

    def test_jellyfish_alias(self):
        topo = jellyfish(4, 10, seed=1)
        assert topo.metadata["family"] == "jellyfish"
        assert topo.degree() == 4


class TestFromSpec:
    #: A valid parameter string and its node count for every spec family.
    SPECS = {
        "genkautz": ("d=3,n=10", 10),
        "hypercube": ("dim=3", 8),
        "twisted": ("dim=3", 8),
        "bipartite": ("left=3,right=3", 6),
        "torus": ("dims=4x4", 16),
        "mesh": ("dims=4x4", 16),
        "xpander": ("d=4,lift=5,seed=0", 25),
        "rrg": ("d=3,n=12,seed=5", 12),
        "ring": ("n=6", 6),
        "complete": ("n=4", 4),
    }

    @pytest.mark.parametrize("family", spec_families())
    def test_unknown_and_duplicate_keys_rejected(self, family):
        params, num_nodes = self.SPECS[family]
        assert from_spec(f"{family}:{params}").num_nodes == num_nodes
        keys = [item.split("=")[0] for item in params.split(",")]
        with pytest.raises(ValueError, match="unknown parameter 'bogus'") as err:
            from_spec(f"{family}:{params},bogus=1")
        assert repr(family) in str(err.value)
        assert all(key in str(err.value).split("accepted keys:")[1] for key in keys)
        first = params.split(",")[0]
        with pytest.raises(ValueError, match=f"duplicate parameter '{keys[0]}'"):
            from_spec(f"{family}:{params},{first}")

    @pytest.mark.parametrize("spec", ["torus:rows=4,cols=4", "hypercube:dim=3,bogus=1"])
    def test_misspelled_keys_raise(self, spec):
        with pytest.raises(ValueError, match="accepted keys"):
            from_spec(spec)
