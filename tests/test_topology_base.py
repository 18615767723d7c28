"""Tests for the Topology wrapper (repro.topology.base)."""

import networkx as nx
import pytest

from repro.experiments.scenario import topology_key
from repro.topology import Topology, ring, complete, hypercube


class TestConstruction:
    def test_from_edges_directed(self):
        topo = Topology.from_edges(3, [(0, 1), (1, 2), (2, 0)], name="tri")
        assert topo.num_nodes == 3
        assert topo.num_edges == 3
        assert topo.has_edge(0, 1)
        assert not topo.has_edge(1, 0)

    def test_from_edges_bidirectional(self):
        topo = Topology.from_edges(3, [(0, 1), (1, 2)], bidirectional=True)
        assert topo.num_edges == 4
        assert topo.has_edge(1, 0)
        assert topo.has_edge(2, 1)

    def test_from_undirected_relabels_nodes(self):
        g = nx.Graph()
        g.add_edges_from([("a", "b"), ("b", "c"), ("c", "a")])
        topo = Topology.from_undirected(g)
        assert topo.nodes == [0, 1, 2]
        assert topo.num_edges == 6

    def test_rejects_non_contiguous_nodes(self):
        g = nx.DiGraph()
        g.add_edge(0, 2)
        g.add_edge(2, 0)
        with pytest.raises(ValueError, match="contiguous"):
            Topology(g)

    def test_rejects_self_loops(self):
        g = nx.DiGraph()
        g.add_nodes_from([0, 1])
        g.add_edge(0, 0)
        g.add_edge(0, 1)
        with pytest.raises(ValueError, match="self loops"):
            Topology(g)

    def test_rejects_nonpositive_capacity(self):
        g = nx.DiGraph()
        g.add_nodes_from([0, 1])
        g.add_edge(0, 1, cap=0.0)
        with pytest.raises(ValueError, match="capacity"):
            Topology(g)

    def test_rejects_non_digraph(self):
        with pytest.raises(TypeError):
            Topology(nx.Graph())

    def test_default_capacity_applied(self):
        g = nx.DiGraph()
        g.add_nodes_from([0, 1])
        g.add_edge(0, 1)
        topo = Topology(g, default_cap=2.5)
        assert topo.capacity(0, 1) == 2.5


class TestAccessors:
    def test_degree_regular(self):
        assert hypercube(3).degree() == 3

    def test_degree_raises_on_irregular(self):
        topo = Topology.from_edges(3, [(0, 1), (0, 2), (1, 0), (2, 0), (1, 2), (2, 1)])
        topo2 = topo.remove_edges([(1, 2)])
        with pytest.raises(ValueError, match="not out-regular"):
            topo2.degree()

    def test_out_in_edges_sorted(self):
        topo = complete(4)
        assert topo.out_edges(2) == [(2, 0), (2, 1), (2, 3)]
        assert topo.in_edges(2) == [(0, 2), (1, 2), (3, 2)]

    def test_commodities_count(self):
        topo = complete(5)
        assert len(list(topo.commodities())) == 5 * 4

    def test_is_bidirectional(self):
        assert hypercube(2).is_bidirectional()
        assert not ring(4).is_bidirectional()

    def test_is_regular(self):
        assert ring(5).is_regular()
        assert hypercube(3).is_regular()

    def test_diameter(self):
        assert ring(5).diameter() == 4
        assert hypercube(3).diameter() == 3
        assert complete(6).diameter() == 1

    def test_diameter_raises_when_disconnected(self):
        topo = Topology.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        broken = Topology.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            broken.diameter()
        assert topo.diameter() == 2

    def test_capacities_mapping(self):
        topo = ring(4, cap=3.0)
        caps = topo.capacities()
        assert len(caps) == 4
        assert all(v == 3.0 for v in caps.values())


class TestDerivedTopologies:
    def test_copy_is_independent(self):
        topo = ring(4)
        clone = topo.copy(name="clone")
        clone.graph.remove_edge(0, 1)
        assert topo.has_edge(0, 1)
        assert clone.name == "clone"

    def test_with_capacity(self):
        topo = ring(4).with_capacity(7.0)
        assert all(v == 7.0 for v in topo.capacities().values())

    def test_remove_edges_keeps_connectivity(self):
        topo = complete(4)
        reduced = topo.remove_edges([(0, 1)])
        assert not reduced.has_edge(0, 1)
        assert reduced.is_strongly_connected()

    def test_remove_edges_rejects_disconnection(self):
        topo = ring(4)
        with pytest.raises(ValueError, match="disconnected"):
            topo.remove_edges([(0, 1)])

    def test_remove_nodes_relabels(self):
        topo = complete(5)
        reduced = topo.remove_nodes([2])
        assert reduced.num_nodes == 4
        assert reduced.nodes == [0, 1, 2, 3]
        assert reduced.is_strongly_connected()

    def test_remove_nodes_rejects_too_many(self):
        with pytest.raises(ValueError):
            complete(3).remove_nodes([0, 1])


class TestCanonicalHash:
    """:func:`topology_key` keys the stage cache; it must cover everything a
    topology holds and be stable across processes."""

    def test_construction_order_changes_key(self):
        # The path schemes follow the graph's insertion order, so a rebuild
        # with its edges inserted in another order must not share a key.
        edges = [(0, 1), (1, 2), (2, 0), (0, 2)]
        forward = Topology.from_edges(3, edges)
        backward = Topology.from_edges(3, list(reversed(edges)))
        assert forward.edges == backward.edges
        assert topology_key(forward) != topology_key(backward)
        assert topology_key(forward) == topology_key(Topology.from_edges(3, edges))

    def test_name_and_metadata_change_key(self):
        # DOR reads the metadata and the XML writer the name.
        a = ring(5)
        renamed = ring(5).copy(name="renamed")
        extra = ring(5)
        extra.metadata["extra"] = "stuff"
        keys = {topology_key(t) for t in (a, renamed, extra)}
        assert len(keys) == 3
        assert topology_key(a) == topology_key(ring(5).copy())

    def test_capacity_changes_hash(self):
        a = ring(4)
        b = ring(4).with_capacity(2.0)
        assert topology_key(a) != topology_key(b)

    def test_edge_set_changes_hash(self):
        a = complete(4)
        b = complete(4).remove_edges([(0, 1)])
        assert topology_key(a) != topology_key(b)

    def test_isolated_node_count_changes_hash(self):
        g1 = nx.DiGraph()
        g1.add_nodes_from(range(3))
        g1.add_edges_from([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])
        small = Topology(g1)
        big = complete(4)
        assert topology_key(small) != topology_key(big)

    def test_hash_is_hex_digest(self):
        h = topology_key(ring(4))
        assert len(h) == 64
        assert int(h, 16) >= 0

    def test_stable_across_processes(self):
        # Regression guard: the hash feeds the on-disk cache, so it must not
        # depend on PYTHONHASHSEED or interpreter state.
        import os
        import pathlib
        import subprocess
        import sys

        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        code = ("from repro.experiments.scenario import topology_key;"
                "from repro.topology import ring;"
                "print(topology_key(ring(6)))")
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        env["PYTHONPATH"] = src
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == topology_key(ring(6))
