"""Tests for deadlock detection and virtual-channel layer assignment (§5.5)."""

import random

import networkx as nx
import pytest

from repro.core import solve_mcf_extract_paths
from repro.paths import sssp_routes, ewsp_schedule
from repro.routing import (
    LayerAssignment,
    channel_dependency_graph,
    dfsssp_assign,
    find_dependency_cycle,
    is_deadlock_free,
    lash_assign,
    lash_sequential_assign,
    route_edges,
    verify_layers,
)
from repro.topology import random_regular, torus, torus_2d


class TestChannelDependencyGraph:
    def test_route_edges(self):
        assert route_edges([0, 1, 2]) == [(0, 1), (1, 2)]
        assert route_edges([5, 3]) == [(5, 3)]

    def test_cdg_nodes_and_arcs(self):
        cdg = channel_dependency_graph([[0, 1, 2], [1, 2, 3]])
        assert (0, 1) in cdg.nodes
        assert cdg.has_edge((0, 1), (1, 2))
        assert cdg.has_edge((1, 2), (2, 3))

    def test_acyclic_routes_deadlock_free(self):
        routes = [[0, 1, 2], [1, 2, 3], [0, 1], [2, 3]]
        assert is_deadlock_free(routes)
        assert find_dependency_cycle(routes) == []

    def test_ring_cycle_detected(self):
        # Routes that wrap all the way around a unidirectional cycle deadlock.
        routes = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        assert not is_deadlock_free(routes)
        cycle = find_dependency_cycle(routes)
        assert len(cycle) >= 2


class TestLASH:
    def _cyclic_routes(self):
        return [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

    def test_lash_splits_cycle_into_layers(self):
        assignment = lash_assign(self._cyclic_routes())
        assert assignment.num_layers >= 2
        assert verify_layers(assignment)

    def test_lash_single_layer_for_acyclic_routes(self):
        assignment = lash_assign([[0, 1, 2], [1, 2, 3], [3, 4]])
        assert assignment.num_layers == 1
        assert verify_layers(assignment)

    def test_lash_sequential_valid(self):
        assignment = lash_sequential_assign(self._cyclic_routes())
        assert verify_layers(assignment)
        assert set(assignment.layer_of) == {tuple(r) for r in self._cyclic_routes()}

    def test_lash_sequential_never_more_layers_than_first_fit_plus_one(self):
        topo = torus_2d(3)
        schedule = solve_mcf_extract_paths(topo)
        routes = [tuple(p.nodes) for plist in schedule.paths.values() for p in plist]
        seq = lash_sequential_assign(routes)
        ff = lash_assign(routes)
        assert verify_layers(seq) and verify_layers(ff)
        assert seq.num_layers <= ff.num_layers + 1

    def test_paper_claim_at_most_four_layers(self, genkautz_extp, torus33):
        """§5.5: LASH-sequential needed <= 4 layers across all route sets evaluated."""
        route_sets = []
        route_sets.append([tuple(p.nodes) for plist in genkautz_extp.paths.values()
                           for p in plist])
        sssp = sssp_routes(torus33)
        route_sets.append([tuple(p) for p in sssp.values()])
        ewsp = ewsp_schedule(torus33)
        route_sets.append([tuple(p.nodes) for plist in ewsp.paths.values() for p in plist])
        for routes in route_sets:
            assignment = lash_sequential_assign(routes)
            assert verify_layers(assignment)
            assert assignment.num_layers <= 4

    def test_duplicate_routes_assigned_once(self):
        assignment = lash_assign([[0, 1, 2], [0, 1, 2], [0, 1, 2]])
        assert len(assignment.layer_of) == 1


class TestDFSSSP:
    def test_acyclic_routes_single_layer(self):
        assignment = dfsssp_assign([[0, 1, 2], [1, 2, 3]])
        assert assignment.num_layers == 1
        assert verify_layers(assignment)

    def test_cycle_broken(self):
        assignment = dfsssp_assign([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert assignment.num_layers >= 2
        assert verify_layers(assignment)

    def test_on_real_schedule(self, genkautz_extp):
        routes = [tuple(p.nodes) for plist in genkautz_extp.paths.values() for p in plist]
        assignment = dfsssp_assign(routes)
        assert verify_layers(assignment)
        assert assignment.num_layers <= 8

    def test_all_routes_assigned(self):
        routes = [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1], [1, 2]]
        assignment = dfsssp_assign(routes)
        assert len(assignment.layer_of) == 5


def _reference_try_add(self, route, layer):
    """The networkx check LASH used before the incremental one.

    Adds the route's channels and arcs to the layer's CDG, tests the whole
    graph with ``nx.is_directed_acyclic_graph`` and undoes the add on a cycle.
    """
    cdg = self.__dict__.setdefault("_reference_cdgs", {}).setdefault(layer, nx.DiGraph())
    edges = route_edges(route)
    added_nodes = [e for e in edges if e not in cdg]
    added_arcs = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if not cdg.has_edge(a, b)]
    cdg.add_nodes_from(added_nodes)
    cdg.add_edges_from(added_arcs)
    if nx.is_directed_acyclic_graph(cdg):
        self.layer_of[route] = layer
        return True
    cdg.remove_edges_from(added_arcs)
    cdg.remove_nodes_from(added_nodes)
    return False


def _random_routes(seed):
    """Seeded routes on a random-regular graph or a torus.

    Most routes are random shortest paths; about a third are detours (a
    shortest path through a random waypoint), which may revisit nodes.
    Routes that repeat a channel are dropped: no layer can hold them.
    """
    rng = random.Random(seed)
    if seed % 2:
        topo = random_regular(rng.choice([3, 4]), rng.choice([8, 10, 12]), seed=seed)
    else:
        topo = torus(rng.choice([[3, 3], [4, 4], [3, 4], [3, 3, 3]]))
    graph, nodes = topo.graph, topo.nodes
    routes = []
    for _ in range(rng.randint(10, 80)):
        s, t = rng.sample(nodes, 2)
        route = rng.choice(list(nx.all_shortest_paths(graph, s, t)))
        if rng.random() < 0.35:
            w = rng.choice(nodes)
            if w not in (s, t):
                route = nx.shortest_path(graph, s, w) + nx.shortest_path(graph, w, t)[1:]
        if len(set(route_edges(route))) == len(route) - 1:
            routes.append(tuple(route))
    return routes


ASSIGNERS = {"lash-sequential": lash_sequential_assign, "lash": lash_assign,
             "dfsssp": dfsssp_assign}


class TestIncrementalCycleCheck:
    """The incremental ``_try_add`` against the networkx reference."""

    @pytest.mark.parametrize("name", sorted(ASSIGNERS))
    def test_assigners_match_networkx_reference(self, name, monkeypatch):
        assign = ASSIGNERS[name]
        for seed in range(40):
            routes = _random_routes(seed)
            got = assign(routes)
            with monkeypatch.context() as patch:
                patch.setattr(LayerAssignment, "_try_add", _reference_try_add)
                want = assign(routes)
            assert got.layer_of == want.layer_of, seed
            assert got.num_layers == want.num_layers, seed
            assert verify_layers(got), seed

    def test_every_try_add_matches_reference(self):
        """Same boolean per call, also for a route that repeats a channel."""
        for seed in range(40):
            rng = random.Random(seed)
            routes = _random_routes(seed) + [(0, 1, 0, 1)]
            rng.shuffle(routes)
            fast, ref = LayerAssignment(), LayerAssignment()
            for _ in range(3):
                fast._new_layer()
                ref._new_layer()
            for route in routes:
                layer = rng.randrange(3)
                assert fast._try_add(route, layer) == _reference_try_add(ref, route, layer), \
                    (seed, route)
            assert fast.layer_of == ref.layer_of
            assert verify_layers(fast)

    def test_route_repeating_a_channel_fits_no_layer(self):
        assignment = LayerAssignment()
        assert not assignment._try_add((0, 1, 0, 1), assignment._new_layer())
        with pytest.raises(RuntimeError, match="repeats a channel"):
            lash_assign([[0, 1, 2], [3, 4, 3, 4]])
        with pytest.raises(RuntimeError, match="no progress"):
            lash_sequential_assign([[0, 1, 2], [3, 4, 3, 4]])
