"""Property-based tests (hypothesis) for core data structures and invariants.

These exercise randomized instances of the primitives that the rest of the
system leans on: interval chunking, flow decomposition, widest paths, LASH
layering, quantization, and the MCF optimality bound on random topologies.
"""

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.constants import FLOW_TOL
from repro.core.flow import flow_to_paths, widest_path
from repro.routing import lash_sequential_assign, verify_layers
from repro.schedule.chunking import quantize_weights
from repro.topology import generalized_kautz, random_regular
from repro.topology.properties import all_to_all_upper_bound_from_distance

# Keep hypothesis deadlines generous: some examples trigger LP solves.
COMMON_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# Chunk quantization
# --------------------------------------------------------------------------- #
@given(weights=st.lists(st.floats(min_value=1e-3, max_value=100.0), min_size=1, max_size=8))
@settings(max_examples=200, **COMMON_SETTINGS)
def test_quantize_weights_always_partitions_the_shard(weights):
    counts, denom = quantize_weights(weights)
    assert sum(counts) == denom
    assert all(c >= 1 for c in counts)
    total = sum(weights)
    # Each tiny weight forced up to one base chunk can shift the others by at
    # most 1/max_denominator, hence the len(weights)-dependent slack.
    tolerance = 1.0 / 16 + len(weights) / 64.0 + 1e-9
    for w, c in zip(weights, counts):
        assert abs(c / denom - w / total) <= tolerance


# --------------------------------------------------------------------------- #
# Flow decomposition
# --------------------------------------------------------------------------- #
@st.composite
def random_dag_flow(draw):
    """A random single-commodity flow on a layered DAG with exact conservation."""
    layers = draw(st.integers(min_value=1, max_value=3))
    width = draw(st.integers(min_value=1, max_value=3))
    # Node 0 = source; last node = destination; middle nodes arranged in layers.
    nodes = [0] + list(range(1, 1 + layers * width)) + [1 + layers * width]
    dst = nodes[-1]
    paths = []
    num_paths = draw(st.integers(min_value=1, max_value=4))
    for _ in range(num_paths):
        path = [0]
        for layer in range(layers):
            path.append(1 + layer * width + draw(st.integers(0, width - 1)))
        path.append(dst)
        weight = draw(st.floats(min_value=0.01, max_value=1.0))
        paths.append((path, weight))
    flow = {}
    for path, weight in paths:
        for e in zip(path[:-1], path[1:]):
            flow[e] = flow.get(e, 0.0) + weight
    total = sum(w for _, w in paths)
    return flow, dst, total


@given(data=random_dag_flow())
@settings(max_examples=150, **COMMON_SETTINGS)
def test_flow_to_paths_recovers_total_flow(data):
    flow, dst, total = data
    paths = flow_to_paths(flow, 0, dst)
    recovered = sum(p.weight for p in paths)
    assert recovered == pytest.approx(total, rel=1e-6)
    # Every extracted path is a genuine source->destination path over flow edges.
    for p in paths:
        assert p.source == 0 and p.destination == dst
        for e in p.edges:
            assert e in flow
    # Rebuilding link flows from the paths never exceeds the original flow.
    rebuilt = {}
    for p in paths:
        for e in p.edges:
            rebuilt[e] = rebuilt.get(e, 0.0) + p.weight
    for e, v in rebuilt.items():
        assert v <= flow[e] + 1e-6


# --------------------------------------------------------------------------- #
# Widest path
# --------------------------------------------------------------------------- #
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.integers(min_value=4, max_value=12))
@settings(max_examples=100, **COMMON_SETTINGS)
def test_widest_path_is_optimal_bottleneck(seed, n):
    import random

    rng = random.Random(seed)
    g = nx.gnp_random_graph(n, 0.5, seed=seed, directed=True)
    assume(g.number_of_edges() > 0)
    caps = {(u, v): rng.uniform(0.1, 10.0) for u, v in g.edges()}
    source, dest = 0, n - 1
    path = widest_path(caps, source, dest)
    if path is None:
        assume(not nx.has_path(g, source, dest))
        return
    assert path[0] == source and path[-1] == dest
    width = min(caps[e] for e in zip(path[:-1], path[1:]))
    # Optimality via threshold reachability: the destination must be
    # unreachable using only edges wider than the returned width by more
    # than the label tolerance (otherwise a wider path would exist), and
    # reachable at the width itself.
    def reachable(threshold: float) -> bool:
        sub = nx.DiGraph()
        sub.add_nodes_from(g.nodes())
        sub.add_edges_from(e for e, c in caps.items() if c >= threshold)
        return nx.has_path(sub, source, dest)

    assert reachable(width)
    wider = sorted({c for c in caps.values() if c > width + FLOW_TOL})
    if wider:
        assert not reachable(wider[0])


# --------------------------------------------------------------------------- #
# LASH layering
# --------------------------------------------------------------------------- #
@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=50, **COMMON_SETTINGS)
def test_lash_sequential_layers_always_acyclic(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(5, 10)
    # random_regular retries until the sampled graph is connected.
    topo = random_regular(3, n if (3 * n) % 2 == 0 else n + 1, seed=seed)
    routes = []
    nodes = topo.nodes
    for _ in range(30):
        s, d = rng.sample(nodes, 2)
        routes.append(tuple(nx.shortest_path(topo.graph, s, d)))
    assignment = lash_sequential_assign(routes)
    assert verify_layers(assignment)
    assert set(assignment.layer_of.keys()) == set(routes)
    assert assignment.num_layers <= 6


# --------------------------------------------------------------------------- #
# Topology generators + MCF bound
# --------------------------------------------------------------------------- #
@given(n=st.integers(min_value=5, max_value=24), degree=st.integers(min_value=2, max_value=4))
@settings(max_examples=40, **COMMON_SETTINGS)
def test_generalized_kautz_always_connected_and_bounded_degree(n, degree):
    topo = generalized_kautz(degree, n)
    assert topo.num_nodes == n
    assert topo.is_strongly_connected()
    assert all(topo.out_degree(u) <= degree for u in topo.nodes)
    assert topo.diameter() <= math.ceil(math.log(max(n, 2), degree)) + 1


@given(seed=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=15, **COMMON_SETTINGS)
def test_master_lp_never_exceeds_distance_bound(seed):
    """The MCF optimum respects the distance upper bound on random regular graphs."""
    from repro.core import solve_master_lp

    topo = random_regular(3, 8, seed=seed)
    bound = all_to_all_upper_bound_from_distance(topo)
    value = solve_master_lp(topo).concurrent_flow
    assert value <= bound + 1e-6
    assert value > 0


@given(seed=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=10, **COMMON_SETTINGS)
def test_decomposed_equals_link_mcf_on_random_graphs(seed):
    """Decomposition preserves optimality (§3.1.2) on random topologies."""
    from repro.core import solve_decomposed_mcf, solve_link_mcf

    topo = random_regular(3, 8, seed=seed)
    full = solve_link_mcf(topo, repair=False).concurrent_flow
    decomposed = solve_decomposed_mcf(topo, repair=False).concurrent_flow
    assert decomposed == pytest.approx(full, rel=1e-5)
