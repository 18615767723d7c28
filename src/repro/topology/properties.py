"""Graph-theoretic properties relevant to all-to-all throughput.

§2.3 of the paper recalls that the all-to-all throughput of a topology is
bounded above by ``4*chi / N^2`` where ``chi`` is the bisection bandwidth, and
that expansion / spectral gap are good proxies.  This module provides the
measurements used to compare topologies (Fig. 10) and to sanity-check the
topology generators.
"""

from __future__ import annotations

import random
from typing import Dict

import networkx as nx
import numpy as np

from .base import Topology

__all__ = [
    "diameter",
    "average_distance",
    "total_pairwise_distance",
    "spectral_gap",
    "algebraic_connectivity",
    "bisection_bandwidth_estimate",
    "all_to_all_upper_bound_from_distance",
    "summary",
]


def diameter(topo: Topology) -> int:
    """Directed diameter in hops."""
    return topo.diameter()


def _distance_matrix(topo: Topology) -> Dict[int, Dict[int, int]]:
    return dict(nx.all_pairs_shortest_path_length(topo.graph))


def total_pairwise_distance(topo: Topology) -> int:
    """Sum of shortest-path hop counts over all ordered node pairs."""
    dist = _distance_matrix(topo)
    return sum(d for row in dist.values() for d in row.values())


def average_distance(topo: Topology) -> float:
    """Average shortest-path distance over ordered pairs (s != d)."""
    n = topo.num_nodes
    if n < 2:
        return 0.0
    return total_pairwise_distance(topo) / (n * (n - 1))


def spectral_gap(topo: Topology) -> float:
    """Spectral gap ``d - lambda_2`` of the symmetrized adjacency matrix.

    For a d-regular graph, larger gap means better expansion.  The adjacency
    matrix is symmetrized as ``(A + A^T)/2`` so the quantity is defined for
    directed families (e.g. generalized Kautz) as well.
    """
    a = nx.to_numpy_array(topo.graph, nodelist=topo.nodes, weight=None)
    sym = (a + a.T) / 2.0
    eigs = np.sort(np.linalg.eigvalsh(sym))[::-1]
    if len(eigs) < 2:
        return 0.0
    return float(eigs[0] - eigs[1])


def algebraic_connectivity(topo: Topology) -> float:
    """Second-smallest Laplacian eigenvalue of the symmetrized graph."""
    a = nx.to_numpy_array(topo.graph, nodelist=topo.nodes, weight=None)
    sym = (a + a.T) / 2.0
    lap = np.diag(sym.sum(axis=1)) - sym
    eigs = np.sort(np.linalg.eigvalsh(lap))
    if len(eigs) < 2:
        return 0.0
    return float(eigs[1])


def bisection_bandwidth_estimate(topo: Topology, trials: int = 64, seed: int = 0) -> float:
    """Estimate of the bisection bandwidth (capacity across a balanced cut).

    Exact bisection is NP-hard; we take the minimum over (a) a spectral
    (Fiedler-vector) bisection and (b) ``trials`` random balanced bisections.
    The value is the total capacity of directed edges crossing the cut in
    either direction divided by 2 (per-direction bandwidth), matching the
    usual definition for bidirectional fabrics.
    """
    n = topo.num_nodes
    if n < 2:
        return 0.0
    rng = random.Random(seed)
    caps = topo.capacities()

    def cut_capacity(side: set) -> float:
        total = 0.0
        for (u, v), c in caps.items():
            if (u in side) != (v in side):
                total += c
        return total / 2.0

    best = float("inf")
    # Spectral bisection.
    a = nx.to_numpy_array(topo.graph, nodelist=topo.nodes, weight="cap")
    sym = (a + a.T) / 2.0
    lap = np.diag(sym.sum(axis=1)) - sym
    vals, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, 1] if vecs.shape[1] > 1 else vecs[:, 0]
    order = np.argsort(fiedler)
    side = set(int(x) for x in order[: n // 2])
    best = min(best, cut_capacity(side))
    # Random balanced bisections.
    nodes = topo.nodes
    for _ in range(trials):
        perm = nodes[:]
        rng.shuffle(perm)
        best = min(best, cut_capacity(set(perm[: n // 2])))
    return best


def all_to_all_upper_bound_from_distance(topo: Topology) -> float:
    """Distance-based upper bound on the concurrent flow value F.

    Every unit of commodity (s,d) must consume at least ``dist(s,d)`` units of
    link capacity, so ``F * sum_{s!=d} dist(s,d) <= total capacity`` and hence
    ``F <= sum(cap) / sum(dist)``.  The corresponding all-to-all time lower
    bound is the reciprocal.  This matches Theorem 1 when the graph realizes
    ideal arborescences.
    """
    total_cap = sum(topo.capacities().values())
    total_dist = total_pairwise_distance(topo)
    if total_dist == 0:
        return float("inf")
    return total_cap / total_dist


def summary(topo: Topology) -> Dict[str, float]:
    """Convenience bundle of the properties used in reports."""
    return {
        "num_nodes": float(topo.num_nodes),
        "num_edges": float(topo.num_edges),
        "max_out_degree": float(topo.max_degree()),
        "diameter": float(topo.diameter()),
        "average_distance": average_distance(topo),
        "spectral_gap": spectral_gap(topo),
        "algebraic_connectivity": algebraic_connectivity(topo),
        "bisection_estimate": bisection_bandwidth_estimate(topo),
        "flow_upper_bound": all_to_all_upper_bound_from_distance(topo),
    }
