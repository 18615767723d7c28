"""Lower bounds on all-to-all time (Theorem 1 and the per-graph distance bound).

Theorem 1 (§5.4): in any d-regular graph on N nodes, the all-to-all completion
time (per unit shard, unit link capacity) is at least

    T >= sum_{u in T_{d,N}} D(r, u) / d

where ``T_{d,N}`` is an ideal out-arborescence with N nodes and out-degree d
(levels are fully packed with d^k nodes).  This scales as Theta(N log_d N).

For a *specific* graph G the analogous (tighter) bound replaces the ideal
arborescence distances by G's actual shortest-path distances:

    T >= sum_{s != d} dist_G(s, d) / (total link capacity)

because every unit of commodity (s, d) must cross at least dist(s, d) links.
The reciprocal of this bound upper-bounds the concurrent flow value F.
Weighting each link by a length ``l_e >= 0`` instead of 1 gives the general
weak-duality bound :func:`dual_bound_concurrent_flow`; with an optimal MCF's
capacity-row duals as lengths it meets F, which makes it a certificate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from ..topology.base import Topology

__all__ = [
    "ideal_arborescence_distance_sum",
    "lower_bound_time_regular",
    "lower_bound_time_graph",
    "upper_bound_concurrent_flow",
    "dual_bound_concurrent_flow",
]


def ideal_arborescence_distance_sum(degree: int, num_nodes: int) -> float:
    """Sum of root-to-node distances in an ideal d-ary arborescence on N nodes.

    Levels ``k = 0, 1, 2, ...`` hold ``d^k`` nodes each until the node budget is
    exhausted; the final (possibly partial) level holds the remainder.  This is
    the minimum possible total distance from one root to N-1 other nodes in any
    graph with out-degree d, which is what Theorem 1's proof uses.
    """
    if degree < 1 or num_nodes < 1:
        raise ValueError("degree and num_nodes must be positive")
    remaining = num_nodes - 1  # exclude the root itself
    total = 0.0
    level = 1
    width = degree
    while remaining > 0:
        take = min(width, remaining)
        total += level * take
        remaining -= take
        level += 1
        if degree > 1:
            width *= degree
    return total


def lower_bound_time_regular(degree: int, num_nodes: int) -> float:
    """Theorem 1 lower bound on all-to-all time for any d-regular, N-node graph.

    Time is normalized to (shard bytes / link bandwidth) units, i.e. the value
    is directly comparable to ``1/F`` of an MCF solution on unit-capacity links.
    """
    return ideal_arborescence_distance_sum(degree, num_nodes) / degree


def lower_bound_time_graph(topology: Topology) -> float:
    """Distance-based lower bound on all-to-all time for a specific graph.

    Equals ``sum of pairwise distances / total capacity``; always at least the
    Theorem 1 bound evaluated at the graph's maximum degree.
    """
    bound = upper_bound_concurrent_flow(topology)
    return float("inf") if bound == 0.0 else 1.0 / bound


def upper_bound_concurrent_flow(topology: Topology) -> float:
    """Upper bound on the concurrent flow value F: unit link lengths in
    :func:`dual_bound_concurrent_flow`, i.e. total capacity over the sum of
    pairwise hop distances."""
    return dual_bound_concurrent_flow(topology, np.ones(len(topology.edges)))


def dual_bound_concurrent_flow(topology: Topology, lengths: Sequence[float],
                               terminals: Optional[Sequence[int]] = None) -> float:
    """Upper bound on F from link lengths (LP weak duality).

    For any lengths ``l >= 0`` on ``topology.edges`` (in that order),

        F <= sum_e c_e * l_e / sum_{s != t} dist_l(s, t)

    over ordered terminal pairs (all nodes when ``terminals`` is None):
    shipping F between every pair uses at least ``F * dist_l(s, t)`` of
    length-weighted capacity, and only ``sum_e c_e l_e`` exists.  Negative
    lengths are clipped to 0.  ``l = 1`` gives
    :func:`upper_bound_concurrent_flow`; an optimal MCF's capacity-row
    shadow prices give F itself.  Returns ``inf`` when every pair is at
    length 0 (no bound).
    """
    edges = topology.edges
    lengths = np.maximum(np.asarray(lengths, dtype=float), 0.0)
    if len(lengths) != len(edges):
        raise ValueError(f"{len(lengths)} lengths for {len(edges)} edges")
    caps = topology.capacities()
    cap_arr = np.fromiter((caps[e] for e in edges), dtype=float, count=len(edges))
    n = topology.num_nodes
    # Explicitly stored zeros are edges to csgraph, so zero-length links count.
    graph = sp.csr_matrix((lengths, ([e[0] for e in edges], [e[1] for e in edges])),
                          shape=(n, n))
    nodes = np.arange(n) if terminals is None else np.unique(np.asarray(terminals))
    dist = shortest_path(graph, directed=True, indices=nodes)[:, nodes]
    total = float(dist.sum())
    if total <= 0.0:
        return float("inf")
    return float(cap_arr @ lengths) / total
