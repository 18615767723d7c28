"""Shortest-path and bounded-length path enumeration.

Candidate path sets for pMCF (§3.1.4) and for the EwSP / ILP-shortest
baselines.  Enumerating *all* shortest paths is cheap on expanders (few
shortest paths per pair) but blows up combinatorially on highly symmetric
topologies such as tori -- exactly the path-diversity dichotomy the paper uses
to choose between pMCF and MCF-extP (Fig. 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import networkx as nx

from ..topology.base import Topology
from ..core.flow import Commodity

__all__ = [
    "shortest_path",
    "all_shortest_paths",
    "all_shortest_path_sets",
    "bounded_length_paths",
    "bounded_length_path_sets",
    "first_shortest_path_sets",
]


def shortest_path(topology: Topology, source: int, destination: int) -> List[int]:
    """One shortest path (deterministic: lexicographically smallest node order)."""
    # networkx BFS explores neighbours in insertion order; sort for determinism.
    return _lexicographic_bfs_path(topology, source, destination)


def _lexicographic_bfs_path(topology: Topology, source: int, destination: int) -> List[int]:
    from collections import deque

    parent = {source: None}
    q = deque([source])
    while q:
        u = q.popleft()
        if u == destination:
            break
        for v in topology.successors(u):
            if v not in parent:
                parent[v] = u
                q.append(v)
    if destination not in parent:
        raise nx.NetworkXNoPath(f"no path {source}->{destination}")
    path = [destination]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def all_shortest_paths(topology: Topology, source: int, destination: int,
                       limit: Optional[int] = None) -> List[List[int]]:
    """All shortest paths between a pair (optionally capped at ``limit``)."""
    out: List[List[int]] = []
    for p in nx.all_shortest_paths(topology.graph, source, destination):
        out.append(list(p))
        if limit is not None and len(out) >= limit:
            break
    return out


def all_shortest_path_sets(topology: Topology,
                           limit_per_pair: Optional[int] = None) -> Dict[Commodity, List[List[int]]]:
    """All shortest paths for every commodity."""
    return {(s, d): all_shortest_paths(topology, s, d, limit=limit_per_pair)
            for s, d in topology.commodities()}


def first_shortest_path_sets(topology: Topology) -> Dict[Commodity, List[int]]:
    """One deterministic shortest path per commodity (the 'native fabric' routing)."""
    return {(s, d): shortest_path(topology, s, d) for s, d in topology.commodities()}


def bounded_length_paths(topology: Topology, source: int, destination: int,
                         max_length: int, limit: Optional[int] = None) -> List[List[int]]:
    """All simple paths with at most ``max_length`` hops (optionally capped)."""
    out: List[List[int]] = []
    for p in nx.all_simple_paths(topology.graph, source, destination, cutoff=max_length):
        out.append(list(p))
        if limit is not None and len(out) >= limit:
            break
    if not out:
        # Always include at least a shortest path so callers never end up with
        # an unroutable commodity.
        out = [shortest_path(topology, source, destination)]
    return out


def bounded_length_path_sets(topology: Topology, max_length: Optional[int] = None,
                             limit_per_pair: Optional[int] = None) -> Dict[Commodity, List[List[int]]]:
    """Bounded-length candidate path sets for every commodity.

    ``max_length`` defaults to the topology diameter (the paper's ``l_max``).
    """
    if max_length is None:
        max_length = topology.diameter()
    return {(s, d): bounded_length_paths(topology, s, d, max_length, limit=limit_per_pair)
            for s, d in topology.commodities()}
