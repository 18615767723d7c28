"""Shortest-path and bounded-length path enumeration.

Candidate path sets for pMCF (§3.1.4) and for the EwSP / ILP-shortest
baselines.  Enumerating *all* shortest paths is cheap on expanders (few
shortest paths per pair) but blows up combinatorially on highly symmetric
topologies such as tori -- exactly the path-diversity dichotomy the paper uses
to choose between pMCF and MCF-extP (Fig. 1).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import networkx as nx

from ..topology.base import Topology
from ..core.flow import Commodity

__all__ = [
    "bfs_tree",
    "tree_path",
    "shortest_path",
    "all_shortest_paths",
    "all_shortest_path_sets",
    "bounded_length_paths",
    "bounded_length_path_sets",
    "first_shortest_path_sets",
]


def bfs_tree(successors: Callable[[int], Iterable[int]], source: int,
             target: Optional[int] = None) -> Dict[int, Optional[int]]:
    """BFS parent pointers from ``source`` (the root's parent is ``None``).

    Successors are visited in the order ``successors(u)`` yields them and
    the first discovery of a node wins, so with sorted successors every
    tree path is the lexicographically smallest shortest path.  The search
    stops after expanding the node that discovers ``target``; without one
    it covers every reachable node.  Stopping early never changes a
    discovered parent.
    """
    parent: Dict[int, Optional[int]] = {source: None}
    frontier = deque([source])
    while frontier and target not in parent:
        u = frontier.popleft()
        for v in successors(u):
            if v not in parent:
                parent[v] = u
                frontier.append(v)
    return parent


def tree_path(tree: Dict[int, Optional[int]],
              destination: int) -> Optional[Tuple[int, ...]]:
    """The root-to-``destination`` path of a :func:`bfs_tree`, or ``None``."""
    if destination not in tree:
        return None
    path = [destination]
    while tree[path[-1]] is not None:
        path.append(tree[path[-1]])  # type: ignore[arg-type]
    return tuple(reversed(path))


def shortest_path(topology: Topology, source: int, destination: int) -> List[int]:
    """One shortest path (deterministic: lexicographically smallest node order)."""
    path = tree_path(bfs_tree(topology.successors, source, destination), destination)
    if path is None:
        raise nx.NetworkXNoPath(f"no path {source}->{destination}")
    return list(path)


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
