"""Placement policies: mapping a job's logical nodes onto physical nodes.

A placement is a permutation ``perm`` of the topology's node ids —
``perm[logical] = physical``.  Schedules are synthesized once for the
logical topology; placing a job relabels every route through the
permutation.  Because an arbitrary relabelling can map a scheduled hop
onto a non-existent physical link, :meth:`RoutePlacer.place` repairs such
hops with a deterministic BFS shortest path, read off one BFS tree per
source node that the placer builds once and keeps, so any permutation
yields a valid (if longer) route.  The ``packed`` policy is the identity,
which keeps the placed routes exactly equal to the scheduled ones — the
configuration the zero-contention differential test pins against the
single-collective engine.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ..paths.shortest import bfs_tree, tree_path
from ..topology.base import Topology
from .trace import PLACEMENT_POLICIES

__all__ = ["placement_permutation", "RoutePlacer"]


def placement_permutation(policy: str, job_id: int, num_nodes: int,
                          num_jobs: int, seed: int = 0) -> Tuple[int, ...]:
    """The node permutation placing ``job_id`` under ``policy``.

    ``packed`` — identity (every job on the scheduled nodes); ``spread`` —
    rotate by ``job_id * max(1, num_nodes // num_jobs)`` so consecutive
    jobs anchor on well-separated nodes; ``random`` — a shuffle seeded by
    ``(seed, job_id)``, reproducible across runs.
    """
    if policy == "packed":
        return tuple(range(num_nodes))
    if policy == "spread":
        stride = max(1, num_nodes // max(1, num_jobs))
        shift = (job_id * stride) % num_nodes
        return tuple((i + shift) % num_nodes for i in range(num_nodes))
    if policy == "random":
        rng = random.Random(seed * 1_000_003 + job_id)
        perm = list(range(num_nodes))
        rng.shuffle(perm)
        return tuple(perm)
    raise ValueError(
        f"unknown placement policy {policy!r}; expected one of "
        f"{PLACEMENT_POLICIES}")


class RoutePlacer:
    """Places scheduled routes on one topology through node permutations.

    Holds the topology's directed edge set and, built on first use, one
    full :func:`~repro.paths.shortest.bfs_tree` per source node, so
    repairing a hop is a walk up a tree rather than a search.  The full
    tree has the same parent pointers as a BFS that stops at the
    destination, so every repair is the deterministic BFS shortest path.
    Build one per topology and reuse it for every job placed on it.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._edges = set(topology.graph.edges())
        self._trees: Dict[int, Dict[int, Optional[int]]] = {}

    def shortest_path(self, src: int, dst: int) -> Tuple[int, ...]:
        """Deterministic BFS shortest path from ``src`` to ``dst`` (inclusive)."""
        tree = self._trees.get(src)
        if tree is None:
            tree = self._trees[src] = bfs_tree(self.topology.successors, src)
        path = tree_path(tree, dst)
        if path is None:
            raise ValueError(f"no path from node {src} to node {dst}")
        return path

    def place(self, route: Tuple[int, ...],
              perm: Tuple[int, ...]) -> Tuple[int, ...]:
        """Relabel a scheduled route through ``perm``, repairing missing links.

        Every hop of the mapped route that is not a physical link is
        replaced by the BFS shortest path between its endpoints (identity
        permutations return the route unchanged).
        """
        mapped = [perm[v] for v in route]
        out = [mapped[0]]
        for v in mapped[1:]:
            u = out[-1]
            if u == v:
                continue
            if (u, v) in self._edges:
                out.append(v)
            else:
                out.extend(self.shortest_path(u, v)[1:])
        return tuple(out)
