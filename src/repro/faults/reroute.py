"""Deterministic online route repair around down links.

When a fabric epoch takes links down, every in-flight flow whose remaining
path crosses a down link needs a new route.  The repair here is the online
analogue of the paper's deadlock-free routing layer:

* a flow whose original route avoids every down link keeps it (schedules
  are synthesized load-balanced; repair must not perturb untouched flows);
* an affected flow is re-steered onto the lexicographically-smallest
  shortest path from its source to its destination over the surviving
  links (BFS with neighbors visited in ascending node order — fully
  deterministic, no RNG);
* a flow whose endpoints are disconnected by the failure set is *stranded*
  (``None``): the caller parks it and accounts its residual bytes.

Each epoch's full active route set is then certified deadlock-free through
the existing LASH / DF-SSSP layer assignment (:func:`certify_routes`),
mirroring how the synthesized schedules are certified offline: the virtual
channel count the repair needs is reported alongside the rerouted paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..paths.shortest import bfs_tree, tree_path
from ..routing.dfsssp import dfsssp_assign
from ..routing.lash import lash_sequential_assign
from ..topology.base import Topology

__all__ = ["surviving_adjacency", "repair_path", "effective_path",
           "distinct_routes", "certify_routes"]

Link = Tuple[int, int]
Path = Tuple[int, ...]


def surviving_adjacency(topology: Topology,
                        down: Set[Link]) -> Dict[int, List[int]]:
    """Ascending-order adjacency over the links that are still up."""
    adjacency: Dict[int, List[int]] = {node: [] for node in topology.nodes}
    for u, v in topology.edges:
        if (u, v) not in down:
            adjacency[u].append(v)
    for neighbors in adjacency.values():
        neighbors.sort()
    return adjacency


def repair_path(source: int, destination: int,
                adjacency: Dict[int, List[int]]) -> Optional[Path]:
    """Lexicographically-smallest shortest path over surviving links.

    :func:`~repro.paths.shortest.bfs_tree` over the ascending adjacency:
    the first parent to reach a node is the smallest among all
    shortest-path parents, so the extracted path is the unique
    lexicographic minimum (deterministic across runs and platforms).
    Returns ``None`` when the endpoints are disconnected.
    """
    tree = bfs_tree(lambda node: adjacency.get(node, ()), source, destination)
    return tree_path(tree, destination)


def effective_path(original: Path, down: Set[Link],
                   adjacency: Dict[int, List[int]]) -> Optional[Path]:
    """The route a flow runs on under the given down set.

    The original path wins whenever it is clear of down links; otherwise
    the flow is re-steered via :func:`repair_path` (or stranded).
    """
    if not down or all((u, v) not in down
                       for u, v in zip(original[:-1], original[1:])):
        return original
    return repair_path(original[0], original[-1], adjacency)


def distinct_routes(routes: Sequence[Path]) -> Tuple[Path, ...]:
    """Distinct multi-hop routes in first-seen order (layer counts depend on it)."""
    return tuple(dict.fromkeys(r for r in map(tuple, routes) if len(r) >= 2))


def certify_routes(routes: Sequence[Path], vc: str = "lash") -> int:
    """Deadlock-free layer count for an epoch's active route set.

    Runs the selected layer assignment (``lash`` sequential packing or
    ``dfsssp`` ordered insertion) over :func:`distinct_routes` and returns
    the number of virtual channels it needs; ``vc="off"`` skips
    certification and returns 0.  For routes that do not repeat a channel
    (BFS repairs never do) the assignment never fails — both algorithms
    open a fresh layer when a route fits nowhere — so this is an
    accounting knob, not a feasibility gate.  A route that repeats a
    channel fits no layer and raises ``RuntimeError``.
    """
    if vc == "off":
        return 0
    distinct = distinct_routes(routes)
    if not distinct:
        return 0
    if vc == "dfsssp":
        return dfsssp_assign(distinct).num_layers
    return lash_sequential_assign(distinct).num_layers
