"""LASH and LASH-sequential virtual-channel (layer) assignment (§5.5).

LASH (LAyered SHortest path routing, Skeie et al.) makes an arbitrary set of
routes deadlock-free by partitioning them into layers (virtual channels) such
that the channel dependency graph restricted to each layer is acyclic.
Minimizing the number of layers is NP-hard; LASH assigns routes greedily.

The paper implements several variants and reports that a variant it calls
**LASH-sequential** needs the fewest layers -- no more than 4 across every
algorithm (MCF, ILP, EwSP, ...) and topology evaluated.  The difference
captured here:

* :func:`lash_assign` -- classic LASH: routes are processed in the given
  order and placed in the *first* existing layer that stays acyclic.
* :func:`lash_sequential_assign` -- processes routes sorted by length
  (longest first, ties by endpoints) and fills one layer at a time: a new
  layer is opened only after every remaining route has been tried against the
  current one.  The deterministic ordering plus layer-at-a-time filling tends
  to pack layers better on the route sets produced by MCF-style algorithms.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx

from ..topology.base import Edge
from .deadlock import channel_dependency_graph, route_edges

__all__ = ["LayerAssignment", "lash_assign", "lash_sequential_assign", "verify_layers"]

Route = Tuple[int, ...]


class LayerAssignment:
    """Result of a layer assignment: route -> layer plus per-layer CDG successor maps."""

    def __init__(self) -> None:
        self.layer_of: Dict[Route, int] = {}
        self._layers: List[Dict[Edge, Set[Edge]]] = []

    @property
    def num_layers(self) -> int:
        return len(self._layers)

    def routes_in_layer(self, layer: int) -> List[Route]:
        return [r for r, l in self.layer_of.items() if l == layer]

    def _try_add(self, route: Route, layer: int) -> bool:
        """Add a route to a layer iff the layer's CDG stays acyclic, in O(|CDG|).

        The CDG is acyclic before the add, so channels e_0..e_k close a cycle
        iff the route repeats a channel or the CDG has a path from some e_j to
        an earlier e_i.  The DFS for j = k..1 shares one visited set: the
        targets e_0..e_{j-1} only shrink as j falls.
        """
        succ = self._layers[layer]
        edges = route_edges(route)
        index = {e: i for i, e in enumerate(edges)}
        if len(index) != len(edges):
            return False
        visited: Set[Edge] = set()
        for j in range(len(edges) - 1, 0, -1):
            stack = [edges[j]]
            visited.add(edges[j])
            while stack:
                for nxt in succ.get(stack.pop(), ()):
                    if index.get(nxt, j) < j:
                        return False
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append(nxt)
        for e1, e2 in zip(edges[:-1], edges[1:]):
            succ.setdefault(e1, set()).add(e2)
        self.layer_of[route] = layer
        return True

    def _new_layer(self) -> int:
        self._layers.append({})
        return len(self._layers) - 1


def lash_assign(routes: Sequence[Sequence[int]]) -> LayerAssignment:
    """Classic LASH: first-fit layer assignment in the given route order."""
    assignment = LayerAssignment()
    for route in routes:
        route = tuple(route)
        if route in assignment.layer_of:
            continue
        placed = False
        for layer in range(assignment.num_layers):
            if assignment._try_add(route, layer):
                placed = True
                break
        if not placed:
            layer = assignment._new_layer()
            if not assignment._try_add(route, layer):
                raise RuntimeError(f"route {route} cannot be made deadlock free alone "
                                   "(it repeats a channel)")
    return assignment


def lash_sequential_assign(routes: Sequence[Sequence[int]]) -> LayerAssignment:
    """LASH-sequential: longest-routes-first, one layer filled at a time."""
    remaining = sorted(set(map(tuple, routes)), key=lambda r: (-(len(r) - 1), r))

    assignment = LayerAssignment()
    while remaining:
        layer = assignment._new_layer()
        still_remaining: List[Route] = []
        for route in remaining:
            if not assignment._try_add(route, layer):
                still_remaining.append(route)
        if len(still_remaining) == len(remaining):
            raise RuntimeError("LASH-sequential made no progress; degenerate route present")
        remaining = still_remaining
    return assignment


def verify_layers(assignment: LayerAssignment) -> bool:
    """Check that every layer's channel dependency graph is acyclic."""
    for layer in range(assignment.num_layers):
        routes = assignment.routes_in_layer(layer)
        if not nx.is_directed_acyclic_graph(channel_dependency_graph(routes)):
            return False
    return True
