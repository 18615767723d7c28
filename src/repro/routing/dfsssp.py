"""DF-SSSP style deadlock removal (§5.5).

DF-SSSP (Domke, Hoefler, Nagel [19]) computes deadlock-free single-source
shortest-path routing for arbitrary topologies by assigning routes to virtual
layers *after* the routes have been computed, moving routes that close a cycle
in the channel dependency graph to a higher layer.  The variant here applies
the same post-hoc escape-layer idea to any route set:

* all routes start in layer 0;
* while some layer's CDG has a cycle, pick the route in that layer that
  contributes the most arcs to the cycle and bump it to the next layer;
* repeat (a route can be bumped multiple times).

Compared with LASH-sequential this tends to need slightly more layers (which
is what the paper found too; it reports LASH-sequential as the best variant),
but it preserves the original route-to-layer affinity for the majority of
routes, which matters on hardware where changing a route's virtual channel is
cheap but re-balancing whole layers is not.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import networkx as nx

from .deadlock import channel_dependency_graph, route_edges
from .lash import LayerAssignment

__all__ = ["dfsssp_assign"]

Route = Tuple[int, ...]


def dfsssp_assign(routes: Sequence[Sequence[int]], max_layers: int = 64) -> LayerAssignment:
    """Assign routes to layers by iteratively escaping cycle-causing routes upward."""
    unique: List[Route] = list(dict.fromkeys(map(tuple, routes)))

    layer_of: Dict[Route, int] = {r: 0 for r in unique}
    num_layers = 1

    def layer_routes(layer: int) -> List[Route]:
        return [r for r, l in layer_of.items() if l == layer]

    progress_guard = 0
    max_iterations = max(1000, 20 * len(unique))
    layer = 0
    while layer < num_layers:
        routes_here = layer_routes(layer)
        cdg = channel_dependency_graph(routes_here)
        try:
            cycle = nx.find_cycle(cdg)
        except nx.NetworkXNoCycle:
            layer += 1
            continue
        progress_guard += 1
        if progress_guard > max_iterations:
            raise RuntimeError("DF-SSSP layer assignment did not converge")
        cycle_arcs = {(a, b) for (a, b) in ((arc[0], arc[1]) for arc in cycle)}
        # Choose the route contributing the most arcs to this cycle.
        def contribution(route: Route) -> int:
            edges = route_edges(route)
            arcs = set(zip(edges[:-1], edges[1:]))
            return len(arcs & cycle_arcs)

        candidates = [r for r in routes_here if contribution(r) > 0]
        victim = max(candidates, key=lambda r: (contribution(r), len(r), r))
        layer_of[victim] = layer + 1
        if layer + 1 >= num_layers:
            num_layers += 1
            if num_layers > max_layers:
                raise RuntimeError(f"DF-SSSP exceeded {max_layers} layers")

    assignment = LayerAssignment()
    for _ in range(num_layers):
        assignment._new_layer()
    for r, l in layer_of.items():
        if not assignment._try_add(r, l):
            raise RuntimeError("internal error: final DF-SSSP layers not acyclic")
    # Drop empty trailing layers (possible when escapes cascaded upward).
    while assignment.num_layers > 1 and not assignment.routes_in_layer(assignment.num_layers - 1):
        assignment._layers.pop()
    return assignment
