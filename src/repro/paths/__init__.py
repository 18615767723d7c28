"""Path computation: candidate path sets and single-path routing heuristics."""

from .disjoint import edge_disjoint_path_sets, edge_disjoint_paths
from .dor import dor_route, dor_routes, dor_schedule
from .ewsp import ewsp_schedule
from .shortest import (
    all_shortest_path_sets,
    all_shortest_paths,
    bounded_length_path_sets,
    bounded_length_paths,
    first_shortest_path_sets,
    shortest_path,
)
from .sssp import sssp_routes, sssp_schedule

__all__ = [
    "edge_disjoint_path_sets",
    "edge_disjoint_paths",
    "dor_route",
    "dor_routes",
    "dor_schedule",
    "ewsp_schedule",
    "all_shortest_path_sets",
    "all_shortest_paths",
    "bounded_length_path_sets",
    "bounded_length_paths",
    "first_shortest_path_sets",
    "shortest_path",
    "sssp_routes",
    "sssp_schedule",
]
