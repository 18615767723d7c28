"""Core contribution: MCF-based all-to-all schedule synthesis."""

from .bottleneck import AugmentedTopology, augment_host_nic_bottleneck
from .flow import (
    Commodity,
    EdgeFlows,
    FlowSolution,
    WeightedPath,
    conservation_violation,
    delivered,
    flow_to_paths,
    link_loads,
    repair_conservation,
    widest_path,
)
from .lower_bound import (
    dual_bound_concurrent_flow,
    ideal_arborescence_distance_sum,
    lower_bound_time_graph,
    lower_bound_time_regular,
    upper_bound_concurrent_flow,
)
from .mcf_decomposed import (
    ConcurrentFlowValue,
    DecomposedTimings,
    MasterSolution,
    solve_child_lp,
    solve_decomposed_mcf,
    solve_master_lp,
    solve_mcf_objective,
)
from .mcf_link import solve_link_mcf
from .mcf_path import PathSchedule, path_schedule_from_single_paths, solve_path_mcf
from .mcf_timestepped import TimeSteppedFlow, solve_timestepped_mcf
from .mcf_ts_decomposed import solve_timestepped_mcf_decomposed
from .path_extraction import extract_paths, solve_mcf_extract_paths
from .pipeline import ForwardingModel, estimate_path_diversity, generate_schedule
from .solver import LPBuilder, LPSolution, SolverError

__all__ = [
    "AugmentedTopology",
    "augment_host_nic_bottleneck",
    "Commodity",
    "EdgeFlows",
    "FlowSolution",
    "WeightedPath",
    "conservation_violation",
    "delivered",
    "flow_to_paths",
    "link_loads",
    "repair_conservation",
    "widest_path",
    "dual_bound_concurrent_flow",
    "ideal_arborescence_distance_sum",
    "lower_bound_time_graph",
    "lower_bound_time_regular",
    "upper_bound_concurrent_flow",
    "ConcurrentFlowValue",
    "DecomposedTimings",
    "MasterSolution",
    "solve_child_lp",
    "solve_decomposed_mcf",
    "solve_master_lp",
    "solve_mcf_objective",
    "solve_link_mcf",
    "PathSchedule",
    "path_schedule_from_single_paths",
    "solve_path_mcf",
    "TimeSteppedFlow",
    "solve_timestepped_mcf",
    "solve_timestepped_mcf_decomposed",
    "extract_paths",
    "solve_mcf_extract_paths",
    "ForwardingModel",
    "estimate_path_diversity",
    "generate_schedule",
    "LPBuilder",
    "LPSolution",
    "SolverError",
]
