"""Comparison baselines: ILP path selection, FPTAS, native all-to-all, and
surrogates for the SCCL/TACCL schedule synthesisers."""

from .direct import direct_pairwise_link_schedule, native_alltoall_schedule
from .fptas import fptas_max_concurrent_flow
from .ilp import (
    ILP_BOUNDED_PARAMS,
    ilp_disjoint_schedule,
    ilp_shortest_schedule,
    solve_ilp_path_selection,
)
from .sccl_like import SynthesisTimeout, sccl_like_schedule
from .taccl_like import taccl_like_schedule

__all__ = [
    "direct_pairwise_link_schedule",
    "native_alltoall_schedule",
    "fptas_max_concurrent_flow",
    "ILP_BOUNDED_PARAMS",
    "ilp_disjoint_schedule",
    "ilp_shortest_schedule",
    "solve_ilp_path_selection",
    "SynthesisTimeout",
    "sccl_like_schedule",
    "taccl_like_schedule",
]
