"""Multi-job cluster co-simulation over the unified fluid engine.

This package adds the *cluster* layer on top of the single-collective
simulator.  A trace spec (:mod:`.trace`) is the whole job model: its jobs
arrive over time and each runs ``rounds`` barrier-separated (compute,
all-to-all) rounds on one buffer.  Jobs are placed onto topology nodes
(:mod:`.placement`), and their comm phases lower to the engine's flow IR
through a live :class:`~repro.cluster.injector.FlowInjector`
(:mod:`.injector`); :func:`~repro.cluster.runner.run_cluster`
(:mod:`.runner`) drives the whole trace and reports per-job slowdown,
makespan and time-weighted fabric utilization.  See ``docs/cluster.md``
for the model and the trace-spec grammar.
"""

from .injector import FlowInjector
from .placement import RoutePlacer, placement_permutation
from .runner import ClusterResult, JobResult, run_cluster
from .trace import (PLACEMENT_POLICIES, ClusterSpec, arrival_times,
                    parse_cluster_spec)

__all__ = [
    "ClusterSpec", "parse_cluster_spec", "arrival_times",
    "PLACEMENT_POLICIES",
    "placement_permutation", "RoutePlacer",
    "FlowInjector",
    "JobResult", "ClusterResult", "run_cluster",
]
