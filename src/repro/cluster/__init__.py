"""Multi-job cluster co-simulation over the unified fluid engine.

This package adds the *cluster* layer on top of the single-collective
simulator: jobs (barrier-separated compute/comm phases, :mod:`.job`)
arrive over time (:mod:`.trace`), are placed onto topology nodes
(:mod:`.placement`), and their comm phases lower to the engine's flow IR
through a live :class:`~repro.cluster.injector.FlowInjector`
(:mod:`.injector`); :func:`~repro.cluster.runner.run_cluster`
(:mod:`.runner`) drives the whole trace and reports per-job slowdown,
makespan and time-weighted fabric utilization.  See ``docs/cluster.md``
for the model and the trace-spec grammar.
"""

from .injector import FlowInjector
from .job import CommPhase, ComputePhase, Job, jobs_from_spec
from .placement import RoutePlacer, placement_permutation
from .runner import ClusterResult, JobResult, run_cluster
from .trace import (PLACEMENT_POLICIES, ClusterSpec, arrival_times,
                    parse_cluster_spec)

__all__ = [
    "ClusterSpec", "parse_cluster_spec", "arrival_times",
    "PLACEMENT_POLICIES",
    "ComputePhase", "CommPhase", "Job", "jobs_from_spec",
    "placement_permutation", "RoutePlacer",
    "FlowInjector",
    "JobResult", "ClusterResult", "run_cluster",
]
