"""Staged execution plans: synthesize -> lower -> validate -> simulate.

A :class:`Plan` executes one :class:`~repro.experiments.scenario.Scenario`
through the paper's Fig. 1 pipeline as explicit stages:

1. **synthesize** — build the topology and run the scheme, producing a
   :class:`TimeSteppedFlow` or :class:`PathSchedule` (LP solves inside route
   through :func:`repro.engine.solve` and share its in-memory solution
   cache);
2. **lower** — chunk to the schedule IR (:class:`LinkSchedule` /
   :class:`RoutedSchedule`); schemes that already emit IR pass through;
3. **validate** — run the IR validators once (simulation then skips them);
4. **simulate** — execute the schedule on the scenario's fabric across its
   buffer sweep.

Each stage's artifact is cached under :func:`stage_artifact_key` (the
scenario's :meth:`~repro.experiments.scenario.Scenario.stage_key` salted
with the package version) in a process-wide
:class:`~repro.engine.cache.SolutionCache` instance (memory tier always on,
disk tier under ``$REPRO_CACHE_DIR/stages`` when configured), so re-running a
scenario — or a scenario that shares a prefix of the pipeline, e.g. the same
schedule simulated at different buffer sizes — recomputes nothing.  A `Plan`
instance additionally keeps its own artifacts, so ``run("synthesize")``
followed by ``run("simulate")`` never redoes stage work even with the shared
cache disabled (benchmarks disable it to keep timings honest).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.mcf_decomposed import ConcurrentFlowValue
from ..core.mcf_path import PathSchedule
from ..core.mcf_timestepped import TimeSteppedFlow
from ..engine.cache import SolutionCache
from ..schedule import (
    LinkSchedule,
    RoutedSchedule,
    chunk_path_schedule,
    chunk_timestepped_flow,
    validate_link_schedule,
    validate_routed_schedule,
)
from ..simulator import CollectiveResult, throughput_sweep
from .scenario import STAGES, SYNTHESIZE_ONLY, Scenario, resolve_scheme

__all__ = ["Plan", "PlanResult", "get_plan_cache", "configure_plan_cache",
           "reset_plan_cache", "stage_artifact_key"]


# --------------------------------------------------------------------------- #
# Process-wide stage-artifact cache (mirrors engine.core's default engine)
# --------------------------------------------------------------------------- #
_plan_cache: Optional[SolutionCache] = None
_plan_cache_lock = threading.Lock()


def _code_version() -> str:
    """The installed repro version (lazy: the package imports this module)."""
    from .. import __version__

    return __version__


def stage_artifact_key(scenario: Scenario, stage: str) -> str:
    """Stage-cache key of one scenario stage's artifact.

    The scenario's :meth:`~repro.experiments.scenario.Scenario.stage_key`
    salted with the package version: a persistent ``REPRO_CACHE_DIR``
    written by another release reads as a miss instead of serving that
    release's schedules and results.
    """
    return f"{scenario.stage_key(stage)}-{_code_version()}"


def _stage_cache_dir() -> Optional[str]:
    root = os.environ.get("REPRO_CACHE_DIR")
    return os.path.join(root, "stages") if root else None


def get_plan_cache() -> SolutionCache:
    """The process-wide stage-artifact cache (created lazily)."""
    global _plan_cache
    if _plan_cache is None:
        with _plan_cache_lock:
            if _plan_cache is None:
                _plan_cache = SolutionCache(cache_dir=_stage_cache_dir(),
                                            name="stage-cache")
    return _plan_cache


def configure_plan_cache(cache_dir: Optional[str] = None,
                         enabled: Optional[bool] = None) -> SolutionCache:
    """Reconfigure the default stage cache in place and return it."""
    cache = get_plan_cache()
    if cache_dir is not None:
        global _plan_cache
        with _plan_cache_lock:
            _plan_cache = SolutionCache(cache_dir=cache_dir, name="stage-cache",
                                        enabled=cache.enabled)
            cache = _plan_cache
    if enabled is not None:
        cache.enabled = enabled
    return cache


def reset_plan_cache() -> None:
    """Drop the default stage cache (next access builds a fresh one)."""
    global _plan_cache
    with _plan_cache_lock:
        _plan_cache = None


# --------------------------------------------------------------------------- #
# Plan
# --------------------------------------------------------------------------- #
@dataclass
class PlanResult:
    """Artifacts and accounting of one plan execution."""

    scenario: Scenario
    schedule: object = None                   # synthesize artifact
    lowered: object = None                    # lower artifact (schedule IR)
    validated: bool = False
    sim_results: Optional[List[CollectiveResult]] = None
    cluster_result: object = None             # ClusterResult for cluster traces
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_cache: Dict[str, str] = field(default_factory=dict)  # stage -> hit/miss/off

    @property
    def concurrent_flow(self) -> Optional[float]:
        """Concurrent-flow value of the synthesized schedule, if it has one."""
        if isinstance(self.schedule, TimeSteppedFlow):
            return self.schedule.equivalent_concurrent_flow()
        if isinstance(self.schedule, (PathSchedule, ConcurrentFlowValue)):
            return float(self.schedule.concurrent_flow)
        return None

    @property
    def all_to_all_time(self) -> Optional[float]:
        """Normalized all-to-all time of the synthesized schedule."""
        if isinstance(self.schedule, TimeSteppedFlow):
            return self.schedule.total_utilization
        if isinstance(self.schedule, (PathSchedule, ConcurrentFlowValue)):
            return self.schedule.all_to_all_time()
        return None

    @property
    def num_terminals(self) -> Optional[int]:
        """Number of communicating endpoints (hosts if augmented)."""
        meta = getattr(self.schedule, "meta", None) or {}
        if meta.get("augmented"):
            return int(meta["num_hosts"])
        return self.num_graph_nodes

    @property
    def num_graph_nodes(self) -> Optional[int]:
        """Nodes of the graph the schedule runs on (augmented if it is)."""
        if isinstance(self.schedule, ConcurrentFlowValue):
            return self.schedule.num_nodes
        topo = getattr(self.schedule, "topology", None)
        return None if topo is None else int(topo.num_nodes)

    def stage_artifacts(self) -> Dict[str, object]:
        """Pre-simulate artifacts of the stages this result ran, by stage."""
        produced = {"synthesize": self.schedule, "lower": self.lowered,
                    "validate": self.validated}
        return {stage: produced[stage] for stage in produced
                if stage in self.stage_seconds}

    def engine_info(self) -> Dict[str, object]:
        """Engine accounting carried on the schedule's metadata, if any."""
        meta = getattr(self.schedule, "meta", None) or {}
        info = meta.get("engine") or meta.get("master_engine") or {}
        return dict(info) if isinstance(info, dict) else {}


class Plan:
    """Staged, cached execution of one scenario.

    Parameters
    ----------
    scenario:
        The declarative scenario to execute.
    cache:
        Stage-artifact cache; defaults to the process-wide one
        (:func:`get_plan_cache`).  Pass ``None``-like disabled caches to
        force recomputation (a plan still reuses its *own* artifacts).
    n_jobs:
        Worker count forwarded to scheme synthesis (decomposed child LPs).
    """

    def __init__(self, scenario: Scenario, cache: Optional[SolutionCache] = None,
                 n_jobs: int = 1) -> None:
        self.scenario = scenario
        self.cache = cache if cache is not None else get_plan_cache()
        self.n_jobs = n_jobs
        self.result = PlanResult(scenario=scenario)

    # ------------------------------------------------------------------ #
    def run(self, through: str = "simulate") -> PlanResult:
        """Execute stages up to and including ``through``; idempotent.

        Stages already executed by this plan instance are kept; remaining
        stages consult the shared artifact cache before computing.  A
        :data:`~repro.experiments.scenario.SYNTHESIZE_ONLY` scheme asked for
        a later stage raises :class:`ValueError` before any work.
        """
        if through not in STAGES:
            raise KeyError(f"unknown stage {through!r}; stages: {STAGES}")
        if through != "synthesize" and self.scenario.scheme in SYNTHESIZE_ONLY:
            raise ValueError(
                f"scheme {self.scenario.scheme!r} yields the optimal concurrent "
                f"flow only, with no schedule to {through}; run it through "
                "'synthesize', or use 'mcf-extp' for a schedule")
        for stage in STAGES[:STAGES.index(through) + 1]:
            self._ensure_stage(stage)
        return self.result

    # ------------------------------------------------------------------ #
    def _ensure_stage(self, stage: str) -> None:
        if stage in self.result.stage_seconds:
            return
        key = stage_artifact_key(self.scenario, stage)
        start = time.perf_counter()
        if not self.cache.enabled:
            self._install(stage, self._compute(stage))
            self.result.stage_cache[stage] = "off"
        else:
            cached = self.cache.get(key)
            if cached is not None:
                self._install(stage, cached)
                self.result.stage_cache[stage] = "hit"
            else:
                artifact = self._compute(stage)
                self._install(stage, artifact)
                self.result.stage_cache[stage] = "miss"
                self.cache.put(key, artifact)
        self.result.stage_seconds[stage] = time.perf_counter() - start

    def _compute(self, stage: str) -> object:
        scenario = self.scenario
        if stage == "synthesize":
            topology = scenario.resolved_topology()
            return resolve_scheme(scenario, topology, n_jobs=self.n_jobs)
        if stage == "lower":
            schedule = self.result.schedule
            if isinstance(schedule, TimeSteppedFlow):
                return chunk_timestepped_flow(schedule)
            if isinstance(schedule, PathSchedule):
                return chunk_path_schedule(schedule,
                                           max_denominator=scenario.max_denominator)
            if isinstance(schedule, (LinkSchedule, RoutedSchedule)):
                return schedule
            raise TypeError(f"cannot lower schedule of type {type(schedule)!r}")
        if stage == "validate":
            lowered = self.result.lowered
            if isinstance(lowered, LinkSchedule):
                validate_link_schedule(lowered)
            else:
                validate_routed_schedule(lowered)
            return True
        # simulate
        if scenario.cluster is not None:
            from ..cluster import run_cluster  # lazy: cluster imports simulator

            default_buffer = scenario.buffers[0] if scenario.buffers else None
            return run_cluster(self.result.lowered, scenario.cluster,
                               fabric=scenario.resolved_fabric(),
                               default_buffer=default_buffer,
                               validate=False)
        if not scenario.buffers:
            return []
        if scenario.faults is not None:
            from ..faults import run_faulted_sweep  # lazy: faults imports simulator

            return run_faulted_sweep(self.result.lowered,
                                     list(scenario.buffers),
                                     scenario.faults,
                                     fabric=scenario.resolved_fabric(),
                                     validate_first=False)
        return throughput_sweep(self.result.lowered, list(scenario.buffers),
                                fabric=scenario.resolved_fabric(),
                                validate_first=False,
                                overlap=scenario.overlap)

    def _install(self, stage: str, artifact: object) -> None:
        from ..cluster import ClusterResult  # lazy: cluster imports simulator

        if stage == "synthesize":
            self.result.schedule = artifact
        elif stage == "lower":
            self.result.lowered = artifact
        elif stage == "validate":
            self.result.validated = bool(artifact)
        elif isinstance(artifact, ClusterResult):
            self.result.cluster_result = artifact
            self.result.sim_results = []
        else:
            self.result.sim_results = list(artifact)
