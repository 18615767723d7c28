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

Each stage's entry is cached under :func:`stage_artifact_key` (the
scenario's :meth:`~repro.experiments.scenario.Scenario.stage_key` salted
with the package version) in a process-wide
:class:`~repro.engine.cache.SolutionCache` instance (memory tier always on,
disk tier under ``$REPRO_CACHE_DIR/stages`` when configured), so re-running a
scenario — or a scenario that shares a prefix of the pipeline, e.g. the same
schedule simulated at different buffer sizes — recomputes nothing.

An entry is ``(artifact, summary)``: the summary holds the record scalars of
that stage and the stages before it (F, the all-to-all time, node counts and
engine accounting from synthesize; step and assignment counts from lower),
each computed once, when its stage is computed.  :meth:`Plan.run` reads the
deepest requested stage first; a hit ends the run, so a warm scenario reads
one entry and counts one ``stage-cache`` hit, while its record still lists
every stage (the ones the summary served as ``"hit"``).  Only a miss moves
on to the stage before.  The upstream artifacts
(:attr:`PlanResult.schedule`, :attr:`PlanResult.lowered`) load from their
own entries, or are recomputed, when a caller first reads them.  A `Plan`
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
from .scenario import STAGES, SYNTHESIZE_ONLY, Scenario, resolve_scheme, salted

__all__ = ["Plan", "PlanResult", "get_plan_cache", "configure_plan_cache",
           "reset_plan_cache", "stage_artifact_key"]


# --------------------------------------------------------------------------- #
# Process-wide stage-artifact cache (mirrors engine.core's default engine)
# --------------------------------------------------------------------------- #
_plan_cache: Optional[SolutionCache] = None
_plan_cache_lock = threading.Lock()


def stage_artifact_key(scenario: Scenario, stage: str) -> str:
    """Stage-cache key of one scenario stage's artifact: the scenario's
    :meth:`~repro.experiments.scenario.Scenario.stage_key`, passed through
    :func:`~repro.experiments.scenario.salted`."""
    return salted(scenario.stage_key(stage))


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
#: Summary entries the lower stage adds to the synthesize stage's.
_LOWER_SUMMARY = ("num_steps", "num_assignments")


def _synthesize_summary(schedule: object) -> Dict[str, object]:
    """The record scalars a synthesized schedule determines, computed once.

    ``concurrent_flow`` and ``all_to_all_time`` (when the scheme defines
    them), ``num_nodes`` (the communicating endpoints: hosts if augmented),
    ``num_graph_nodes`` (the graph the schedule runs on) and ``engine`` (the
    engine accounting on the schedule's metadata).
    """
    summary: Dict[str, object] = {}
    if isinstance(schedule, TimeSteppedFlow):
        summary["concurrent_flow"] = schedule.equivalent_concurrent_flow()
        summary["all_to_all_time"] = schedule.total_utilization
    elif isinstance(schedule, (PathSchedule, ConcurrentFlowValue)):
        summary["concurrent_flow"] = float(schedule.concurrent_flow)
        summary["all_to_all_time"] = schedule.all_to_all_time()
    if isinstance(schedule, ConcurrentFlowValue):
        graph_nodes: Optional[int] = schedule.num_nodes
    else:
        topo = getattr(schedule, "topology", None)
        graph_nodes = None if topo is None else int(topo.num_nodes)
    meta = getattr(schedule, "meta", None) or {}
    summary["num_nodes"] = int(meta["num_hosts"]) if meta.get("augmented") else graph_nodes
    summary["num_graph_nodes"] = graph_nodes
    info = meta.get("engine") or meta.get("master_engine") or {}
    summary["engine"] = dict(info) if isinstance(info, dict) else {}
    return {name: value for name, value in summary.items() if value is not None}


def _lower_summary(lowered: object) -> Dict[str, object]:
    """The record scalars a lowered schedule determines: steps and assignments."""
    summary: Dict[str, object] = {}
    if hasattr(lowered, "num_steps"):
        summary["num_steps"] = int(lowered.num_steps)
    if hasattr(lowered, "assignments"):
        summary["num_assignments"] = len(lowered.assignments)
    return summary


#: Stage -> the summary its artifact adds to the record.
_SUMMARIES = {"synthesize": _synthesize_summary, "lower": _lower_summary}


@dataclass
class PlanResult:
    """Artifacts and accounting of one plan execution.

    ``summary`` holds the record scalars of the stages run so far (see
    :func:`_synthesize_summary` and :func:`_lower_summary`).  ``schedule``
    and ``lowered`` are loaded on first read: a stage served by a deeper
    stage's cache entry has its summary but not its artifact, which is read
    from its own entry (or recomputed) only when a caller asks for it.
    """

    scenario: Scenario
    sim_results: Optional[List[CollectiveResult]] = None
    cluster_result: object = None             # ClusterResult for cluster traces
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    stage_cache: Dict[str, str] = field(default_factory=dict)  # stage -> hit/miss/off
    summary: Dict[str, object] = field(default_factory=dict)
    #: Loaded synthesize/lower artifacts, by stage.
    artifacts: Dict[str, object] = field(default_factory=dict)
    #: The plan that loads missing artifacts (never pickled).
    _plan: Optional["Plan"] = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "_plan": None}

    def _artifact(self, stage: str) -> object:
        if stage not in self.artifacts and stage in self.stage_seconds:
            plan = self._plan or Plan(self.scenario, result=self)
            self.artifacts[stage] = plan._load(stage)
        return self.artifacts.get(stage)

    @property
    def validated(self) -> bool:
        """Whether the validate stage ran (or a deeper entry stood in for it)."""
        return "validate" in self.stage_seconds

    @property
    def schedule(self) -> object:
        """The synthesize artifact (loaded on first read)."""
        return self._artifact("synthesize")

    @property
    def lowered(self) -> object:
        """The lower artifact, the schedule IR (loaded on first read)."""
        return self._artifact("lower")

    @property
    def concurrent_flow(self) -> Optional[float]:
        """Concurrent-flow value of the synthesized schedule, if it has one."""
        return self.summary.get("concurrent_flow")

    @property
    def all_to_all_time(self) -> Optional[float]:
        """Normalized all-to-all time of the synthesized schedule."""
        return self.summary.get("all_to_all_time")

    @property
    def num_terminals(self) -> Optional[int]:
        """Number of communicating endpoints (hosts if augmented)."""
        return self.summary.get("num_nodes")

    @property
    def num_graph_nodes(self) -> Optional[int]:
        """Nodes of the graph the schedule runs on (augmented if it is)."""
        return self.summary.get("num_graph_nodes")

    def engine_info(self) -> Dict[str, object]:
        """Engine accounting carried on the schedule's metadata, if any."""
        return dict(self.summary.get("engine") or {})


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
    keys:
        The scenario's :meth:`~repro.experiments.scenario.Scenario.stage_keys`
        when the caller already computed them; computed on first use
        otherwise.
    result:
        A result of this scenario's earlier stages to continue from.
    """

    def __init__(self, scenario: Scenario, cache: Optional[SolutionCache] = None,
                 n_jobs: int = 1, keys: Optional[Dict[str, str]] = None,
                 result: Optional[PlanResult] = None) -> None:
        self.scenario = scenario
        self.cache = cache if cache is not None else get_plan_cache()
        self.n_jobs = n_jobs
        self._keys = keys
        self.result = result if result is not None else PlanResult(scenario=scenario)
        self.result._plan = self

    @property
    def keys(self) -> Dict[str, str]:
        """The scenario's stage keys (unsalted), computed once per plan."""
        if self._keys is None:
            self._keys = self.scenario.stage_keys()
        return self._keys

    def _key(self, stage: str) -> str:
        return salted(self.keys[stage])

    # ------------------------------------------------------------------ #
    def run(self, through: str = "simulate") -> PlanResult:
        """Execute stages up to and including ``through``; idempotent.

        Stages already executed by this plan instance are kept.  The rest
        are served deepest first: a cache entry for ``through`` carries the
        summary of every stage before it, so a hit ends the run there, and
        only a miss moves on to the stage before.  A
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
        self._ensure_stage(through)
        return self.result

    def publish(self) -> None:
        """Put the pre-simulate artifacts this result computed in the cache.

        The executor's parent calls this on a leader's result, so that the
        pool it forks next inherits them.  Stages the cache served are
        already there (or on disk) and are skipped.
        """
        for stage in ("synthesize", "lower", "validate"):
            if self.result.stage_cache.get(stage) == "miss":
                artifact = True if stage == "validate" else self.result.artifacts[stage]
                self.cache.put(self._key(stage), (artifact, self._entry_summary(stage)))

    # ------------------------------------------------------------------ #
    def _ensure_stage(self, stage: str) -> None:
        """Run ``stage``: a hit on its entry serves it and, through the
        entry's summary, every stage before it; a miss runs the stage before,
        then computes this one."""
        result = self.result
        if stage in result.stage_seconds:
            return
        start = time.perf_counter()
        entry = self.cache.get(self._key(stage)) if self.cache.enabled else None
        seconds = time.perf_counter() - start
        if entry is not None:
            artifact, summary = entry
            for name, value in summary.items():
                result.summary.setdefault(name, value)
            for before in STAGES[:STAGES.index(stage)]:
                if before not in result.stage_seconds:
                    result.stage_cache[before] = "hit"
                    result.stage_seconds[before] = 0.0
            self._install(stage, artifact)
            result.stage_cache[stage] = "hit"
        else:
            if stage != STAGES[0]:
                self._ensure_stage(STAGES[STAGES.index(stage) - 1])
            start = time.perf_counter()
            artifact = self._compute(stage)
            if stage in _SUMMARIES:
                result.summary.update(_SUMMARIES[stage](artifact))
            self._install(stage, artifact)
            if self.cache.enabled:
                self.cache.put(self._key(stage), (artifact, self._entry_summary(stage)))
            seconds += time.perf_counter() - start
            result.stage_cache[stage] = "miss" if self.cache.enabled else "off"
        result.stage_seconds[stage] = seconds

    def _load(self, stage: str) -> object:
        """A stage artifact a deeper entry's summary stood in for: read from
        its own entry, or recomputed (and stored) on a miss."""
        key = self._key(stage)
        entry = self.cache.get(key)
        if entry is not None:
            return entry[0]
        artifact = self._compute(stage)
        self.cache.put(key, (artifact, self._entry_summary(stage)))
        return artifact

    def _entry_summary(self, stage: str) -> Dict[str, object]:
        """The summary stored with ``stage``'s entry: its stages' scalars."""
        return {name: value for name, value in self.result.summary.items()
                if stage != "synthesize" or name not in _LOWER_SUMMARY}

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
        lowered = self.result.lowered
        if scenario.cluster is not None:
            from ..cluster import run_cluster  # lazy: cluster imports simulator

            default_buffer = scenario.buffers[0] if scenario.buffers else None
            return run_cluster(lowered, scenario.cluster,
                               fabric=scenario.resolved_fabric(),
                               default_buffer=default_buffer,
                               validate=False)
        if not scenario.buffers:
            return []
        if scenario.faults is not None:
            from ..faults import run_faulted_sweep  # lazy: faults imports simulator

            return run_faulted_sweep(lowered, list(scenario.buffers),
                                     scenario.faults,
                                     fabric=scenario.resolved_fabric(),
                                     validate_first=False)
        return throughput_sweep(lowered, list(scenario.buffers),
                                fabric=scenario.resolved_fabric(),
                                validate_first=False,
                                overlap=scenario.overlap)

    def _install(self, stage: str, artifact: object) -> None:
        from ..cluster import ClusterResult  # lazy: cluster imports simulator

        if stage in ("synthesize", "lower"):
            self.result.artifacts[stage] = artifact
        elif stage == "simulate" and isinstance(artifact, ClusterResult):
            self.result.cluster_result = artifact
            self.result.sim_results = []
        elif stage == "simulate":
            self.result.sim_results = list(artifact)
