"""Event-driven execution of a schedule under timed fabric faults.

:func:`run_faulted` executes one routed collective while the fabric mutates
underneath it.  Fault epochs are an event source on one
:class:`~repro.simulator.engine.FluidRun`; the run integrates the fluid
state to each epoch instant and retires finished flows, then the epoch

1. materializes the epoch's effective fabric
   (:meth:`~repro.faults.spec.FaultTimeline.fabric_at`) and recomputes each
   survivor's route — original route if still clear, deterministic BFS
   repair otherwise, *stranded* if disconnected (:mod:`.reroute`);
2. certifies the active route set deadlock-free through LASH / DF-SSSP;
3. edits the run's :class:`~repro.perf.delta.DeltaProgram` arena — link
   capacities and the incidence entries of rerouted flows — and masks
   stranded flows out of the fill.

Repairs are memoized in the context's
:class:`~repro.faults.context.RerouteCache`, and the arena is cloned from
a template compiled once per context.  Between epochs the run *is* the
engine: max-min fair rates, completion-to-completion advancement, latency
stamped after the transfer.  Completion latency always uses the flow's
**originally planned** route (the repair happens mid-flight; the
planned-path latency was already committed), so a zero-fault spec
reproduces the plain engine byte-for-byte — the differential suite pins
every faulted run to a hand-stitched sequence of piecewise-static scalar
runs at 1e-9, and the per-epoch arena to fresh ``compile_flows`` output.

Two fault events at the same timestamp fire in spec-canonical order inside
one epoch; a fault epoch colliding with a flow-completion instant fires
*first* (epoch events are scheduled before any completion, and the queue
breaks time ties by insertion order — see
:class:`~repro.simulator.events.Event`).  The adversarial search
(:mod:`.adversarial`) shares the healthy prefix of its candidates:
:func:`capture_fault_prefix` runs it once up to the strike instant and each
evaluation resumes from a clone.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..schedule.ir import LinkSchedule, RoutedSchedule
from ..schedule.validate import validate_routed_schedule
from ..simulator.collective import (CollectiveResult, run_routed_collective,
                                    throughput_sweep)
from ..simulator.engine import FluidRun, run_lockstep
from ..simulator.fabric import FabricModel
from .context import PreparedFaultContext
from .reroute import certify_routes
from .spec import FaultSpec, FaultTimeline, parse_fault_spec

__all__ = ["StrandedScheduleError", "capture_fault_prefix", "run_faulted",
           "run_faulted_lockstep", "run_faulted_sweep"]

Path = Tuple[int, ...]

#: Runs per stacked fill of :func:`run_faulted_lockstep`.  The extra memory
#: grows with the group (about 0.35 MB per run on a 4x4 torus), while the
#: time per fill gains little past a few dozen runs: 22 runs, a third of a
#: 66-set search, were 4% slower than 33 and used 4 MB less.
LOCKSTEP_GROUP = 22

#: Counters measuring the work one call did (time and cache lookups): a
#: run resumed from a prefix starts them at zero.
_WORK = ("compile_seconds", "reroute_seconds", "route_cache_hits",
         "route_cache_misses")


class StrandedScheduleError(RuntimeError):
    """Raised when flows stay disconnected past the last fault epoch."""

    def __init__(self, flow_ids: Sequence[int], stranded_bytes: float) -> None:
        self.flow_ids = tuple(int(i) for i in flow_ids)
        self.stranded_bytes = float(stranded_bytes)
        super().__init__(
            f"{len(self.flow_ids)} flow(s) permanently stranded "
            f"({self.stranded_bytes:.0f} residual bytes): the failure set "
            "disconnects their endpoints and no recovery event follows; "
            "pass allow_stranded=True to measure anyway")


@dataclass
class _EpochRecord:
    """Per-epoch trace entry for the incidence-check tests."""

    time: float
    down: Tuple[Tuple[int, int], ...]
    paths: Dict[int, Path]            # live flow id -> route in force
    stranded: Tuple[int, ...]


class _FaultedRun:
    """Fabric epochs as an event source on one :class:`FluidRun`.

    Holds the run over a clone of the context's arena plus the epoch
    state: the route in force per flow (``None`` while stranded), the last
    route sent to the arena per flow, the stranded mask and the per-run
    counters.
    """

    def __init__(self, context: PreparedFaultContext, buffer_bytes: float,
                 spec: FaultSpec, collect_trace: bool) -> None:
        self.context = context
        self.spec = spec
        self.timeline = FaultTimeline(spec)
        self.run = FluidRun(context.delta_program(),
                            sizes=context.sizes_for(buffer_bytes),
                            delays=context.delays)
        self.paths: List[Optional[Path]] = list(context.orig_paths)
        self.encoded: List[Path] = list(context.orig_paths)
        self.stranded = np.zeros(context.num_flows, dtype=bool)
        self.counters: Dict[str, float] = dict.fromkeys(
            ("fault_events", "reroutes", "stranded_bytes", "vc_layers")
            + _WORK, 0)
        self.trace: Optional[List[_EpochRecord]] = [] if collect_trace else None

    def epoch(self, t: float, initial: bool = False) -> None:
        """A fabric epoch at ``t``: reroute, certify, patch the arena."""
        run, context, counters = self.run, self.context, self.counters
        if not initial:
            counters["fault_events"] += 1
        epoch_fabric = self.timeline.fabric_at(context.fabric, t, context.edges)
        t0 = time.perf_counter()
        down_key = epoch_fabric.down_links
        down = set(down_key)
        cache = context.reroute_cache
        moved: Dict[int, Path] = {}
        for i in np.nonzero(run.active | self.stranded)[0]:
            path, hit = cache.effective(down_key, down, context.orig_paths[i])
            counters["route_cache_hits" if hit else "route_cache_misses"] += 1
            if path is None:
                if not self.stranded[i]:
                    self.stranded[i] = True
                    counters["stranded_bytes"] += float(run.remaining[i])
            else:
                if path != self.paths[i]:
                    counters["reroutes"] += 1
                if path != self.encoded[i]:
                    moved[int(i)] = self.encoded[i] = path
                self.stranded[i] = False
            run.active[i] = path is not None
            self.paths[i] = path
        live = np.nonzero(run.active)[0]
        layers = certify_routes([self.paths[i] for i in live], self.spec.vc)
        counters["vc_layers"] = max(counters["vc_layers"], layers)
        counters["reroute_seconds"] += time.perf_counter() - t0
        if self.trace is not None:
            self.trace.append(_EpochRecord(
                time=t, down=tuple(sorted(down)),
                paths={int(i): self.paths[i] for i in live},
                stranded=tuple(int(i) for i in np.nonzero(self.stranded)[0])))
        if len(live):
            t0 = time.perf_counter()
            run.arena.apply(epoch_fabric, moved)
            counters["compile_seconds"] += time.perf_counter() - t0
        run.changed()

    def resume(self, spec: FaultSpec, collect_trace: bool) -> "_FaultedRun":
        """A copy of this paused run that continues under ``spec``."""
        new = copy.copy(self)
        new.spec = spec
        new.timeline = FaultTimeline(spec)
        new.run = self.run.clone()
        new.paths = list(self.paths)
        new.encoded = list(self.encoded)
        new.stranded = self.stranded.copy()
        new.counters = {**self.counters, **dict.fromkeys(_WORK, 0)}
        new.trace = [] if collect_trace else None
        return new


def capture_fault_prefix(context: PreparedFaultContext, buffer_bytes: float,
                         at_seconds: float, vc: str = "lash") -> _FaultedRun:
    """Run the healthy prefix of a faulted run up to ``at_seconds`` and pause.

    Every candidate of an adversarial search evolves identically until the
    strike instant, so the search runs that prefix once and passes the
    paused run as ``run_faulted_lockstep(..., prefix=...)``; each
    evaluation resumes from a clone.  The resumed run is bit-identical to
    one simulated from t=0: the same loop ran up to ``at_seconds``, and the
    epoch there still fires before a completion edge colliding with it.
    """
    prefix = _FaultedRun(context, buffer_bytes, FaultSpec(events=(), vc=vc),
                         collect_trace=False)
    prefix.epoch(0.0, initial=True)
    prefix.run.run(until=at_seconds)
    obs.add({f"faults.{key}": prefix.counters[key] for key in _WORK})
    return prefix


def run_faulted(schedule: RoutedSchedule, buffer_bytes: float,
                spec: Union[FaultSpec, str],
                fabric: Optional[FabricModel] = None,
                validate: bool = True,
                allow_stranded: bool = False,
                collect_trace: bool = False,
                baseline_seconds: Optional[float] = None,
                context: Optional[PreparedFaultContext] = None
                ) -> CollectiveResult:
    """Execute a routed schedule under a fault timeline at one buffer size.

    ``baseline_seconds`` (the zero-fault completion time on the same base
    fabric) backs the ``robustness_slowdown`` metric; when omitted it is
    computed with one extra plain engine run.  ``allow_stranded=True``
    records permanently stranded flows as an infinite completion instead of
    raising (the adversarial search treats disconnection as the worst
    outcome); ``collect_trace=True`` stores per-epoch routes and down sets
    in ``meta["epoch_trace"]`` for the differential tests.  ``context`` is
    a :class:`~repro.faults.context.PreparedFaultContext` for this schedule
    and fabric — pass one when running the schedule repeatedly so the
    hoisted arrays, compiled arena template and reroute caches are shared.
    """
    if isinstance(spec, str):
        spec = parse_fault_spec(spec)
    if isinstance(schedule, LinkSchedule):
        raise ValueError(
            "fault injection supports routed (path-based) schedules only; "
            "LinkSchedule steps are globally synchronized and cannot be "
            "rerouted mid-step — use a cut-through scheme (e.g. mcf-extp)")
    if validate:
        validate_routed_schedule(schedule)
    if context is not None:
        if context.schedule is not schedule:
            raise ValueError("context was prepared for a different schedule")
        if fabric is not None and fabric != context.fabric:
            raise ValueError("context was prepared for a different fabric")
        fabric = context.fabric

    if baseline_seconds is None:
        baseline_seconds = run_routed_collective(
            schedule, buffer_bytes, fabric=fabric,
            validate=False).completion_time

    fabric = fabric or FabricModel()
    if context is None:
        context = PreparedFaultContext(schedule, fabric)
    faulted = _start(context, buffer_bytes, spec, collect_trace)
    faulted.run.run()
    return _result(faulted, buffer_bytes, baseline_seconds, allow_stranded)


def _start(context: PreparedFaultContext, buffer_bytes: float,
           spec: FaultSpec, collect_trace: bool,
           prefix: Optional[_FaultedRun] = None) -> _FaultedRun:
    """A faulted run at its start, or resumed from ``prefix``, with its
    fabric epochs scheduled."""
    if prefix is not None:
        epochs = FaultTimeline(spec).epochs
        if (prefix.spec.vc != spec.vc or not epochs
                or epochs[0] != prefix.run.now):
            raise ValueError(
                "fault prefix does not match the spec timeline "
                "(capture instant must equal the first epoch)")
        faulted = prefix.resume(spec, collect_trace)
    else:
        faulted = _FaultedRun(context, buffer_bytes, spec, collect_trace)
        faulted.epoch(0.0, initial=True)   # fold t=0 events into the start
    run = faulted.run
    # Fabric epochs are scheduled before any completion edge exists, so an
    # epoch colliding with a completion instant deterministically fires
    # first.
    for t in faulted.timeline.epochs:
        run.schedule_at(t, lambda t=t: faulted.epoch(t))
    return faulted


def _result(faulted: _FaultedRun, buffer_bytes: float,
            baseline_seconds: float, allow_stranded: bool) -> CollectiveResult:
    """The result of a finished faulted run; adds its ``faults.*`` counters."""
    run, context, counters = faulted.run, faulted.context, faulted.counters
    obs.add({f"faults.{key}": counters[key]
             for key in ("fault_events", "reroutes") + _WORK})

    n = context.schedule.topology.num_nodes
    if faulted.stranded.any():
        stuck = np.nonzero(faulted.stranded)[0]
        if not allow_stranded:
            raise StrandedScheduleError(stuck,
                                        float(run.remaining[stuck].sum()))
        completion_time = float("inf")
    else:
        completion_time = (float(run.completion.max()) if context.num_flows
                           else 0.0)

    meta: Dict[str, object] = {
        "num_flows": context.num_flows,
        "fill_rounds": run.fill_rounds,
        "events": run.queue.processed,
        "fault_events": counters["fault_events"],
        "reroute_count": counters["reroutes"],
        "stranded_bytes": float(counters["stranded_bytes"]),
        "vc_layers": counters["vc_layers"],
        "baseline_seconds": float(baseline_seconds),
        "robustness_slowdown": (completion_time / baseline_seconds
                                if baseline_seconds > 0 else float("inf")),
        "fault_spec": faulted.spec.canonical(),
        "route_cache_hits": counters["route_cache_hits"],
        "route_cache_misses": counters["route_cache_misses"],
        "compile_seconds": counters["compile_seconds"],
        "reroute_seconds": counters["reroute_seconds"],
    }
    if faulted.trace is not None:
        meta["epoch_trace"] = faulted.trace
    return CollectiveResult(
        buffer_bytes=buffer_bytes,
        shard_bytes=buffer_bytes / n,
        completion_time=completion_time,
        num_nodes=n,
        schedule_kind="routed",
        meta=meta,
    )


def run_faulted_lockstep(context: PreparedFaultContext, buffer_bytes: float,
                         specs: Sequence[FaultSpec], baseline_seconds: float,
                         prefix: Optional[_FaultedRun] = None
                         ) -> List[CollectiveResult]:
    """``run_faulted(..., allow_stranded=True)`` of every spec, in lockstep.

    The specs run in groups of :data:`LOCKSTEP_GROUP`: each group's runs
    start (or resume from ``prefix``) one after another, then advance
    together, one stacked fill per step
    (:func:`~repro.simulator.engine.run_lockstep`).  The results, in spec
    order, and the counters equal the sequential calls'.
    """
    def run_group(group_specs: Sequence[FaultSpec]) -> List[CollectiveResult]:
        group = [_start(context, buffer_bytes, spec, False, prefix)
                 for spec in group_specs]
        run_lockstep([faulted.run for faulted in group])
        return [_result(faulted, buffer_bytes, baseline_seconds, True)
                for faulted in group]

    # One group at a time, so that only one group's runs hold memory.
    return [result for start in range(0, len(specs), LOCKSTEP_GROUP)
            for result in run_group(specs[start:start + LOCKSTEP_GROUP])]


def run_faulted_sweep(schedule: Union[RoutedSchedule, LinkSchedule],
                      buffer_sizes: Sequence[float],
                      spec: Union[FaultSpec, str],
                      fabric: Optional[FabricModel] = None,
                      validate_first: bool = True) -> List[CollectiveResult]:
    """Run the faulted schedule across a buffer sweep (simulate-stage entry).

    The schedule is validated once and one
    :class:`~repro.faults.context.PreparedFaultContext` backs every buffer
    point, so the per-flow arrays, compiled arena template and reroute
    caches are built once for the whole sweep.  Every buffer's zero-fault
    baseline, behind its ``robustness_slowdown``, comes from one
    :func:`~repro.simulator.collective.throughput_sweep` over the base
    fabric, which compiles the schedule once.
    """
    if isinstance(spec, str):
        spec = parse_fault_spec(spec)
    if not isinstance(schedule, RoutedSchedule):
        # run_faulted raises the routed-only error.
        return [run_faulted(schedule, buf, spec, fabric=fabric)
                for buf in buffer_sizes]
    context = PreparedFaultContext(schedule, fabric)
    baselines = throughput_sweep(schedule, buffer_sizes, fabric,
                                 validate_first=validate_first)
    return [run_faulted(schedule, base.buffer_bytes, spec, fabric=fabric,
                        validate=False, baseline_seconds=base.completion_time,
                        context=context)
            for base in baselines]
