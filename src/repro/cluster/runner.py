"""Multi-job cluster co-simulation on the unified fluid engine.

:func:`run_cluster` executes a trace of jobs over one synthesized routed
schedule.  Every job is its :class:`~repro.cluster.trace.ClusterSpec`: it
arrives at its :func:`~repro.cluster.trace.arrival_times` instant and runs
``rounds`` rounds of ``compute`` seconds followed by one all-to-all over
the spec's buffer, with a barrier between consecutive phases.  Every live
comm phase's flows max-min fair share the fabric.  The jobs are event
sources on one :class:`~repro.simulator.engine.FluidRun`: arrivals and
compute timers inject flow sets into the run's arena (see
:mod:`.injector`) and the run calls back when a set drains, which closes
the job's comm phase.

Reported metrics:

- **per-job slowdown** — ``(finish - arrival) / isolated_seconds``, where
  the isolated time runs the same placed flows alone on the same fabric
  through the single-collective engine (so a lone job has slowdown 1.0 to
  float round-off);
- **makespan** — last finish minus first arrival;
- **fabric utilization** — time-weighted mean link utilization:
  bytes x links-crossed delivered, over total link capacity x makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..schedule.ir import LinkSchedule, RoutedSchedule
from ..schedule.validate import validate_routed_schedule
from ..simulator.engine import FluidFlow, FluidRun, compile_flows, execute
from ..simulator.fabric import FabricModel
from .injector import FlowInjector
from .placement import RoutePlacer, placement_permutation
from .trace import ClusterSpec, arrival_times, parse_cluster_spec

__all__ = ["JobResult", "ClusterResult", "run_cluster"]


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job: timing, slowdown and its phase spans.

    ``phase_spans`` lists ``(kind, start, end)`` per executed phase
    (``kind`` is ``"compute"`` or ``"comm"``), in order — consecutive
    spans never overlap, which is the barrier property tests assert.
    """

    job_id: int
    name: str
    arrival: float
    finish: float
    isolated_seconds: float
    slowdown: float
    phase_spans: Tuple[Tuple[str, float, float], ...]

    @property
    def completion_seconds(self) -> float:
        """Wall-clock the job spent in the system (finish - arrival)."""
        return self.finish - self.arrival


@dataclass
class ClusterResult:
    """Outcome of one cluster co-simulation run."""

    jobs: List[JobResult]
    makespan_seconds: float
    fabric_utilization: float
    fill_rounds: int
    events: int
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def slowdowns(self) -> List[float]:
        """Per-job slowdown factors, in job order."""
        return [j.slowdown for j in self.jobs]


def run_cluster(schedule: Union[RoutedSchedule, LinkSchedule],
                spec: Union[ClusterSpec, str],
                fabric: Optional[FabricModel] = None,
                default_buffer: Optional[float] = None,
                validate: bool = True) -> ClusterResult:
    """Co-simulate a multi-job trace over one synthesized schedule.

    ``spec`` is a :class:`ClusterSpec` or a ``cluster:...`` spec string;
    ``default_buffer`` backs the trace's ``buffer=`` field when absent
    (``ValueError`` when both are missing).
    Only routed (path-based) schedules are supported: link schedules are
    globally step-synchronized, so their steps cannot interleave across
    independently-arriving jobs.
    """
    if isinstance(spec, str):
        spec = parse_cluster_spec(spec)
    if isinstance(schedule, LinkSchedule):
        raise ValueError(
            "cluster co-simulation supports routed (path-based) schedules "
            "only; LinkSchedule steps are globally synchronized and cannot "
            "interleave across jobs — use a cut-through scheme "
            "(e.g. mcf-extp)")
    if validate:
        validate_routed_schedule(schedule)
    topology = schedule.topology
    fabric = fabric or FabricModel()
    buffer = spec.buffer if spec.buffer is not None else default_buffer
    if buffer is None:
        raise ValueError(
            "cluster spec has no buffer= field and no scenario buffer to "
            "fall back on; set buffer= in the trace spec or give the "
            "scenario a non-empty buffers tuple")
    shard = float(buffer) / topology.num_nodes
    compute = float(spec.compute)
    arrivals = [float(t) for t in arrival_times(spec)]
    jobs = range(len(arrivals))

    # Placed flow template per job (route, bytes), reused every round, its
    # bytes x links-crossed, and the per-job isolated comm time: the placed
    # flows run alone through the single-collective engine (cached per
    # distinct placement).
    templates: List[List[Tuple[Tuple[int, ...], float]]] = []
    link_bytes: List[float] = []
    isolated_comm: List[float] = []
    iso_cache: Dict[Tuple[int, ...], float] = {}
    placer = RoutePlacer(topology)
    for job_id in jobs:
        perm = placement_permutation(spec.placement, job_id,
                                     topology.num_nodes, spec.jobs, spec.seed)
        template = [(placer.place(a.route, perm),
                     a.chunk.bytes(shard)) for a in schedule.assignments]
        templates.append(template)
        link_bytes.append(sum(size * (len(path) - 1)
                              for path, size in template))
        if perm not in iso_cache:
            flows = [FluidFlow(path=path, size_bytes=size)
                     for path, size in template]
            iso_cache[perm] = execute(
                compile_flows(topology, flows, fabric)).completion_time
        isolated_comm.append(iso_cache[perm])

    # Each job loops: compute timer, inject its round's flows, drain, then
    # the next round or its finish.  Spans are [kind, start, end].
    arena = FlowInjector(topology, fabric)
    run = FluidRun(arena)
    rounds_done = [0] * len(arrivals)
    spans: List[List[List[object]]] = [[] for _ in jobs]
    finish: Dict[int, float] = {}

    def _start_round(job_id: int) -> None:
        """Start the job's next compute phase, or record its finish time."""
        now = run.now
        if rounds_done[job_id] >= spec.rounds:
            finish[job_id] = now
            return
        spans[job_id].append(["compute", now, now])
        run.schedule_at(now + compute, lambda: _inject(job_id))

    def _inject(job_id: int) -> None:
        """Barrier: close the compute phase and inject the round's flows."""
        now = run.now
        spans[job_id][-1][2] = now
        spans[job_id].append(["comm", now, now])
        round_id = rounds_done[job_id]
        rounds_done[job_id] = round_id + 1
        flows = [FluidFlow(path=path, size_bytes=size)
                 for path, size in templates[job_id]]
        run.inject(flows, name=f"job{job_id}/round{round_id}",
                   on_done=lambda t: run.schedule_at(
                       t, lambda: _drained(job_id)))

    def _drained(job_id: int) -> None:
        """Barrier: close the comm phase and start the next round."""
        spans[job_id][-1][2] = run.now
        _start_round(job_id)

    for job_id in jobs:
        run.schedule_at(arrivals[job_id],
                        lambda job_id=job_id: _start_round(job_id))
    run.run()
    if len(finish) != len(arrivals):
        missing = sorted(set(jobs) - set(finish))
        raise RuntimeError(
            f"cluster simulation drained its event queue with unfinished "
            f"jobs {missing}")

    job_results: List[JobResult] = []
    for job_id in jobs:
        done = finish[job_id]
        isolated = (spec.rounds * spec.compute
                    + spec.rounds * isolated_comm[job_id])
        elapsed = done - arrivals[job_id]
        slowdown = elapsed / isolated if isolated > 0 else 1.0
        job_results.append(JobResult(
            job_id=job_id,
            name=f"job{job_id}",
            arrival=arrivals[job_id],
            finish=done,
            isolated_seconds=isolated,
            slowdown=slowdown,
            phase_spans=tuple((str(kind), float(start), float(end))
                              for kind, start, end in spans[job_id]),
        ))

    first_arrival = min(arrivals)
    makespan = max(finish.values()) - first_arrival
    injected = sum(rounds_done[j] * link_bytes[j] for j in jobs)
    capacity = float(arena.res_cap[:len(topology.edges)].sum())
    utilization = (injected / (capacity * makespan)
                   if makespan > 0 and capacity > 0 else 0.0)
    return ClusterResult(
        jobs=job_results,
        makespan_seconds=makespan,
        fabric_utilization=utilization,
        fill_rounds=run.fill_rounds,
        events=run.queue.processed,
        meta={
            "spec": spec.canonical(),
            "placement": spec.placement,
            "arrival": spec.arrival,
            "num_jobs": len(arrivals),
            "rounds": spec.rounds,
            "arrival_times": arrivals,
        },
    )
