"""Multi-job cluster co-simulation on the unified fluid engine.

:func:`run_cluster` executes a trace of jobs — each a barrier-separated
sequence of compute and all-to-all comm phases — over one synthesized
routed schedule, with every live comm phase's flows max-min fair sharing
the fabric.  The jobs are event sources on one
:class:`~repro.simulator.engine.FluidRun`: arrivals, compute timers and
phase barriers inject flow sets into the run's arena (see :mod:`.injector`)
and the run calls back when a set drains, which closes the job's comm
phase.

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
from .job import CommPhase, ComputePhase, jobs_from_spec
from .placement import RoutePlacer, placement_permutation
from .trace import ClusterSpec, parse_cluster_spec

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
    ``default_buffer`` backs the trace's ``buffer=`` field when absent.
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
    n = topology.num_nodes
    fabric = fabric or FabricModel()
    jobs = jobs_from_spec(spec, default_buffer=default_buffer)

    # Placed flow template per job (route, bytes), reused every round, its
    # bytes x links-crossed, and the per-job isolated comm time: the placed
    # flows run alone through the single-collective engine (cached per
    # distinct placement).
    templates: Dict[int, List[Tuple[Tuple[int, ...], float]]] = {}
    link_bytes: Dict[int, float] = {}
    isolated_comm: Dict[int, float] = {}
    iso_cache: Dict[Tuple[Tuple[int, ...], float], float] = {}
    placer = RoutePlacer(topology)
    for job in jobs:
        perm = placement_permutation(spec.placement, job.job_id, n,
                                     spec.jobs, spec.seed)
        buffer = next(p.buffer_bytes for p in job.phases
                      if isinstance(p, CommPhase))
        shard = buffer / n
        template = [(placer.place(a.route, perm),
                     a.chunk.bytes(shard)) for a in schedule.assignments]
        templates[job.job_id] = template
        link_bytes[job.job_id] = sum(size * (len(path) - 1)
                                     for path, size in template)
        key = (perm, float(buffer))
        if key not in iso_cache:
            flows = [FluidFlow(path=path, size_bytes=size)
                     for path, size in template]
            iso_cache[key] = execute(
                compile_flows(topology, flows, fabric)).completion_time
        isolated_comm[job.job_id] = iso_cache[key]

    arena = FlowInjector(topology, fabric)
    run = FluidRun(arena)
    job_by_id = {job.job_id: job for job in jobs}
    phase_index = {job.job_id: 0 for job in jobs}
    comm_round = {job.job_id: 0 for job in jobs}
    spans: Dict[int, List[List[object]]] = {job.job_id: [] for job in jobs}
    finish: Dict[int, float] = {}

    def _phase_done(job_id: int) -> None:
        """Barrier: close the job's running phase and start the next one."""
        spans[job_id][-1][2] = run.now
        _start_next_phase(job_id)

    def _start_next_phase(job_id: int) -> None:
        """Start the job's next phase, or record its finish time."""
        job = job_by_id[job_id]
        index = phase_index[job_id]
        now = run.now
        if index >= len(job.phases):
            finish[job_id] = now
            return
        phase_index[job_id] = index + 1
        phase = job.phases[index]
        if isinstance(phase, ComputePhase):
            spans[job_id].append(["compute", now, now])
            run.schedule_at(now + phase.seconds,
                            lambda: _phase_done(job_id))
            return
        spans[job_id].append(["comm", now, now])
        round_id = comm_round[job_id]
        comm_round[job_id] = round_id + 1
        flows = [FluidFlow(path=path, size_bytes=size, tag=(job_id, round_id))
                 for path, size in templates[job_id]]
        run.inject(flows, name=f"job{job_id}/round{round_id}",
                   on_done=lambda t: run.schedule_at(
                       t, lambda: _phase_done(job_id)))

    for job in jobs:
        run.schedule_at(job.arrival,
                        lambda job_id=job.job_id: _start_next_phase(job_id))
    run.run()
    if len(finish) != len(jobs):
        missing = sorted(set(job_by_id) - set(finish))
        raise RuntimeError(
            f"cluster simulation drained its event queue with unfinished "
            f"jobs {missing}")

    job_results: List[JobResult] = []
    for job in jobs:
        done = finish[job.job_id]
        isolated = (spec.rounds * spec.compute
                    + spec.rounds * isolated_comm[job.job_id])
        elapsed = done - job.arrival
        slowdown = elapsed / isolated if isolated > 0 else 1.0
        job_results.append(JobResult(
            job_id=job.job_id,
            name=job.name,
            arrival=job.arrival,
            finish=done,
            isolated_seconds=isolated,
            slowdown=slowdown,
            phase_spans=tuple((str(kind), float(start), float(end))
                              for kind, start, end in spans[job.job_id]),
        ))

    first_arrival = min(job.arrival for job in jobs)
    makespan = max(finish.values()) - first_arrival
    injected = sum(comm_round[j] * link_bytes[j] for j in job_by_id)
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
            "num_jobs": len(jobs),
            "rounds": spec.rounds,
            "arrival_times": [job.arrival for job in jobs],
        },
    )
