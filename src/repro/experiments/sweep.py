"""Grid sweeps with streaming JSONL results and hash-based resume.

:class:`SweepGrid` expands a base scenario plus axes (cartesian product) into
an ordered scenario list; :func:`run_sweep` executes them in-process or, with
``workers > 1``, on the process pool of :mod:`.executor`, appending one JSONL
record per *completed* scenario as it finishes — a killed sweep leaves a
usable partial file, and re-running with ``resume=True`` skips every
scenario whose :meth:`~repro.experiments.scenario.Scenario.key` already has
an ``ok`` record.

Record schema (one JSON object per line)::

    {
      "schema_version": 6,
      "key": "<scenario content digest>",
      "label": "hypercube:dim=3/mcf-extp",
      "status": "ok" | "error",
      "through": "simulate",                 # last stage the plan executed
      "scenario": { ...Scenario.to_dict()... },
      "metrics": {
        "concurrent_flow": 0.25, "all_to_all_time": 4.0,
        "num_nodes": 8, "num_assignments": 112,
        "throughput_bytes_per_s": {"1048576": 1.2e9},
        "completion_seconds": {"1048576": 0.002}
      },
      "timings": {"synthesize_seconds": ..., "lower_seconds": ...,
                  "assemble_seconds": ..., "solve_seconds": ...},
      "engine": {"cache": "miss", "backend": "scipy-highs", ...},
      "stage_cache": {"synthesize": "miss", ...},
      "error": null | "<message>"
    }

``metrics`` keys are omitted when a scheme does not define them (e.g. the
TACCL surrogate emits schedule IR directly, so it has no LP flow value).
Cluster-trace scenarios (``Scenario.cluster``) replace the throughput
series with cluster metrics: ``cluster_jobs``, ``makespan_seconds``,
``fabric_utilization``, ``job_slowdown_p50``/``job_slowdown_p99``, plus the
per-job ``job_slowdowns``/``job_completion_seconds`` mappings keyed by job
id.  Fault-injection scenarios (``Scenario.faults``) keep the throughput
series and add ``robustness_slowdown`` (worst buffer point),
``reroute_count``, ``stranded_bytes``, ``fault_events`` and the per-buffer
``robustness_slowdowns`` mapping.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..engine.cache import SolutionCache
from .plan import Plan, PlanResult
from .scenario import Scenario, buffer_key, scenario_schema_version

__all__ = ["SweepGrid", "ScenarioResult", "run_scenarios", "run_sweep",
           "load_results", "completed_records", "write_csv",
           "sweep_stats", "metrics_from_plan", "result_from_plan"]


# --------------------------------------------------------------------------- #
# Grid
# --------------------------------------------------------------------------- #
@dataclass
class SweepGrid:
    """A base scenario plus swept axes, expanded as a cartesian product.

    ``base`` holds fixed scenario fields; ``axes`` maps field names to value
    lists.  Expansion order is deterministic: axes vary in declaration order
    with the last axis fastest, so resuming a sweep sees the same sequence.
    """

    base: Dict[str, object] = field(default_factory=dict)
    axes: Dict[str, Sequence[object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        overlap = sorted(set(self.base) & set(self.axes))
        if overlap:
            raise ValueError(f"field(s) {overlap} appear in both base and axes")
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def scenarios(self) -> List[Scenario]:
        """Expand into concrete scenarios (deterministic order)."""
        names = list(self.axes)
        out: List[Scenario] = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            data = dict(self.base)
            data.update(zip(names, combo))
            out.append(Scenario.from_dict(data))
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepGrid":
        """Build from ``{"base": {...}, "axes": {...}}`` (both optional)."""
        extra = sorted(set(data) - {"base", "axes"})
        if extra:
            raise ValueError(f"unknown grid key(s) {extra}; expected 'base'/'axes'")
        return cls(base=dict(data.get("base", {})),
                   axes={k: list(v) for k, v in dict(data.get("axes", {})).items()})

    @classmethod
    def from_file(cls, path: str) -> "SweepGrid":
        """Load a JSON grid spec file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class ScenarioResult:
    """Outcome of one scenario, serializable as one JSONL record."""

    scenario: Scenario
    key: str
    status: str                               # "ok" | "error"
    metrics: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    engine: Dict[str, object] = field(default_factory=dict)
    stage_cache: Dict[str, str] = field(default_factory=dict)
    through: str = "simulate"                 # last stage the plan executed
    error: Optional[str] = None
    resumed: bool = False
    # In-process only (never serialized): the artifacts and original exception.
    plan: Optional[PlanResult] = None
    exception: Optional[BaseException] = None

    @classmethod
    def from_record(cls, scenario: Scenario, record: Mapping[str, object],
                    resumed: bool = False) -> "ScenarioResult":
        """Rebuild a result from its JSONL record (no plan, no exception)."""
        return cls(scenario=scenario, key=str(record.get("key") or ""),
                   status=str(record.get("status", "error")),
                   metrics=dict(record.get("metrics") or {}),
                   timings=dict(record.get("timings") or {}),
                   engine=dict(record.get("engine") or {}),
                   stage_cache=dict(record.get("stage_cache") or {}),
                   through=str(record.get("through", "simulate")),
                   error=record.get("error"), resumed=resumed)

    def to_record(self) -> Dict[str, object]:
        return {
            "schema_version": scenario_schema_version(),
            "key": self.key,
            "label": self.scenario.label(),
            "status": self.status,
            "through": self.through,
            "scenario": self.scenario.to_dict(),
            "metrics": self.metrics,
            "timings": self.timings,
            "engine": self.engine,
            "stage_cache": self.stage_cache,
            "error": self.error,
        }


def metrics_from_plan(result: PlanResult) -> Dict[str, object]:
    """Flatten a :class:`PlanResult` into the JSONL ``metrics`` mapping.

    Public because the report layer (:mod:`repro.report`) aggregates paper
    artifacts from exactly this shape, whether the scenario ran through
    :func:`run_sweep` or through a benchmark-driven
    :class:`~repro.experiments.plan.Plan`.
    """
    metrics: Dict[str, object] = {
        name: value for name, value in result.summary.items() if name != "engine"}
    if result.sim_results:
        metrics["throughput_bytes_per_s"] = {
            buffer_key(r.buffer_bytes): r.throughput for r in result.sim_results}
        metrics["completion_seconds"] = {
            buffer_key(r.buffer_bytes): r.completion_time for r in result.sim_results}
        # Simulator cost counters (vectorized-engine accounting): how many
        # progressive-filling rounds and completion events the sweep's
        # simulate stage burned, mirroring the LP assemble/solve timings.
        metrics["sim_fill_rounds"] = int(sum(
            int(r.meta.get("fill_rounds", 0)) for r in result.sim_results))
        metrics["sim_events"] = int(sum(
            int(r.meta.get("events", 0)) for r in result.sim_results))
        if any("per_collective_seconds" in r.meta for r in result.sim_results):
            metrics["overlap_completion_seconds"] = {
                buffer_key(r.buffer_bytes): list(r.per_collective_seconds)
                for r in result.sim_results}
        if any("robustness_slowdown" in r.meta for r in result.sim_results):
            # Fault-injection accounting (Scenario.faults): the headline
            # slowdown is the worst buffer point's; reroutes/stranded bytes
            # and fabric-epoch counts sum across the sweep, with per-buffer
            # slowdowns kept as a mapping for the robustness curves.
            metrics["robustness_slowdown"] = float(max(
                float(r.meta.get("robustness_slowdown", 1.0))
                for r in result.sim_results))
            metrics["reroute_count"] = int(sum(
                int(r.meta.get("reroute_count", 0))
                for r in result.sim_results))
            metrics["stranded_bytes"] = float(sum(
                float(r.meta.get("stranded_bytes", 0.0))
                for r in result.sim_results))
            metrics["fault_events"] = int(sum(
                int(r.meta.get("fault_events", 0))
                for r in result.sim_results))
            metrics["robustness_slowdowns"] = {
                buffer_key(r.buffer_bytes):
                    float(r.meta.get("robustness_slowdown", 1.0))
                for r in result.sim_results}
    cluster = result.cluster_result
    if cluster is not None:
        import numpy as np

        slowdowns = [job.slowdown for job in cluster.jobs]
        metrics["cluster_jobs"] = len(cluster.jobs)
        metrics["makespan_seconds"] = float(cluster.makespan_seconds)
        metrics["fabric_utilization"] = float(cluster.fabric_utilization)
        metrics["job_slowdown_p50"] = float(np.percentile(slowdowns, 50))
        metrics["job_slowdown_p99"] = float(np.percentile(slowdowns, 99))
        # Per-job mappings keyed by job id (dicts, not lists: the record
        # validator requires scalar-or-mapping metric values).
        metrics["job_slowdowns"] = {
            str(job.job_id): float(job.slowdown) for job in cluster.jobs}
        metrics["job_completion_seconds"] = {
            str(job.job_id): float(job.completion_seconds)
            for job in cluster.jobs}
        metrics["sim_fill_rounds"] = int(cluster.fill_rounds)
        metrics["sim_events"] = int(cluster.events)
    return metrics


def _timings_from_plan(result: PlanResult) -> Dict[str, float]:
    timings = {f"{stage}_seconds": seconds
               for stage, seconds in result.stage_seconds.items()}
    # Assembly/solve phases describe work done *now*; a schedule served from
    # the stage cache carries the original miss's numbers in its metadata, so
    # only surface them when this run actually synthesized (mirrors the
    # engine dropping stale timings on LP-cache hits).
    if result.stage_cache.get("synthesize") != "hit":
        info = result.engine_info()
        for phase in ("assemble_seconds", "solve_seconds"):
            if isinstance(info.get(phase), (int, float)):
                timings[phase] = float(info[phase])
    timings["total_seconds"] = sum(result.stage_seconds.values())
    return timings


def result_from_plan(scenario: Scenario, result: PlanResult,
                     through: str = "simulate",
                     key: Optional[str] = None) -> ScenarioResult:
    """Wrap an executed :class:`PlanResult` as an ``ok`` :class:`ScenarioResult`.

    Shared by the sweep executor and callers that drive plans directly (the
    benchmark wrappers in :mod:`repro.report.specs`), so both produce records
    with identical metric/timing semantics.
    """
    return ScenarioResult(
        scenario=scenario, key=scenario.key() if key is None else key,
        status="ok",
        metrics=metrics_from_plan(result),
        timings=_timings_from_plan(result),
        engine=result.engine_info(),
        stage_cache=dict(result.stage_cache),
        through=through,
        plan=result,
    )


def _execute(scenario: Scenario, through: str, cache: Optional[SolutionCache],
             n_jobs: int, prior: Optional[PlanResult] = None,
             keys: Optional[Dict[str, str]] = None) -> ScenarioResult:
    """Run one scenario through ``through``, continuing from ``prior`` (a
    result of the same scenario's earlier stages) when given.  ``keys`` are
    the scenario's stage keys if the caller already computed them."""
    key = ""
    try:
        # Key computation resolves the topology, so a bad spec surfaces here
        # as an error record (with an empty key) instead of killing the sweep.
        if keys is None:
            keys = scenario.stage_keys()
        key = keys["simulate"]
        result = Plan(scenario, cache=cache, n_jobs=n_jobs, keys=keys,
                      result=prior).run(through=through)
    except Exception as exc:  # noqa: BLE001 - captured per scenario
        return ScenarioResult(scenario=scenario, key=key, status="error",
                              error=f"{type(exc).__name__}: {exc}", exception=exc)
    return result_from_plan(scenario, result, through=through, key=key)


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
def run_scenarios(scenarios: Sequence[Scenario], through: str = "simulate",
                  cache: Optional[SolutionCache] = None) -> List[ScenarioResult]:
    """Run scenarios in order, capturing per-scenario errors."""
    return [_execute(s, through, cache, 1) for s in scenarios]


def run_sweep(scenarios: Sequence[Scenario], out_path: Optional[str] = None,
              resume: bool = False, through: str = "simulate",
              cache: Optional[SolutionCache] = None,
              workers: int = 1) -> List[ScenarioResult]:
    """Execute a sweep with streaming JSONL output and optional resume.

    Parameters
    ----------
    out_path:
        JSONL file to append one record per completed scenario to (created
        if missing).  ``None`` runs the sweep without persistence.
    resume:
        If True and ``out_path`` has records, scenarios whose key already has
        an ``ok`` record are *not* re-executed; their stored record is
        returned (``resumed=True``) in place.  Errored records are retried.
    workers:
        Worker *processes*.  With ``workers > 1`` a sweep of several
        scenarios goes to
        :func:`~repro.experiments.executor.run_sweep_workers`: one task per
        scenario, each synthesize key solved once (a first pass hands a
        shared schedule to the rest through the parent's stage cache), the
        parent appending records to ``out_path`` and finally rewriting it
        deduped and sorted by scenario hash; ``cache`` is then ignored (each
        worker process has its own caches).  A sweep of one scenario runs
        in-process and gives the workers to its child LPs instead (the
        paper's N-core child-LP pool).
    """
    scenarios = list(scenarios)
    if workers > 1 and len(scenarios) > 1:
        from .executor import run_sweep_workers

        return run_sweep_workers(scenarios, out_path=out_path, workers=workers,
                                 resume=resume, through=through)
    done: Dict[str, Dict[str, object]] = {}
    if resume and out_path and os.path.exists(out_path):
        done = completed_records([out_path], through=through)

    results: List[ScenarioResult] = []
    out_fh = _open_append(out_path) if out_path else None
    try:
        for scenario in scenarios:
            try:
                keys: Optional[Dict[str, str]] = scenario.stage_keys()
            except Exception:  # noqa: BLE001 - bad spec: let _execute record it
                keys = None
            record = done.get(keys["simulate"]) if keys else None
            if record is not None:
                results.append(ScenarioResult.from_record(scenario, record,
                                                          resumed=True))
                continue
            result = _execute(scenario, through, cache, workers, keys=keys)
            if out_fh is not None:
                out_fh.write(json.dumps(result.to_record(), sort_keys=True) + "\n")
                out_fh.flush()
            results.append(result)
        return results
    finally:
        if out_fh is not None:
            out_fh.close()


# --------------------------------------------------------------------------- #
# JSONL / CSV I/O
# --------------------------------------------------------------------------- #
def _open_append(path: str):
    """Open a sweep JSONL file for appending, healing a torn last line.

    A killed sweep can leave a final line with no newline; start a fresh
    line so the first appended record is not glued onto it.
    """
    fh = open(path, "a")
    if fh.tell() > 0:
        with open(path, "rb") as check:
            check.seek(-1, os.SEEK_END)
            if check.read(1) != b"\n":
                fh.write("\n")
    return fh


def load_results(path: str) -> List[Dict[str, object]]:
    """Parse a sweep JSONL file, skipping torn trailing lines.

    A sweep killed mid-write can leave a partial last line; treating it as
    absent (rather than failing) is what makes resume-after-kill work.
    """
    records: List[Dict[str, object]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict) and "key" in rec:
                records.append(rec)
    return records


def completed_records(paths: Sequence[str],
                      through: str = "simulate") -> Dict[str, Dict[str, object]]:
    """Resumable ``ok`` records across one or more JSONL files, deduped by key.

    The single source of resume truth for both the in-process path and the
    multiprocess executor: a scenario whose record appears twice resolves
    to one entry, so resume never re-runs it.

    Only ``ok`` records that ran at least as far as ``through`` count as
    complete (a synthesize-only record must not satisfy a simulate sweep),
    and only records from the current scenario schema layout resume at all
    (older keys are incomparable).  Resume is blind to the package version
    that wrote a record: a JSONL file is the caller's result log, and only
    the stage cache is version-salted.  Dedupe is first-wins in ``paths``
    order.
    """
    from .scenario import STAGES

    needed = STAGES.index(through)
    out: Dict[str, Dict[str, object]] = {}
    for path in paths:
        if not os.path.exists(path):
            continue
        for rec in load_results(path):
            if rec.get("schema_version") != scenario_schema_version():
                continue
            key = str(rec.get("key") or "")
            if not key or rec.get("status") != "ok":
                continue
            if rec.get("through") not in STAGES \
                    or STAGES.index(rec["through"]) < needed:
                continue
            out.setdefault(key, rec)
    return out


def write_csv(results: Iterable[ScenarioResult], path: str) -> None:
    """Flatten results to CSV (one row per scenario x buffer size).

    Scenarios without simulation points emit a single row with empty buffer
    columns, so synthesis-only sweeps still round-trip.
    """
    rows: List[Dict[str, object]] = []
    for res in results:
        base = {
            "key": res.key,
            "label": res.scenario.label(),
            "status": res.status,
            "scheme": res.scenario.scheme,
            "topology": (res.scenario.topology if isinstance(res.scenario.topology, str)
                         else res.scenario.topology.name),
            "concurrent_flow": res.metrics.get("concurrent_flow", ""),
            "all_to_all_time": res.metrics.get("all_to_all_time", ""),
            "error": res.error or "",
        }
        throughputs = res.metrics.get("throughput_bytes_per_s") or {}
        if throughputs:
            for buf, tp in throughputs.items():
                rows.append({**base, "buffer_bytes": buf, "throughput_bytes_per_s": tp})
        else:
            rows.append({**base, "buffer_bytes": "", "throughput_bytes_per_s": ""})
    fieldnames = ["key", "label", "status", "scheme", "topology", "concurrent_flow",
                  "all_to_all_time", "buffer_bytes", "throughput_bytes_per_s", "error"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def sweep_stats(results: Sequence[ScenarioResult]) -> Dict[str, object]:
    """Aggregate accounting across a sweep (for the CLI stats footer)."""
    totals = {"scenarios": len(results),
              "ok": sum(1 for r in results if r.status == "ok"),
              "errors": sum(1 for r in results if r.status == "error"),
              "resumed": sum(1 for r in results if r.resumed),
              "assemble_seconds": 0.0, "solve_seconds": 0.0,
              "stage_hits": 0, "stage_misses": 0}
    for res in results:
        if not res.resumed:
            # Resumed records carry the *original* run's timings; summing them
            # here would report solver work this run never did.
            totals["assemble_seconds"] += float(res.timings.get("assemble_seconds", 0.0))
            totals["solve_seconds"] += float(res.timings.get("solve_seconds", 0.0))
        for status in res.stage_cache.values():
            if status == "hit":
                totals["stage_hits"] += 1
            elif status == "miss":
                totals["stage_misses"] += 1
    return totals
