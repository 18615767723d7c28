"""The end-to-end benchmark's workloads: four user-facing runs of the pipeline.

Each workload is what one ``repro`` subcommand does, driven through the same
library calls the CLI makes (README.md says why each was chosen):

* ``setup`` — imports, input generation from the seed, and any schedule
  set-up the run needs; excluded from the timed phase;
* ``run(label)`` — the timed call a user waits for, writing its files under
  ``label``.  The benchmark calls it once cold, then replays it warm after
  :func:`drop_memory_tiers`, so each replay reads the disk cache the cold
  pass filled, as a second ``repro`` process with the same
  ``REPRO_CACHE_DIR`` would;
* ``check`` — output checks on one pass, one message per failed operation
  (scenario, trace, timeline or candidate failure set); failed input checks
  collect in ``input_failures``;
* ``fingerprint`` — what a warm replay must reproduce exactly;
* ``values`` — the deterministic results compared against ``expected/``.

The seed only changes generated inputs, never program settings.  ``repro``
is imported inside ``setup`` so that its import time counts as set-up.
``toy`` shrinks every input for the self-test.
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_TABLE1 = ROOT / "tests" / "golden" / "table1_forwarding.txt"
MIB = float(2 ** 20)
#: Slowdowns are ratios of two simulated times; allow float round-off below 1.
SLOWDOWN_FLOOR = 1.0 - 1e-9


def drop_memory_tiers() -> None:
    """Empty the program's in-memory LP and stage caches; their disk tier stays.

    These two caches are the only state ``repro`` keeps between calls, so a
    call made after this reads what a fresh process would read.
    """
    from repro.engine import get_engine
    from repro.experiments import get_plan_cache

    get_engine().cache.clear()
    get_plan_cache().clear()


class Workload:
    """One named, seeded, self-checking run of the pipeline.

    Subclasses implement ``setup``, ``run``, ``check``, ``fingerprint`` and
    ``values`` as described in the module docstring, and set ``ops`` to the
    number of operations one pass attempts.
    """

    name = ""
    #: Whether ``--seed`` changes the inputs (the paper's grid is fixed).
    seeded = True
    #: Per-layer time metrics a traced run of this workload must show.
    exercises: Tuple[str, ...] = ()

    def __init__(self, seed: int, toy: bool, work: Path) -> None:
        self.seed = seed
        self.toy = toy
        self.work = work
        self.rng = random.Random(seed)
        self.input_failures: List[str] = []
        self.ops = 0

    def expect_nodes(self, spec: str, nodes: int) -> None:
        """Input check: a spec must build the size it names (unknown keys are ignored)."""
        from repro.topology import from_spec

        built = from_spec(spec).num_nodes
        if built != nodes:
            self.input_failures.append(f"{spec} builds {built} nodes, expected {nodes}")

    def sweep(self, scenarios, label: str, **kwargs):
        """``run_sweep`` over ``scenarios``, to the JSONL file named by ``label``."""
        from repro.experiments import run_sweep

        return run_sweep(scenarios, out_path=str(self.work / f"{label}.jsonl"), **kwargs)


def _sweep_failures(results) -> List[str]:
    return [f"{res.scenario.label()}: {res.error}"
            for res in results if res.status != "ok"]


def _metrics(results) -> List[dict]:
    return [res.metrics for res in results]


# --------------------------------------------------------------------------- #
class PaperReport(Workload):
    """``repro report``: all seven artifacts of the paper."""

    name = "paper-report"
    seeded = False
    exercises = ("topology.build_s", "paths.s", "core.synth_s", "core.assemble_s",
                 "baselines.s", "engine.solve_s", "engine.lp_solve_s", "engine.cache_get_s",
                 "engine.cache_put_s", "schedule.lower_s", "schedule.validate_s",
                 "simulator.compile_s", "simulator.loop_s", "perf.fill_s", "perf.delta_s",
                 "cluster.loop_s", "faults.loop_s", "experiments.sweep_s",
                 "report.aggregate_s", "report.render_s")

    def setup(self) -> None:
        import repro.report

        self.report = repro.report
        self.golden = GOLDEN_TABLE1.read_text()

    def run(self, label: str):
        summary = self.report.generate_report(out_dir=str(self.work / label), fast=self.toy)
        self.ops = sum(sr.num_scenarios for sr in summary.spec_results)
        return summary

    def check(self, out) -> List[str]:
        failures = [f"{sr.spec_id}: {error}" for sr in out.spec_results for error in sr.errors]
        by_id = {sr.spec_id: sr for sr in out.spec_results}
        if "\n\n".join(t.text for t in by_id["table1"].tables) + "\n" != self.golden:
            failures.append(f"table1 differs from {GOLDEN_TABLE1.relative_to(ROOT)}")
        for table in by_id["fig10"].tables:
            failures.extend(f"fig10 {table.name} {row[0]}: ratio {row[3]} < 1"
                            for row in table.rows if not row[3] >= 1.0)
        return failures

    def fingerprint(self, out):
        # fig7 tabulates wall-clock synthesis times.
        return {(sr.spec_id, t.name): t.text
                for sr in out.spec_results if sr.spec_id != "fig7" for t in sr.tables}

    def values(self, out) -> Dict[str, float]:
        values = {}
        for sr in out.spec_results:
            if sr.spec_id == "fig7":
                continue
            for table in sr.tables:
                for r, row in enumerate(table.rows):
                    for c, cell in enumerate(row):
                        if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                            values[f"{sr.spec_id}/{table.name}/{r}/{c}"] = float(cell)
        return values


# --------------------------------------------------------------------------- #
class Sweep(Workload):
    """``repro sweep --workers 2``: a scenario grid over seeded random-regular graphs."""

    name = "sweep"
    SCHEMES = ("mcf-extp", "ewsp", "sssp", "pmcf-disjoint")
    BUFFERS = (2.0 ** 16, 2.0 ** 18, 2.0 ** 20, 2.0 ** 22)
    WORKERS = 2
    exercises = ("topology.build_s", "paths.s", "core.synth_s", "core.assemble_s",
                 "engine.lp_solve_s", "engine.cache_get_s", "engine.cache_put_s",
                 "schedule.lower_s", "schedule.validate_s", "simulator.compile_s",
                 "simulator.loop_s", "perf.fill_s", "experiments.sweep_s",
                 "experiments.wait_s")

    def setup(self) -> None:
        from repro.experiments import Scenario

        if self.toy:
            draws, degree, size, fixed = 1, 3, 8, {"hypercube:dim=3": 8}
            schemes, buffers = self.SCHEMES[:2], self.BUFFERS[:2]
        else:
            # Many small graphs: the cost of one random-regular graph varies
            # with its draw, and the sum of 40 small ones varies the least
            # per second of work (README.md, "Run-to-run spread").
            draws, degree, size = 40, 3, 12
            fixed = {"torus:dims=4x4": 16, "hypercube:dim=4": 16, "genkautz:d=4,n=20": 20}
            schemes, buffers = self.SCHEMES, self.BUFFERS
        self.nodes = {f"rrg:d={degree},n={size},seed={self.rng.randrange(2 ** 31)}": size
                      for _ in range(draws)}
        self.nodes.update(fixed)
        for spec, nodes in self.nodes.items():
            self.expect_nodes(spec, nodes)
        # max_denominator=16 would fail to quantize ewsp on the 4x4 torus and
        # the 4-cube; 64 lowers every scheme on every topology here.
        self.scenarios = [Scenario(topology=spec, scheme=scheme, buffers=buffers,
                                   max_denominator=64)
                          for spec in self.nodes for scheme in schemes]
        self.ops = len(self.scenarios)

    def run(self, label: str):
        return self.sweep(self.scenarios, label, workers=self.WORKERS)

    def check(self, out) -> List[str]:
        failures = _sweep_failures(out)
        failures.extend(f"{res.scenario.label()}: {res.metrics.get('num_nodes')} nodes"
                        for res in out if res.status == "ok"
                        and res.metrics.get("num_nodes") != self.nodes[res.scenario.topology])
        return failures

    def fingerprint(self, out):
        return _metrics(out)

    def values(self, out) -> Dict[str, float]:
        values = {}
        for res in out:
            label = res.scenario.label()
            values[f"{label}/concurrent_flow"] = float(res.metrics["concurrent_flow"])
            for buf, seconds in res.metrics["completion_seconds"].items():
                values[f"{label}/completion_seconds/{buf}"] = float(seconds)
        return values


# --------------------------------------------------------------------------- #
class Cluster(Workload):
    """``repro cluster``: seeded Poisson multi-job traces on one MCF-extP schedule."""

    name = "cluster"
    exercises = ("simulator.compile_s", "simulator.loop_s", "perf.fill_s",
                 "perf.workspace_s", "cluster.loop_s", "experiments.sweep_s",
                 "engine.cache_get_s")

    def setup(self) -> None:
        from repro.experiments import Plan, Scenario

        # Many short traces: their summed cost varies the least from seed to
        # seed per second of work (README.md, "Run-to-run spread").
        topology, nodes, self.jobs, traces = (("torus:dims=3x3", 9, 3, 2) if self.toy
                                              else ("torus:dims=4x4", 16, 4, 20))
        self.expect_nodes(topology, nodes)
        base = {"topology": topology, "scheme": "mcf-extp", "buffers": (MIB,)}
        # The schedule every trace shares: its LP solve and lowering are
        # set-up, so the timed phase only simulates.
        Plan(Scenario(**base)).run("validate")
        self.scenarios = [
            Scenario(**base, cluster=(f"cluster:jobs={self.jobs}:arrival=poisson~8000:"
                                      f"placement=random:seed={self.rng.randrange(2 ** 31)}"))
            for _ in range(traces)]
        self.ops = len(self.scenarios)

    def run(self, label: str):
        return self.sweep(self.scenarios, label)

    def check(self, out) -> List[str]:
        failures = _sweep_failures(out)
        for res in out:
            if res.status != "ok":
                continue
            m = res.metrics
            slowdowns = list(m["job_slowdowns"].values())
            finished = [t for t in m["job_completion_seconds"].values()
                        if math.isfinite(t) and t > 0]
            if m["cluster_jobs"] != self.jobs or len(finished) != self.jobs:
                failures.append(f"{res.scenario.cluster}: {len(finished)} of {self.jobs} "
                                "jobs completed")
            elif not all(s >= SLOWDOWN_FLOOR for s in slowdowns):
                failures.append(f"{res.scenario.cluster}: slowdown {min(slowdowns)} < 1")
        return failures

    def fingerprint(self, out):
        return _metrics(out)

    def values(self, out) -> Dict[str, float]:
        values = {}
        for i, res in enumerate(out):
            m = res.metrics
            values[f"trace{i}/makespan_seconds"] = float(m["makespan_seconds"])
            values[f"trace{i}/fabric_utilization"] = float(m["fabric_utilization"])
            for job, slowdown in m["job_slowdowns"].items():
                values[f"trace{i}/job{job}/slowdown"] = float(slowdown)
        return values


# --------------------------------------------------------------------------- #
def _flapping(link: Tuple[int, int], flaps: int) -> str:
    """One physical link flapping: ``flaps`` down/up pairs, 7 us apart."""
    u, v = link
    events = []
    for i in range(flaps):
        t = 10 + 7 * i
        events += [f"down={u}~{v}@{t}us", f"up@{t + 4}us"]
    return "faults:" + ":".join(events)


class Robustness(Workload):
    """``repro robustness``: flapping-link timelines plus an adversarial search."""

    name = "robustness"
    exercises = ("simulator.compile_s", "simulator.loop_s", "perf.fill_s", "perf.delta_s",
                 "faults.loop_s", "faults.reroute_s", "experiments.sweep_s")

    def setup(self) -> None:
        from repro.experiments import Plan, Scenario

        topology, nodes, flaps, timelines = (("torus:dims=3x3", 9, 2, 2) if self.toy
                                             else ("torus:dims=4x4", 16, 20, 8))
        self.k, self.candidates = (1, 3) if self.toy else (2, 12)
        self.expect_nodes(topology, nodes)
        base = {"topology": topology, "scheme": "mcf-extp", "buffers": (MIB,)}
        scenario = Scenario(**base)
        self.lowered = Plan(scenario).run("validate").lowered
        self.fabric = scenario.resolved_fabric()
        links = sorted({(min(u, v), max(u, v)) for u, v in self.lowered.topology.edges})
        self.scenarios = [Scenario(**base, faults=_flapping(self.rng.choice(links), flaps))
                          for _ in range(timelines)]
        self.sets = math.comb(self.candidates, self.k)
        self.ops = len(self.scenarios) + self.sets

    def run(self, label: str):
        from repro.faults import worst_case_failures

        results = self.sweep(self.scenarios, label)
        search = worst_case_failures(self.lowered, MIB, k=self.k, fabric=self.fabric,
                                     candidates=self.candidates, mode="exhaustive")
        return results, search

    def check(self, out) -> List[str]:
        results, search = out
        failures = _sweep_failures(results)
        for res in results:
            slowdown = res.metrics.get("robustness_slowdown", math.nan)
            if res.status == "ok" and not (math.isfinite(slowdown)
                                           and slowdown >= SLOWDOWN_FLOOR):
                failures.append(f"{res.scenario.faults}: slowdown {slowdown}")
        full = [ev for ev in search.evaluations if len(ev["links"]) == self.k]
        if len(full) != self.sets:
            failures.append(f"adversarial search evaluated {len(full)} of {self.sets} sets")
        failures.extend(f"down={ev['links']}: slowdown {ev['slowdown']}" for ev in full
                        if ev["stranded"] or not ev["slowdown"] >= SLOWDOWN_FLOOR)
        return failures

    def fingerprint(self, out):
        return _metrics(out[0]), self.values(out)

    def values(self, out) -> Dict[str, float]:
        results, search = out
        values = {}
        for i, res in enumerate(results):
            m = res.metrics
            values[f"timeline{i}/robustness_slowdown"] = float(m["robustness_slowdown"])
            values[f"timeline{i}/reroute_count"] = float(m["reroute_count"])
            values[f"timeline{i}/fault_events"] = float(m["fault_events"])
        values["adversarial/worst_slowdown"] = float(search.worst_slowdown)
        for ev in search.evaluations:
            links = "|".join(f"{u}~{v}" for u, v in ev["links"])
            values[f"adversarial/{links}/slowdown"] = float(ev["slowdown"])
        return values


WORKLOADS = {cls.name: cls for cls in (PaperReport, Sweep, Cluster, Robustness)}
