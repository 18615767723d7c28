"""Tests for the multi-job cluster co-simulation layer (``repro.cluster``).

Covers the trace-spec grammar, placement permutations, barrier ordering,
the zero-contention differential against the single-collective engine,
seeded determinism of Poisson traces, and the cluster axis of the
declarative scenario/sweep stack (hash stability, record metrics).
"""

import json
import random
import re
from collections import deque

import networkx as nx
import pytest

from repro.cluster import (
    PLACEMENT_POLICIES,
    RoutePlacer,
    arrival_times,
    parse_cluster_spec,
    placement_permutation,
    run_cluster,
)
from repro.experiments import Scenario
from repro.simulator import cerio_hpc_fabric, run_routed_collective
from repro.topology import from_spec
from repro.topology.base import Topology

BUF = float(2 ** 20)


# --------------------------------------------------------------------------- #
# Trace-spec grammar
# --------------------------------------------------------------------------- #
class TestTraceSpec:
    def test_defaults(self):
        spec = parse_cluster_spec("cluster:jobs=4")
        assert spec.jobs == 4
        assert spec.arrival == "fixed" and spec.rate == 0.0
        assert spec.placement == "packed"
        assert spec.seed == 0 and spec.rounds == 1 and spec.compute == 0.0
        assert spec.buffer is None

    def test_full_spec_round_trips_canonically(self):
        a = parse_cluster_spec("cluster:jobs=8:arrival=poisson~0.1"
                               ":placement=spread:seed=7:rounds=2"
                               ":compute=0.5:buffer=1048576")
        b = parse_cluster_spec("cluster:buffer=1048576:compute=0.5:rounds=2"
                               ":seed=7:placement=spread"
                               ":arrival=poisson~0.1:jobs=8")
        assert a == b
        assert a.canonical() == b.canonical()

    def test_trace_arrivals_verbatim(self):
        spec = parse_cluster_spec("cluster:jobs=3:arrival=trace~0|0.5|2.25")
        assert arrival_times(spec) == (0.0, 0.5, 2.25)

    def test_fixed_arrivals_are_multiples(self):
        spec = parse_cluster_spec("cluster:jobs=3:arrival=fixed~2.0")
        assert arrival_times(spec) == (0.0, 2.0, 4.0)

    def test_poisson_arrivals_seeded(self):
        spec = parse_cluster_spec("cluster:jobs=6:arrival=poisson~10:seed=3")
        first = arrival_times(spec)
        assert first == arrival_times(spec)  # same seed, same draw
        other = parse_cluster_spec("cluster:jobs=6:arrival=poisson~10:seed=4")
        assert first != arrival_times(other)
        assert all(b >= a for a, b in zip(first, first[1:]))  # cumulative

    @pytest.mark.parametrize("bad", [
        "overlap:jobs=4",                       # wrong prefix
        "cluster",                              # jobs missing
        "cluster:arrival=poisson~1",            # jobs missing
        "cluster:jobs=0",                       # jobs < 1
        "cluster:jobs=4:arrival=poisson~0",     # rate must be > 0
        "cluster:jobs=4:arrival=uniform~1",     # unknown process
        "cluster:jobs=2:arrival=trace~0",       # one time for two jobs
        "cluster:jobs=2:arrival=trace~3|1",     # decreasing times
        "cluster:jobs=4:placement=diagonal",    # unknown policy
        "cluster:jobs=4:rounds=0",              # rounds < 1
        "cluster:jobs=4:compute=-1",            # negative compute
        "cluster:jobs=4:buffer=0",              # buffer must be > 0
        "cluster:jobs=4:jobs=5",                # duplicate key
        "cluster:jobs=4:flavor=mild",           # unknown key
        "cluster:jobs=2:arrival=fixed~inf",     # non-finite numbers
        "cluster:jobs=2:arrival=poisson~inf",
        "cluster:jobs=2:arrival=trace~0|inf",
        "cluster:jobs=2:compute=inf",
        "cluster:jobs=2:buffer=inf",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_cluster_spec(bad)



# --------------------------------------------------------------------------- #
# Placement
# --------------------------------------------------------------------------- #
class TestPlacement:
    def test_packed_is_identity(self):
        assert placement_permutation("packed", 3, 8, 4) == tuple(range(8))

    def test_spread_rotates_per_job(self):
        p0 = placement_permutation("spread", 0, 8, 4)
        p1 = placement_permutation("spread", 1, 8, 4)
        assert p0 == tuple(range(8))
        assert p1 == tuple((i + 2) % 8 for i in range(8))  # 8 // 4 = 2 stride

    def test_random_is_a_seeded_permutation(self):
        p = placement_permutation("random", 2, 8, 4, seed=5)
        assert sorted(p) == list(range(8))
        assert p == placement_permutation("random", 2, 8, 4, seed=5)
        assert p != placement_permutation("random", 2, 8, 4, seed=6)

    def test_policies_exported(self):
        assert set(PLACEMENT_POLICIES) == {"packed", "spread", "random"}
        with pytest.raises(ValueError):
            placement_permutation("diagonal", 0, 8, 4)


def _place_per_hop(route, perm, topology):
    """Placement as it was: one early-exit BFS per repaired hop."""
    def shortest(src, dst):
        prev = {src: None}
        frontier = deque([src])
        while frontier:
            u = frontier.popleft()
            if u == dst:
                break
            for v in topology.successors(u):
                if v not in prev:
                    prev[v] = u
                    frontier.append(v)
        path = [dst]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        return tuple(reversed(path))

    mapped = [perm[v] for v in route]
    out = [mapped[0]]
    for v in mapped[1:]:
        if out[-1] == v:
            continue
        if topology.has_edge(out[-1], v):
            out.append(v)
        else:
            out.extend(shortest(out[-1], v)[1:])
    return tuple(out)


class TestRoutePlacer:
    """One BFS tree per source places routes exactly as per-hop BFS did."""

    @pytest.mark.parametrize("spec", ["torus:dims=4x4", "rrg:d=3,n=12,seed=2",
                                      "genkautz:d=3,n=10"])
    def test_matches_per_hop_bfs_on_random_permutations(self, spec):
        topology = from_spec(spec)
        n = topology.num_nodes
        rng = random.Random(spec)
        paths = dict(nx.all_pairs_shortest_path(topology.graph))
        routes = [tuple(paths[s][d]) for s in range(n) for d in range(n)
                  if s != d]
        # Random walks too: longer routes that revisit nodes.
        for _ in range(100):
            walk = [rng.randrange(n)]
            for _ in range(rng.randint(1, 5)):
                walk.append(rng.choice(topology.successors(walk[-1])))
            routes.append(tuple(walk))
        placer = RoutePlacer(topology)
        repaired = 0
        for job in range(6):
            perm = placement_permutation("random", job, n, 6,
                                         seed=rng.randrange(1000))
            for route in routes:
                placed = placer.place(route, perm)
                assert placed == _place_per_hop(route, perm, topology)
                repaired += len(placed) > len(route)
        assert repaired > 0
        identity = tuple(range(n))
        assert all(placer.place(r, identity) == r for r in routes)

    def test_no_path_raises(self):
        graph = nx.DiGraph()
        graph.add_nodes_from(range(4))
        for u, v in ((0, 1), (2, 3)):
            graph.add_edge(u, v, cap=1.0)
            graph.add_edge(v, u, cap=1.0)
        placer = RoutePlacer(Topology(name="two-pairs", graph=graph))
        assert placer.place((0, 1), (0, 1, 2, 3)) == (0, 1)
        with pytest.raises(ValueError, match="no path from node 0 to node 2"):
            placer.place((0, 1), (0, 2, 1, 3))


# --------------------------------------------------------------------------- #
# Co-simulation semantics
# --------------------------------------------------------------------------- #
class TestRunCluster:
    def test_link_schedule_rejected(self, cube3_link_schedule):
        with pytest.raises(ValueError, match="routed"):
            run_cluster(cube3_link_schedule, "cluster:jobs=2",
                        default_buffer=BUF)

    def test_requires_a_buffer(self, genkautz_routed_schedule):
        with pytest.raises(ValueError, match=re.escape(
                "cluster spec has no buffer= field and no scenario buffer to "
                "fall back on; set buffer= in the trace spec or give the "
                "scenario a non-empty buffers tuple")):
            run_cluster(genkautz_routed_schedule, "cluster:jobs=2")
        result = run_cluster(genkautz_routed_schedule, "cluster:jobs=2",
                             default_buffer=BUF)
        assert len(result.jobs) == 2

    def test_zero_contention_matches_isolated_engine(
            self, genkautz_routed_schedule):
        """A lone job must complete exactly like the single-collective run."""
        fabric = cerio_hpc_fabric()
        isolated = run_routed_collective(genkautz_routed_schedule, BUF,
                                         fabric=fabric)
        result = run_cluster(genkautz_routed_schedule, "cluster:jobs=1",
                             fabric=fabric, default_buffer=BUF)
        job = result.jobs[0]
        assert job.completion_seconds == pytest.approx(
            isolated.completion_time, abs=1e-9)
        assert job.slowdown == pytest.approx(1.0, abs=1e-9)

    def test_spaced_arrivals_have_unit_slowdown(self, genkautz_routed_schedule):
        """Arrivals far apart never share the fabric: slowdown stays 1."""
        result = run_cluster(genkautz_routed_schedule,
                             "cluster:jobs=3:arrival=fixed~10",
                             default_buffer=BUF)
        for job in result.jobs:
            assert job.slowdown == pytest.approx(1.0, abs=1e-9)
        assert result.makespan_seconds > 20.0  # last arrival at t=20

    def test_contention_slows_jobs_down(self, genkautz_routed_schedule):
        """Simultaneous arrivals share bandwidth; slowdown must exceed 1."""
        result = run_cluster(genkautz_routed_schedule, "cluster:jobs=4",
                             default_buffer=BUF)
        assert all(job.slowdown > 1.0 + 1e-6 for job in result.jobs)
        assert 0.0 < result.fabric_utilization <= 1.0 + 1e-9

    def test_barriers_order_phase_spans(self, genkautz_routed_schedule):
        result = run_cluster(
            genkautz_routed_schedule,
            "cluster:jobs=2:rounds=2:compute=0.001",
            default_buffer=BUF)
        for job in result.jobs:
            kinds = [kind for kind, _, _ in job.phase_spans]
            assert kinds == ["compute", "comm", "compute", "comm"]
            previous_end = job.arrival
            for kind, start, end in job.phase_spans:
                assert start == pytest.approx(previous_end, abs=1e-12)
                assert end >= start
                previous_end = end
            assert previous_end == pytest.approx(job.finish, abs=1e-12)
            compute_spans = [s for s in job.phase_spans if s[0] == "compute"]
            for _, start, end in compute_spans:
                assert end - start == pytest.approx(0.001, abs=1e-12)

    def test_seeded_poisson_run_is_deterministic(self, genkautz_routed_schedule):
        """Same seed -> byte-identical result payload across fresh runs."""
        trace = "cluster:jobs=5:arrival=poisson~2000:seed=11"

        def payload():
            result = run_cluster(genkautz_routed_schedule, trace,
                                 default_buffer=BUF)
            return json.dumps({
                "slowdowns": result.slowdowns,
                "makespan": result.makespan_seconds,
                "utilization": result.fabric_utilization,
                "spans": [job.phase_spans for job in result.jobs],
                "meta": {k: v for k, v in result.meta.items()},
            }, sort_keys=True)

        assert payload() == payload()

    def test_placement_changes_outcome_but_stays_valid(
            self, genkautz_routed_schedule):
        for policy in PLACEMENT_POLICIES:
            result = run_cluster(
                genkautz_routed_schedule,
                f"cluster:jobs=3:placement={policy}:seed=2",
                default_buffer=BUF)
            assert len(result.jobs) == 3
            assert all(job.slowdown >= 1.0 - 1e-9 for job in result.jobs)


# --------------------------------------------------------------------------- #
# Scenario / sweep integration
# --------------------------------------------------------------------------- #
class TestInjectorLazyRetire:
    """The arena deactivates completed rows and compacts only lazily."""

    def _run(self, drained):
        from repro.cluster.injector import FlowInjector
        from repro.simulator import FluidFlow, FluidRun
        from repro.topology import hypercube

        run = FluidRun(FlowInjector(hypercube(3), cerio_hpc_fabric()))
        for name, mask in (("batch0", 1), ("batch1", 2)):
            run.inject([FluidFlow(path=(s, s ^ mask),
                                  size_bytes=float((s + 1) * 4096))
                        for s in range(8)], name,
                       on_done=lambda t, name=name: drained.append(name))
        run.run(until=1e-9)         # first fill; nothing finishes this early
        return run

    @staticmethod
    def _step(run, finish=None):
        """Advance 1 ns, finishing the ``finish`` rows on the way."""
        if finish is not None:
            run.remaining[finish] = 0.0
        run.run(until=run.now + 1e-9)

    def test_retire_is_lazy_then_compacts(self):
        drained = []
        run = self._run(drained)
        arena = run.arena
        assert arena.num_flows == 16
        program_before = arena.program
        # Finish 6 of 16: dead (6) < live (10) -> rows deactivate, arrays keep
        # their length and the program view stays warm.
        self._step(run, finish=slice(0, 6))
        assert int(run.active.sum()) == 10
        assert arena.num_flows == 16
        assert arena.program is program_before
        assert len(run.remaining) == 16
        # Dead rows fill at rate zero and are never retired twice.
        self._step(run)
        assert (run.rates[:6] == 0.0).all() and (run.rates[6:] > 0).all()
        assert drained == []
        # Finish 6 more: dead (12) > live (4) -> wholesale compaction.
        self._step(run, finish=slice(6, 12))
        assert drained == ["batch0"]
        assert arena.num_flows == 4
        assert len(run.remaining) == 4
        self._step(run)
        assert (run.rates > 0).all()

    def test_inject_after_lazy_retire_appends_past_dead_rows(self):
        from repro.simulator import FluidFlow

        run = self._run([])
        self._step(run, finish=slice(0, 4))
        assert int(run.active.sum()) == 12
        run.inject([FluidFlow(path=(0, 1), size_bytes=4096.0)], "late",
                   on_done=lambda t: None)
        assert int(run.active.sum()) == 13
        self._step(run)
        assert run.rates[-1] > 0 and (run.rates[:4] == 0.0).all()


class TestClusterScenario:
    TRACE = "cluster:jobs=4:arrival=poisson~2000:placement=packed:seed=0"

    def _scenario(self, trace=TRACE, **kwargs):
        return Scenario(topology="genkautz:d=3,n=10", scheme="mcf-extp",
                        buffers=(BUF,), cluster=trace, **kwargs)

    def test_hash_is_param_order_invariant(self):
        reordered = ("cluster:seed=0:placement=packed"
                     ":arrival=poisson~2000:jobs=4")
        assert self._scenario().key() == self._scenario(trace=reordered).key()

    def test_cluster_only_affects_simulate_stage(self):
        with_cluster = self._scenario()
        without = Scenario(topology="genkautz:d=3,n=10", scheme="mcf-extp",
                           buffers=(BUF,))
        assert (with_cluster.stage_key("synthesize")
                == without.stage_key("synthesize"))
        assert (with_cluster.stage_key("lower") == without.stage_key("lower"))
        assert (with_cluster.stage_key("simulate")
                != without.stage_key("simulate"))

    def test_different_traces_hash_differently(self):
        other = self._scenario(trace=self.TRACE.replace("seed=0", "seed=1"))
        assert self._scenario().key() != other.key()

    def test_invalid_trace_rejected_eagerly(self):
        with pytest.raises(ValueError):
            self._scenario(trace="cluster:jobs=0")

    def test_cluster_excludes_overlap(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            self._scenario(overlap=2)

    def test_sweep_record_carries_cluster_metrics(self, tmp_path):
        from repro.experiments import run_sweep

        out = tmp_path / "cluster.jsonl"
        summaries = run_sweep([self._scenario()], str(out))
        assert len(summaries) == 1 and summaries[0].status == "ok"
        (record,) = [json.loads(line) for line in out.open()]
        metrics = record["metrics"]
        assert metrics["cluster_jobs"] == 4
        assert metrics["makespan_seconds"] > 0
        assert metrics["job_slowdown_p50"] >= 1.0 - 1e-9
        assert metrics["job_slowdown_p99"] >= metrics["job_slowdown_p50"]
        assert 0.0 < metrics["fabric_utilization"] <= 1.0 + 1e-9
        assert set(metrics["job_slowdowns"]) == {"0", "1", "2", "3"}
        assert set(metrics["job_completion_seconds"]) == {"0", "1", "2", "3"}
        assert metrics["sim_fill_rounds"] >= 1 and metrics["sim_events"] >= 1
        assert record["scenario"]["cluster"] == self.TRACE

    def test_fig_cluster_registered(self):
        from repro.report import REGISTRY

        spec = REGISTRY["fig_cluster"]
        scenarios = spec.scenarios(fast=True)
        assert scenarios  # fast grid is non-empty
        assert all(s.cluster is not None and s.cluster.startswith("cluster:")
                   for s in scenarios)
        assert all(s.name.startswith("fig_cluster/") for s in scenarios)


# --------------------------------------------------------------------------- #
# repro cluster
# --------------------------------------------------------------------------- #
class TestClusterCli:
    """``repro cluster``: one table row per trace, resume, error rows."""

    TRACES = ["cluster:jobs=2:seed=0", "cluster:jobs=2:arrival=poisson~8000:seed=1"]

    @staticmethod
    def _statuses(out):
        """Trace -> status, read from the table rows below the header rule."""
        lines = out.splitlines()
        rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
        rows = [line.split() for line in lines[rule + 1:]]
        return {row[0]: row[1] for row in rows if row and row[0].startswith("cluster:")}

    def test_one_row_per_trace_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cluster.jsonl"
        argv = ["cluster", "hypercube:dim=2", "--trace", self.TRACES[0],
                "--trace", self.TRACES[1], "--out", str(out)]
        assert main(argv) == 0
        assert self._statuses(capsys.readouterr().out) == dict.fromkeys(self.TRACES, "ok")
        assert len(out.read_text().splitlines()) == 2
        assert main(argv + ["--resume"]) == 0
        assert (self._statuses(capsys.readouterr().out)
                == dict.fromkeys(self.TRACES, "resumed"))
        assert len(out.read_text().splitlines()) == 2

    def test_link_schedule_is_an_error_row(self, capsys):
        from repro.cli import main

        trace = "cluster:jobs=4:arrival=poisson~2000:placement=packed:seed=0"
        assert main(["cluster", "hypercube:dim=2", "--scheme", "tsmcf",
                     "--fabric", "ml"]) == 1
        out = capsys.readouterr().out
        assert self._statuses(out) == {trace: "error"}
        assert (f"error: {trace}: ValueError: cluster co-simulation supports "
                "routed") in out
