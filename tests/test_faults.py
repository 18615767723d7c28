"""Tests for dynamic fabric failures with online rerouting (repro.faults).

The heart is the differential oracle: every faulted run must agree (1e-9)
with a hand-stitched sequence of piecewise-static degraded runs — the fabric
materialized per fault epoch, residual bytes carried across the boundary,
rates from the retained scalar reference (:mod:`repro.simulator.reference`).
Around it: the per-epoch arena against fresh compiles, the reroute cache
against uncached repair and certification, zero-fault byte-identity with
today's engine, seeded fuzz invariants (monotonicity under added failures,
no-op recoveries, canonical hashing, the per-epoch incidence check),
spec-grammar errors, adversarial search determinism, and the
scenario/sweep/CLI wiring.
"""

import dataclasses
import pickle
import random
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro import obs
from repro.constants import SIM_BYTES_EPS, SIM_EPS
from repro.experiments import (Plan, Scenario, configure_plan_cache,
                               get_plan_cache, reset_plan_cache, run_sweep)
from repro.faults import (
    FaultSpec,
    PreparedFaultContext,
    RerouteCache,
    StrandedScheduleError,
    capture_fault_prefix,
    parse_fault_spec,
    ranked_physical_links,
    repair_path,
    run_faulted,
    surviving_adjacency,
    worst_case_failures,
)
from repro.faults.adversarial import search_key
from repro.faults.runner import _result, _start
from repro.faults.spec import FaultEvent, FaultTimeline
from repro.faults.reroute import certify_routes, effective_path
from repro.schedule import Chunk, RoutedSchedule
from repro.simulator import (
    FabricModel,
    FluidFlow,
    cerio_hpc_fabric,
    fabric_from_spec,
    run_routed_collective,
)
from repro.simulator.reference import max_min_rates_reference
from repro.topology import from_spec

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def stage_cache_off():
    """Turn the stage cache off for one test, so that every adversarial
    search computes instead of reading an earlier search's result."""
    cache = get_plan_cache()
    enabled = cache.enabled
    configure_plan_cache(enabled=False)
    yield
    cache.enabled = enabled

def _lowered(topology: str, scheme: str = "ewsp"):
    """Synthesize + lower one scenario to its RoutedSchedule."""
    return Plan(Scenario(topology=topology, scheme=scheme,
                         max_denominator=16)).run("lower").lowered


def _resumed(context, buffer_bytes, spec, baseline_seconds, prefix,
             allow_stranded=True):
    """``run_faulted`` of ``spec`` resumed from a captured ``prefix``: the
    sequential reference of ``run_faulted_lockstep``."""
    faulted = _start(context, buffer_bytes, spec, False, prefix)
    faulted.run.run()
    return _result(faulted, buffer_bytes, baseline_seconds, allow_stranded)


def piecewise_static_oracle(schedule, buffer_bytes, spec, fabric):
    """Hand-stitched oracle: one static scalar run per fault epoch.

    Materializes the effective fabric at every epoch boundary, recomputes
    each survivor's route (original if clear, BFS repair otherwise), and
    advances the scalar reference's progressive-filling loop inside the
    epoch, carrying residual bytes across boundaries.  Stranded flows park.
    Mirrors the engine's thresholds (SIM_EPS / SIM_BYTES_EPS) and its
    latency rule: completion latency from the *originally planned* route.
    """
    spec = parse_fault_spec(spec) if isinstance(spec, str) else spec
    timeline = FaultTimeline(spec)
    topo = schedule.topology
    edges = tuple(topo.edges)
    shard = buffer_bytes / topo.num_nodes
    orig = [tuple(a.route) for a in schedule.assignments]
    sizes = [a.chunk.bytes(shard) for a in schedule.assignments]
    delays = [fabric.per_message_overhead + (len(p) - 1) * fabric.per_hop_latency
              for p in orig]
    remaining = list(sizes)
    completion = [0.0 if sizes[i] > SIM_EPS else delays[i]
                  for i in range(len(orig))]
    active = {i for i in range(len(orig)) if sizes[i] > SIM_EPS}

    now = 0.0
    epoch_times = [0.0] + list(timeline.epochs)
    for idx, t0 in enumerate(epoch_times):
        t_next = (epoch_times[idx + 1] if idx + 1 < len(epoch_times)
                  else float("inf"))
        epoch_fabric = timeline.fabric_at(fabric, t0, edges)
        down = set(epoch_fabric.down_links)
        adjacency = surviving_adjacency(topo, down)
        paths = {}
        for i in sorted(active):
            paths[i] = effective_path(orig[i], down, adjacency)
        while True:
            live = [i for i in sorted(active) if paths[i] is not None]
            if not live:
                break
            flows = [FluidFlow(path=paths[i], size_bytes=remaining[i])
                     for i in live]
            rates = max_min_rates_reference(flows, list(range(len(live))),
                                            topo, epoch_fabric)
            dts = [remaining[i] / rates[j] for j, i in enumerate(live)
                   if rates[j] > SIM_EPS]
            if not dts:
                raise RuntimeError("oracle stalled: live flows have zero rate")
            dt = min(min(dts), t_next - now)
            for j, i in enumerate(live):
                remaining[i] -= rates[j] * dt
            now += dt
            for i in list(live):
                if remaining[i] <= SIM_BYTES_EPS:
                    remaining[i] = 0.0
                    completion[i] = now + delays[i]
                    active.discard(i)
            if now >= t_next:
                break
        if not active:
            break
        now = max(now, min(t_next, max(completion)) if t_next == float("inf")
                  else t_next)
        if t_next != float("inf"):
            now = t_next
    if active:
        raise StrandedScheduleError(sorted(active),
                                    sum(remaining[i] for i in active))
    return max(completion), completion


def _random_fault_spec(topology, rng, baseline_seconds, allow_recovery=True):
    """A random non-stranding fault schedule inside the baseline window.

    Symmetric links are failed one by one while the survivor graph stays
    connected; some failures recover at a later epoch.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(topology.nodes)
    graph.add_edges_from(topology.edges)
    sym_links = sorted({tuple(sorted(e)) for e in topology.edges})
    rng.shuffle(sym_links)
    downs = []
    for (u, v) in sym_links:
        if len(downs) >= 2:
            break
        removed = [e for e in ((u, v), (v, u)) if graph.has_edge(*e)]
        graph.remove_edges_from(removed)
        if nx.is_strongly_connected(graph):
            downs.append((u, v))
        else:
            graph.add_edges_from(removed)
    parts = []
    for (u, v) in downs:
        t_us = rng.uniform(0.05, 0.8) * baseline_seconds * 1e6
        parts.append(f"down={u}~{v}@{t_us:.3f}us")
        if allow_recovery and rng.random() < 0.5:
            t_up = rng.uniform(t_us / 1e6, 1.2 * baseline_seconds) * 1e6
            parts.append(f"up={u}~{v}@{t_up:.3f}us")
    if rng.random() < 0.5:
        (u, v) = rng.choice(sym_links)
        t_us = rng.uniform(0.05, 0.8) * baseline_seconds * 1e6
        parts.append(f"scale={u}~{v}*0.5@{t_us:.3f}us")
    return "faults:" + ":".join(parts) if parts else "faults:up@0"


class TestDifferentialOracle:
    """Faulted runs agree with the piecewise-static oracle within 1e-9."""

    CASES = [("ring:n=6", "ewsp"), ("hypercube:dim=3", "ewsp"),
             ("torus:dims=3x3", "ewsp"), ("hypercube:dim=3", "mcf-extp")]

    @pytest.mark.parametrize("topology,scheme", CASES)
    def test_randomized_fault_schedules_agree(self, topology, scheme):
        schedule = _lowered(topology, scheme)
        fabric = cerio_hpc_fabric()
        buf = 2 ** 20
        baseline = run_routed_collective(schedule, buf, fabric=fabric,
                                         validate=False).completion_time
        topo = from_spec(topology)
        for seed in range(3):
            rng = random.Random(f"{topology}/{scheme}/{seed}")
            spec = _random_fault_spec(topo, rng, baseline)
            res = run_faulted(schedule, buf, spec, fabric=fabric,
                              validate=False, baseline_seconds=baseline)
            want, _ = piecewise_static_oracle(schedule, buf, spec, fabric)
            assert res.completion_time == pytest.approx(want, abs=1e-9), spec

    def test_fill_agrees_with_oracle(self):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        fabric = cerio_hpc_fabric()
        spec = "faults:down=0~1@10us:down=2~3@30us:up=0~1@60us"
        res = run_faulted(schedule, 2 ** 20, spec, fabric=fabric,
                          validate=False)
        want, _ = piecewise_static_oracle(schedule, 2 ** 20, spec, fabric)
        assert res.completion_time == pytest.approx(want, abs=1e-9)

    def test_degraded_base_fabric_composes_with_faults(self):
        # Fault-layer downs stack on top of a statically degraded base.
        schedule = _lowered("hypercube:dim=3")
        fabric = fabric_from_spec("hpc:scale=0~2:0.5")
        spec = "faults:down=0~1@20us"
        res = run_faulted(schedule, 2 ** 20, spec, fabric=fabric,
                          validate=False)
        want, _ = piecewise_static_oracle(schedule, 2 ** 20, spec, fabric)
        assert res.completion_time == pytest.approx(want, abs=1e-9)

    def test_recovery_after_stranding_resumes_flows(self):
        # Disconnect node 5 of a ring entirely, then recover: flows park
        # while stranded and finish after the link comes back.
        schedule = _lowered("ring:n=6")
        fabric = cerio_hpc_fabric()
        spec = "faults:down=4~5|5~0@5us:up@100us"
        res = run_faulted(schedule, 2 ** 20, spec, fabric=fabric,
                          validate=False, collect_trace=True)
        want, _ = piecewise_static_oracle(schedule, 2 ** 20, spec, fabric)
        assert res.completion_time == pytest.approx(want, abs=1e-9)
        assert res.completion_time > 100e-6
        assert any(rec.stranded for rec in res.meta["epoch_trace"])

    def test_stranded_without_recovery_raises(self):
        schedule = _lowered("ring:n=6")
        with pytest.raises(StrandedScheduleError, match="allow_stranded"):
            run_faulted(schedule, 2 ** 20, "faults:down=4~5|5~0@5us",
                        fabric=cerio_hpc_fabric(), validate=False)

    def test_allow_stranded_reports_infinite_slowdown(self):
        schedule = _lowered("ring:n=6")
        res = run_faulted(schedule, 2 ** 20, "faults:down=4~5|5~0@5us",
                          fabric=cerio_hpc_fabric(), validate=False,
                          allow_stranded=True)
        assert res.completion_time == float("inf")
        assert res.meta["robustness_slowdown"] == float("inf")
        assert res.meta["stranded_bytes"] > 0


class TestDeltaEngine:
    """The fault runner's in-place arena, reroute cache and prefix resume."""

    CASES = [("ring:n=6", "ewsp"), ("hypercube:dim=3", "ewsp"),
             ("torus:dims=3x3", "ewsp")]

    @pytest.mark.parametrize("topology,scheme", CASES)
    def test_delta_program_matches_fresh_compile_every_epoch(
            self, topology, scheme):
        """Fuzz: delta-edited arenas == fresh ``compile_flows``, per epoch.

        Replays the epoch trace of randomized faulted runs through a fresh
        :class:`DeltaProgram`, moving routes as the runner does, and asserts
        that after every ``apply`` the live flows' incidence entries and the
        capacities are element-identical to compiling the survivors from
        scratch against the epoch fabric, and that the arena holds exactly
        the entries of every flow's last route: repeated drop-and-append
        leaks nothing.
        """
        from repro.simulator.engine import compile_flows

        schedule = _lowered(topology, scheme)
        fabric = cerio_hpc_fabric()
        buf = 2 ** 20
        baseline = run_routed_collective(schedule, buf, fabric=fabric,
                                         validate=False).completion_time
        topo = from_spec(topology)
        edges = tuple(topo.edges)
        for seed in range(4):
            rng = random.Random(f"delta/{topology}/{scheme}/{seed}")
            spec = _random_fault_spec(topo, rng, baseline)
            if parse_fault_spec(spec).trivial:
                continue      # nothing to replay (e.g. unbreakable ring)
            res = run_faulted(schedule, buf, spec, fabric=fabric,
                              validate=False, baseline_seconds=baseline,
                              collect_trace=True)
            context = PreparedFaultContext(schedule, fabric)
            delta = context.delta_program()
            encoded = list(context.orig_paths)
            timeline = FaultTimeline(parse_fault_spec(spec))
            for rec in res.meta["epoch_trace"]:
                epoch_fabric = timeline.fabric_at(fabric, rec.time, edges)
                moved = {i: p for i, p in sorted(rec.paths.items())
                         if p != encoded[i]}
                for i, p in moved.items():
                    encoded[i] = p
                delta.apply(epoch_fabric, moved)
                live = sorted(rec.paths)
                fresh = compile_flows(
                    topo,
                    [FluidFlow(path=rec.paths[i], size_bytes=1.0)
                     for i in live],
                    epoch_fabric, include_latency=False)
                fptr = np.concatenate(
                    [[0], np.cumsum(np.bincount(fresh.inc_flow,
                                                minlength=len(live)))])
                for j, i in enumerate(live):
                    want = fresh.inc_res[fptr[j]:fptr[j + 1]]
                    got = delta.ent_res[delta.ent_flow == i]
                    np.testing.assert_array_equal(got, want, err_msg=(
                        f"{spec}: flow {i} entries diverge at t={rec.time}"))
                np.testing.assert_array_equal(
                    delta.res_cap, fresh.res_cap,
                    err_msg=f"{spec}: capacities diverge at t={rec.time}")
                every = compile_flows(
                    topo, [FluidFlow(path=p, size_bytes=1.0)
                           for p in encoded],
                    fabric, include_latency=False)
                assert len(delta.ent_res) == len(every.inc_res), (
                    f"{spec}: arena leaks entries at t={rec.time}")

    def test_clones_are_independent(self):
        """Rerouting one clone leaves the template and its siblings as they
        were, and the edited clone fills like a fresh compile."""
        from repro.perf.fillkernel import fill_rates_numpy
        from repro.simulator.engine import compile_flows

        schedule = _lowered("hypercube:dim=3")
        fabric = cerio_hpc_fabric()
        context = PreparedFaultContext(schedule, fabric)
        template = context._template
        edited, sibling = context.delta_program(), context.delta_program()
        before = {name: (getattr(template, name).copy(),
                         getattr(sibling, name).copy())
                  for name in ("ent_res", "ent_flow", "res_cap")}
        topo = schedule.topology
        epoch = FaultTimeline(parse_fault_spec("faults:down=0~1@1us")
                              ).fabric_at(fabric, 1e-6, tuple(topo.edges))
        down = set(epoch.down_links)
        adjacency = surviving_adjacency(topo, down)
        routes = list(context.orig_paths)
        moved = {}
        for i, path in enumerate(routes):
            if any(e in down for e in zip(path, path[1:])):
                moved[i] = routes[i] = effective_path(path, down, adjacency)
        assert moved and None not in moved.values()
        edited.apply(epoch, moved)
        for name, (kept, sib) in before.items():
            np.testing.assert_array_equal(getattr(template, name), kept)
            np.testing.assert_array_equal(getattr(sibling, name), sib)
        fresh = compile_flows(topo, [FluidFlow(path=p, size_bytes=1.0)
                                     for p in routes],
                              epoch, include_latency=False)
        active = np.ones(context.num_flows, dtype=bool)
        got, got_rounds = fill_rates_numpy(edited.program, active)
        want, want_rounds = fill_rates_numpy(fresh, active)
        np.testing.assert_array_equal(got, want)
        assert got_rounds == want_rounds

    def test_prefix_resume_is_identical_to_full_run(self):
        """Resuming from a captured healthy prefix changes nothing."""
        schedule = _lowered("hypercube:dim=3")
        fabric = cerio_hpc_fabric()
        buf = 2 ** 20
        context = PreparedFaultContext(schedule, fabric)
        baseline = run_routed_collective(schedule, buf, fabric=fabric,
                                         validate=False).completion_time
        at = 0.5 * baseline
        spec = FaultSpec(events=(FaultEvent(time=at, kind="down",
                                            links=((0, 1), (1, 0))),))
        full = run_faulted(schedule, buf, spec, fabric=fabric,
                           validate=False, context=context,
                           baseline_seconds=baseline)
        prefix = capture_fault_prefix(context, buf, at, vc=spec.vc)
        resumed = _resumed(context, buf, spec, baseline, prefix,
                           allow_stranded=False)
        assert resumed.completion_time == full.completion_time
        assert resumed.meta["fill_rounds"] == full.meta["fill_rounds"]
        assert resumed.meta["events"] == full.meta["events"]
        assert resumed.meta["reroute_count"] == full.meta["reroute_count"]

    def test_prefix_not_matching_first_epoch_raises(self):
        schedule = _lowered("hypercube:dim=3")
        fabric = cerio_hpc_fabric()
        buf = 2 ** 20
        context = PreparedFaultContext(schedule, fabric)
        prefix = capture_fault_prefix(context, buf, 1e-6, vc="lash")
        spec = FaultSpec(events=(FaultEvent(time=2e-6, kind="down",
                                            links=((0, 1), (1, 0))),))
        with pytest.raises(ValueError, match="prefix"):
            _start(context, buf, spec, False, prefix)

    def test_context_schedule_and_fabric_guards(self):
        schedule = _lowered("hypercube:dim=3")
        other = _lowered("ring:n=6")
        fabric = cerio_hpc_fabric()
        context = PreparedFaultContext(schedule, fabric)
        with pytest.raises(ValueError, match="different schedule"):
            run_faulted(other, 2 ** 20, "faults:down=0~1@5us",
                        fabric=fabric, validate=False, context=context)
        with pytest.raises(ValueError, match="different fabric"):
            run_faulted(schedule, 2 ** 20, "faults:down=0~1@5us",
                        fabric=fabric_from_spec("hpc:scale=0~1:0.5"),
                        validate=False, context=context)

    def test_shared_context_hits_the_reroute_cache(self):
        """A second identical run serves repairs/certs from the cache."""
        schedule = _lowered("hypercube:dim=3")
        fabric = cerio_hpc_fabric()
        spec = "faults:down=0~1@10us:up@40us:down=0~1@80us"
        context = PreparedFaultContext(schedule, fabric)
        first = run_faulted(schedule, 2 ** 20, spec, fabric=fabric,
                            validate=False, context=context)
        second = run_faulted(schedule, 2 ** 20, spec, fabric=fabric,
                             validate=False, context=context)
        assert second.completion_time == first.completion_time
        assert first.meta["route_cache_misses"] > 0
        assert second.meta["route_cache_misses"] == 0
        assert second.meta["route_cache_hits"] > 0
        assert obs.snapshot()["faults.route_cache_hits"] == (
            first.meta["route_cache_hits"] + second.meta["route_cache_hits"])

    def test_engine_counters_and_footer_carry_delta_stats(self):
        from repro.analysis.report import format_engine_footer

        schedule = _lowered("hypercube:dim=3")
        run_faulted(schedule, 2 ** 20, "faults:down=0~1@10us:up@40us",
                    fabric=cerio_hpc_fabric(), validate=False)
        stats = obs.snapshot()
        assert stats["faults.fault_events"] > 0
        assert stats["faults.route_cache_hits"] + stats["faults.route_cache_misses"] > 0
        assert stats["faults.compile_seconds"] >= 0.0
        assert stats["faults.reroute_seconds"] > 0.0
        footer = format_engine_footer(stats, "x")
        assert "fabric events" in footer
        assert "route-cache:" in footer and "delta:" not in footer
        assert "compile" in footer and "reroute]" in footer

    @pytest.mark.usefixtures("stage_cache_off")
    def test_adversarial_serial_parallel_and_oracle_agree(self):
        """A search on a warm shared context returns the table of one on a
        fresh context, and every prefix-resumed evaluation agrees with the
        piecewise-static oracle.  (The search is serial; the name predates
        that.)"""
        schedule = _lowered("hypercube:dim=3")
        fabric = cerio_hpc_fabric()
        buf = 2 ** 20
        context = PreparedFaultContext(schedule, fabric)
        worst_case_failures(schedule, buf, k=2, fabric=fabric, candidates=5,
                            context=context)
        warm = worst_case_failures(schedule, buf, k=2, fabric=fabric,
                                   candidates=5, context=context)
        fresh = worst_case_failures(schedule, buf, k=2, fabric=fabric,
                                    candidates=5)
        table = lambda a: [(ev["links"], ev["slowdown"], ev["reroute_count"])
                           for ev in a.evaluations]       # noqa: E731
        assert warm.worst_links == fresh.worst_links
        assert table(warm) == table(fresh)
        for links, slowdown, _ in table(warm):
            spec = FaultSpec(events=tuple(
                FaultEvent(time=warm.at_seconds, kind="down",
                           links=((u, v), (v, u))) for u, v in links))
            want, _ = piecewise_static_oracle(schedule, buf, spec, fabric)
            assert slowdown == pytest.approx(
                want / warm.baseline_seconds, abs=1e-9), links

    @pytest.mark.parametrize("topology", ["torus:dims=3x3", "hypercube:dim=3"])
    def test_reroute_cache_matches_uncached_repair(self, topology):
        """Memoized repairs equal the uncached calls."""
        schedule = _lowered(topology)
        topo = schedule.topology
        planned = [tuple(a.route) for a in schedule.assignments]
        links = sorted({tuple(sorted(e)) for e in topo.edges})
        cache = RerouteCache(topo)
        rng = random.Random(f"cache/{topology}")
        for _ in range(4):
            failed = rng.sample(links, rng.randint(1, 3))
            down = {e for u, v in failed for e in ((u, v), (v, u))}
            down_key = tuple(sorted(down))
            adjacency = surviving_adjacency(topo, down)
            for path in planned:
                got, _ = cache.effective(down_key, down, path)
                assert got == effective_path(path, down, adjacency), path
                assert cache.effective(down_key, down, path) == (got, True)


class TestZeroFaultIdentity:
    """No-op fault timelines reproduce today's engine byte-for-byte."""

    @pytest.mark.parametrize("spec", ["faults:up@0", "faults:up@0:seed=3",
                                      "faults:up=0~1@0"])
    def test_trivial_specs_delegate_to_plain_engine(self, spec):
        """A no-op timeline runs the plain engine's loop to the same bytes."""
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        fabric = cerio_hpc_fabric()
        plain = run_routed_collective(schedule, 2 ** 20, fabric=fabric,
                                      validate=False)
        faulted = run_faulted(schedule, 2 ** 20, spec, fabric=fabric,
                              validate=False)
        assert faulted.completion_time == plain.completion_time  # exact
        assert faulted.throughput == plain.throughput
        assert faulted.meta["robustness_slowdown"] == 1.0
        assert faulted.meta["reroute_count"] == 0
        assert faulted.meta["fault_events"] == 0

    def test_zero_fault_scenario_metrics_match_plain(self):
        base = Scenario(topology="hypercube:dim=2", scheme="ewsp",
                        buffers=(2 ** 20,))
        trivial = Scenario(topology="hypercube:dim=2", scheme="ewsp",
                           buffers=(2 ** 20,), faults="faults:up@0")
        t_plain = Plan(base).run().sim_results[0].completion_time
        t_triv = Plan(trivial).run().sim_results[0].completion_time
        assert t_triv == t_plain  # exact, not approx


class TestFuzzInvariants:
    """Seeded property tests over the fault model."""

    def test_completion_monotone_in_added_down_events(self):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        fabric = cerio_hpc_fabric()
        buf = 2 ** 20
        baseline = run_routed_collective(schedule, buf, fabric=fabric,
                                         validate=False).completion_time
        # Disjoint hypercube links added one at a time, same instant.
        links = ["0~1", "2~3", "4~5"]
        prev = baseline
        for k in range(1, len(links) + 1):
            spec = f"faults:down={'|'.join(links[:k])}@40us"
            t = run_faulted(schedule, buf, spec, fabric=fabric,
                            validate=False,
                            baseline_seconds=baseline).completion_time
            assert t >= prev - 1e-12
            prev = t

    def test_up_at_zero_is_a_noop(self):
        schedule = _lowered("hypercube:dim=3")
        fabric = cerio_hpc_fabric()
        spec = "faults:down=0~1@10us"
        with_up = "faults:up=4~5@0:down=0~1@10us"
        a = run_faulted(schedule, 2 ** 20, spec, fabric=fabric, validate=False)
        b = run_faulted(schedule, 2 ** 20, with_up, fabric=fabric,
                        validate=False)
        assert a.completion_time == b.completion_time

    def test_canonical_hash_stable_under_key_reordering(self):
        a = parse_fault_spec("faults:down=0~1@0.5ms:up@1.2ms:seed=7")
        b = parse_fault_spec("faults:seed=7:up@1.2ms:down=0~1@0.5ms")
        assert a.canonical() == b.canonical()
        assert a == b
        sa = Scenario(topology="ring:n=4", scheme="ewsp", buffers=(2 ** 20,),
                      faults="faults:down=0~1@0.5ms:up@1.2ms:seed=7")
        sb = Scenario(topology="ring:n=4", scheme="ewsp", buffers=(2 ** 20,),
                      faults="faults:seed=7:up@1.2ms:down=0~1@0.5ms")
        assert sa.key() == sb.key()
        assert sa.stage_key("simulate") == sb.stage_key("simulate")

    def test_no_flow_routes_across_a_down_link(self):
        # Per-epoch incidence check over randomized schedules.
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        fabric = cerio_hpc_fabric()
        baseline = run_routed_collective(schedule, 2 ** 20, fabric=fabric,
                                         validate=False).completion_time
        topo = from_spec("hypercube:dim=3")
        for seed in range(4):
            rng = random.Random(1000 + seed)
            spec = _random_fault_spec(topo, rng, baseline)
            res = run_faulted(schedule, 2 ** 20, spec, fabric=fabric,
                              validate=False, collect_trace=True,
                              baseline_seconds=baseline)
            trace = res.meta["epoch_trace"]
            assert trace, "expected at least the initial epoch record"
            for rec in trace:
                down = set(rec.down)
                for fid, path in rec.paths.items():
                    hops = set(zip(path, path[1:]))
                    assert not (hops & down), (
                        f"flow {fid} crosses {hops & down} at t={rec.time}")

    def test_fault_epochs_increase_vc_layers_at_most(self):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        res = run_faulted(schedule, 2 ** 20, "faults:down=0~1@10us",
                          fabric=cerio_hpc_fabric(), validate=False)
        assert res.meta["vc_layers"] >= 1


class TestSpecGrammar:
    def test_time_suffixes(self):
        spec = parse_fault_spec("faults:down=0~1@1ms:up=0~1@2500us:scale=2-3*0.5@1.5s")
        times = sorted(e.time for e in spec.events)
        assert times == pytest.approx([0.001, 0.0025, 1.5])

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter 'explode'"):
            parse_fault_spec("faults:explode=1@1ms")

    @pytest.mark.parametrize("bad", [
        "faults:down=0~1@nan",                  # time must be finite
        "faults:down=0~1@inf",
        "faults:scale=0~1*nan@1ms",             # factor must be a number > 0
        "faults:up@1ms@2ms",                    # exactly one @<time>
    ])
    def test_malformed_values_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_duplicate_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            parse_fault_spec("faults:seed=1:seed=2")

    def test_missing_prefix_rejected(self):
        with pytest.raises(ValueError, match="faults:"):
            parse_fault_spec("down=0~1@1ms")

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError, match="must be > 0"):
            parse_fault_spec("faults:scale=0~1*0@1ms")

    def test_straggler_expands_to_incident_links(self):
        spec = parse_fault_spec("faults:straggler=3*0.25@1ms")
        topo = from_spec("hypercube:dim=3")
        down, factors = FaultTimeline(spec).state_at(0.002, tuple(topo.edges))
        assert not down
        assert factors and all(3 in link for link in factors)
        assert all(f == pytest.approx(0.25) for f in factors.values())

    def test_simultaneous_up_down_leaves_link_down(self):
        # Canonical order fires "up" before "down" at equal times.
        spec = parse_fault_spec("faults:down=0~1@1ms:up=0~1@1ms")
        topo = from_spec("ring:n=4")
        down, _ = FaultTimeline(spec).state_at(0.001, tuple(topo.edges))
        assert down == {(0, 1), (1, 0)}

    def test_repr_roundtrip_via_canonical(self):
        spec = parse_fault_spec("faults:down=0~1@0.5ms")
        assert isinstance(spec, FaultSpec)
        assert spec.canonical()[0] == "faults"


class TestReroute:
    def test_repair_path_is_lexicographically_smallest_shortest(self):
        topo = from_spec("hypercube:dim=3")
        adjacency = surviving_adjacency(topo, {(0, 1), (1, 0)})
        path = repair_path(0, 1, adjacency)
        # Shortest detours are 0-2-3-1 / 0-4-5-1; BFS picks the smallest.
        assert path == (0, 2, 3, 1)

    def test_repair_path_none_when_disconnected(self):
        topo = from_spec("ring:n=4")
        down = {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert repair_path(0, 1, surviving_adjacency(topo, down)) is None

    def test_effective_path_prefers_original(self):
        topo = from_spec("ring:n=4")
        adjacency = surviving_adjacency(topo, set())
        assert effective_path((0, 1, 2), set(), adjacency) == (0, 1, 2)


class TestVcLayers:
    """Layer counts of a flapping timeline, as the networkx LASH check gave them."""

    SPEC = ("faults:down=0~1|6~8|2~5|4~5@10us:up@14us:down=6~7|2~5@17us:up@21us"
            ":down=0~1|6~8|2~5|4~5@24us:up@28us")

    @pytest.mark.parametrize("vc, layers, per_epoch", [
        ("lash", 2, [1, 2, 1, 2, 1, 2, 1]),
        ("dfsssp", 3, [1, 3, 1, 2, 1, 3, 1]),
    ])
    def test_flapping_torus_layer_counts(self, vc, layers, per_epoch):
        schedule = _lowered("torus:dims=3x3", "mcf-extp")
        res = run_faulted(schedule, 2 ** 20, f"{self.SPEC}:vc={vc}",
                          fabric=cerio_hpc_fabric(), validate=False,
                          collect_trace=True)
        assert res.meta["vc_layers"] == layers
        assert [certify_routes(list(rec.paths.values()), vc)
                for rec in res.meta["epoch_trace"]] == per_epoch


class TestAdversarial:
    @pytest.mark.usefixtures("stage_cache_off")
    def test_exhaustive_search_is_deterministic_and_worst_first(self):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        a = worst_case_failures(schedule, 2 ** 20, k=1, candidates=4,
                                mode="exhaustive")
        b = worst_case_failures(schedule, 2 ** 20, k=1, candidates=4,
                                mode="exhaustive")
        assert a.worst_links == b.worst_links
        assert a.worst_slowdown == b.worst_slowdown
        assert a.worst_slowdown >= 1.0
        assert len(a.evaluations) == 4

    def test_greedy_mode_evaluates_fewer_sets(self):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        greedy = worst_case_failures(schedule, 2 ** 20, k=2, candidates=4,
                                     mode="greedy")
        assert greedy.k == 2 and len(greedy.worst_links) == 2
        assert greedy.worst_slowdown >= 1.0

    def test_disconnection_is_worst_case(self):
        # On a ring, any 2-link cut disconnects: slowdown must be inf.
        schedule = _lowered("ring:n=4")
        res = worst_case_failures(schedule, 2 ** 20, k=2, candidates=4,
                                  mode="exhaustive")
        assert res.worst_slowdown == float("inf")

    @staticmethod
    def _sequential(context, buffer_bytes, specs, baseline_seconds,
                    prefix=None):
        """The search's evaluations one after another, each resumed from
        the prefix."""
        return [_resumed(context, buffer_bytes, spec, baseline_seconds, prefix)
                for spec in specs]

    @pytest.mark.parametrize("topology, scheme, k, mode", [
        ("hypercube:dim=3", "mcf-extp", 1, "exhaustive"),
        ("hypercube:dim=3", "mcf-extp", 2, "exhaustive"),
        ("hypercube:dim=3", "mcf-extp", 2, "greedy"),
        ("ring:n=4", "ewsp", 2, "exhaustive"),
        ("ring:n=4", "ewsp", 2, "greedy"),
    ])
    @pytest.mark.parametrize("group", [3, 22])
    @pytest.mark.usefixtures("stage_cache_off")
    def test_lockstep_equals_sequential_runs(self, monkeypatch, topology,
                                             scheme, k, mode, group):
        """Every evaluation, their order and the fill, event and reroute
        cache counters equal those of sequential ``run_faulted`` calls;
        the ring's two-link cuts strand flows.  Groups of 3 leave runs
        finished while others of their group still fill."""
        import repro.faults.adversarial as adversarial
        import repro.faults.runner as runner

        schedule = _lowered(topology, scheme)
        fabric = cerio_hpc_fabric()
        counters = ("sim.fill_rounds", "sim.events",
                    "faults.route_cache_hits", "faults.route_cache_misses")

        def search():
            obs.reset()
            result = worst_case_failures(schedule, 2 ** 20, k=k, fabric=fabric,
                                         candidates=5, mode=mode)
            counts = obs.snapshot()
            rows = [(ev["links"], ev["slowdown"], ev["completion_seconds"],
                     ev["reroute_count"], ev["stranded_bytes"])
                    for ev in result.evaluations]
            return result, rows, {name: counts.get(name, 0) for name in counters}

        monkeypatch.setattr(runner, "LOCKSTEP_GROUP", group)
        lockstep, rows, counts = search()
        monkeypatch.setattr(adversarial, "run_faulted_lockstep", self._sequential)
        sequential, want_rows, want_counts = search()
        assert rows == want_rows
        assert counts == want_counts and counts["sim.fill_rounds"] > 0
        assert lockstep.worst_links == sequential.worst_links
        assert lockstep.mode == mode
        if topology.startswith("ring"):
            assert any(ev["stranded"] for ev in lockstep.evaluations)

    @pytest.mark.parametrize("at", [0.5, 0.9, 0.97])
    def test_lockstep_with_a_set_stranding_every_remaining_flow(self, at):
        """A set that downs every link strands every flow left at a late
        strike, so its run has nothing to fill after the strike, while the
        other runs of its group still fill; results and counters equal
        sequential ``run_faulted`` calls."""
        from repro.faults.adversarial import _failure_spec
        from repro.faults.runner import run_faulted_lockstep

        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        fabric = cerio_hpc_fabric()
        buf = 2 ** 20
        baseline = run_routed_collective(schedule, buf, fabric=fabric,
                                         validate=False).completion_time
        links = sorted({(min(u, v), max(u, v))
                        for u, v in schedule.topology.edges})
        sets = [(links[0],), tuple(links), (links[1],), (links[0], links[5])]
        specs = [_failure_spec(s, at * baseline, 0) for s in sets]

        def rows_and_counts(run_specs):
            # A fresh context each, so both start with cold route caches.
            context = PreparedFaultContext(schedule, fabric)
            prefix = capture_fault_prefix(context, buf, at * baseline,
                                          vc=specs[0].vc)
            assert prefix.run.active.any()
            obs.reset()
            results = run_specs(context, buf, specs, baseline, prefix)
            counts = obs.snapshot()
            rows = [(r.completion_time, r.meta["reroute_count"],
                     r.meta["stranded_bytes"]) for r in results]
            return rows, {name: counts.get(name, 0) for name in (
                "sim.fill_rounds", "sim.events", "faults.route_cache_hits",
                "faults.route_cache_misses")}

        rows, counts = rows_and_counts(run_faulted_lockstep)
        want_rows, want_counts = rows_and_counts(self._sequential)
        assert rows == want_rows and counts == want_counts
        assert [row[0] == float("inf") for row in rows] == [
            False, True, False, False]

    def test_ranked_links_cover_schedule_load(self):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        ranked = ranked_physical_links(schedule, 2 ** 20)
        loads = [load for _link, load in ranked]
        assert loads == sorted(loads, reverse=True)

    def test_worst_spec_is_parseable(self):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        res = worst_case_failures(schedule, 2 ** 20, k=1, candidates=3)
        spec = res.worst_spec()
        assert isinstance(spec, FaultSpec)
        downs = [e for e in spec.events if e.kind == "down"]
        assert downs and downs[0].time == pytest.approx(res.at_seconds)
        failed = {tuple(sorted(link)) for e in downs for link in e.links}
        assert failed == set(res.worst_links)


class TestSearchCache:
    """The adversarial search reads a repeated search from the stage cache."""

    BUF = 2.0 ** 20
    ARGS = dict(k=2, at=0.5, candidates=5, mode="auto", seed=0)

    @pytest.fixture
    def fresh_stage_cache(self):
        """A fresh memory-only stage cache, dropped afterwards."""
        reset_plan_cache()
        yield configure_plan_cache(enabled=True)
        reset_plan_cache()

    @staticmethod
    def _key(schedule, fabric=None, **changes):
        args = {**TestSearchCache.ARGS, "buffer_bytes": TestSearchCache.BUF, **changes}
        return search_key(schedule, fabric or cerio_hpc_fabric(), **args)

    def test_every_input_changes_the_key(self):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        topology = schedule.topology
        base = self._key(schedule)
        i, a = next((i, a) for i, a in enumerate(schedule.assignments)
                    if len(a.route) > 2)

        def replaced(**changes):
            assignments = list(schedule.assignments)
            assignments[i] = dataclasses.replace(a, **changes)
            return RoutedSchedule(topology, assignments)

        graph = topology.graph.copy()
        u, v = topology.edges[0]
        graph.edges[u, v]["cap"] *= 2.0

        backward = nx.DiGraph()
        backward.add_nodes_from(topology.graph)
        backward.add_edges_from(reversed(list(topology.graph.edges(data=True))))

        detour = next(n for n in range(topology.num_nodes) if n not in a.route)
        chunk = a.chunk
        variants = {
            "route hop": replaced(route=(a.route[0], detour) + a.route[2:]),
            "chunk bound": replaced(chunk=Chunk(chunk.source, chunk.destination,
                                                chunk.lo, chunk.hi * (1 - 1e-12))),
            "layer": replaced(layer=a.layer + 1),
            "capacity": RoutedSchedule(dataclasses.replace(topology, graph=graph),
                                       schedule.assignments),
            "edge order": RoutedSchedule(dataclasses.replace(topology, graph=backward),
                                         schedule.assignments),
        }
        keys = {name: self._key(variant) for name, variant in variants.items()}
        fabric = cerio_hpc_fabric()
        keys["fabric field"] = self._key(
            schedule, dataclasses.replace(fabric, per_hop_latency=2e-6))
        keys.update((name, self._key(schedule, **{name: value})) for name, value in [
            ("buffer_bytes", 2 * self.BUF), ("k", 1), ("at", 0.25),
            ("candidates", 6), ("mode", "exhaustive"), ("seed", 1)])
        assert base not in keys.values(), [n for n, key in keys.items() if key == base]
        assert len(set(keys.values())) == len(keys)
        # The fabric's cosmetic name is not part of the key; at is keyed as a float.
        assert self._key(schedule, dataclasses.replace(fabric, name="other")) == base
        assert self._key(schedule, at=0.5) == self._key(schedule, at="0.5") == base

    def test_pickle_round_trip_keeps_the_key(self):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        assert self._key(pickle.loads(pickle.dumps(schedule))) == self._key(schedule)

    def test_context_fabric_is_keyed_when_fabric_is_none(self, fresh_stage_cache):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        fabric = cerio_hpc_fabric()
        assert fabric != FabricModel()
        result = worst_case_failures(schedule, self.BUF, k=1, candidates=3,
                                     context=PreparedFaultContext(schedule, fabric))
        args = dict(k=1, candidates=3)
        assert fresh_stage_cache.get(self._key(schedule, fabric, **args)) is result
        assert fresh_stage_cache.get(self._key(schedule, FabricModel(), **args)) is None

    @pytest.mark.parametrize("bad", [{"k": 0}, {"mode": "random"}, {"at": 1.5},
                                     {"at": 0.0}])
    def test_bad_arguments_raise_despite_a_matching_entry(self, fresh_stage_cache,
                                                          bad):
        schedule = _lowered("hypercube:dim=3", "mcf-extp")
        fabric = cerio_hpc_fabric()
        args = dict(self.ARGS, k=1, candidates=3)
        result = worst_case_failures(schedule, self.BUF, fabric=fabric, **args)
        args.update(bad)
        fresh_stage_cache.put(search_key(schedule, fabric, self.BUF, **args), result)
        with pytest.raises(ValueError):
            worst_case_failures(schedule, self.BUF, fabric=fabric, **args)

    @pytest.mark.parametrize("topology, scheme, mode", [
        ("hypercube:dim=3", "mcf-extp", "exhaustive"),
        ("hypercube:dim=3", "mcf-extp", "greedy"),
        ("ring:n=4", "ewsp", "exhaustive"),
    ])
    def test_warm_search_equals_cold(self, tmp_path, topology, scheme, mode):
        """A second search, on a fresh cache over the same directory, reads
        the first one's table with one disk read and runs nothing; the
        ring's two-link cuts carry ``inf`` and stranded rows."""
        schedule = _lowered(topology, scheme)
        fabric = cerio_hpc_fabric()
        searches = []
        try:
            for _ in range(2):
                configure_plan_cache(cache_dir=str(tmp_path), enabled=True)
                obs.reset()
                searches.append((worst_case_failures(
                    schedule, self.BUF, k=2, fabric=fabric, candidates=5,
                    mode=mode), obs.snapshot()))
        finally:
            reset_plan_cache()
        (cold, cold_counts), (warm, warm_counts) = searches
        assert cold_counts["sim.fill_rounds"] > 0
        assert repr(warm.evaluations) == repr(cold.evaluations)
        assert repr(warm) == repr(cold)
        assert warm_counts.get("sim.fill_rounds", 0) == 0
        assert warm_counts.get("sim.events", 0) == 0
        assert warm_counts["stage-cache.disk_hits"] == warm_counts["stage-cache.hits"] == 1
        assert "stage-cache.misses" not in warm_counts
        if topology.startswith("ring"):
            assert any(ev["stranded"] and ev["slowdown"] == float("inf")
                       for ev in warm.evaluations)


class TestScenarioWiring:
    def test_faults_enter_simulate_stage_key_only(self):
        base = Scenario(topology="hypercube:dim=3", scheme="mcf-extp",
                        buffers=(2 ** 20,))
        faulted = Scenario(topology="hypercube:dim=3", scheme="mcf-extp",
                           buffers=(2 ** 20,), faults="faults:down=0~1@10us")
        for stage in ("synthesize", "lower", "validate"):
            assert base.stage_key(stage) == faulted.stage_key(stage)
        assert base.stage_key("simulate") != faulted.stage_key("simulate")
        assert base.key() != faulted.key()

    def test_invalid_faults_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown parameter 'bogus'"):
            Scenario(topology="ring:n=4", faults="faults:bogus=1@1ms")

    def test_faults_and_cluster_mutually_exclusive(self):
        with pytest.raises(ValueError, match="cluster"):
            Scenario(topology="ring:n=4", faults="faults:down=0~1@1ms",
                     cluster="cluster:jobs=2:arrival=poisson~100"
                             ":placement=packed:seed=0")

    def test_faults_and_overlap_mutually_exclusive(self):
        with pytest.raises(ValueError, match="overlap"):
            Scenario(topology="ring:n=4", faults="faults:down=0~1@1ms",
                     overlap=2)

    def test_sweep_record_carries_fault_metrics(self, tmp_path):
        scenario = Scenario(topology="hypercube:dim=2", scheme="ewsp",
                            buffers=(2 ** 20,), faults="faults:down=0~1@5us")
        record = run_sweep([scenario],
                           out_path=str(tmp_path / "f.jsonl"))[0]
        assert record.status == "ok"
        assert record.metrics["robustness_slowdown"] >= 1.0
        assert record.metrics["reroute_count"] >= 1
        assert record.metrics["fault_events"] == 1
        assert record.metrics["stranded_bytes"] == 0.0

    def test_faulted_sweep_shares_synthesized_schedule(self, tmp_path):
        # The warm re-run over a faults grid must solve zero new LPs.
        from repro.engine import reset_engine
        from repro.experiments import reset_plan_cache

        reset_engine()
        reset_plan_cache()
        try:
            grid = [Scenario(topology="hypercube:dim=2", scheme="mcf-extp",
                             max_denominator=16, buffers=(2 ** 20,),
                             faults=f)
                    for f in (None, "faults:down=0~1@5us",
                              "faults:down=0~1@5us:up@20us")]
            run_sweep(grid, out_path=str(tmp_path / "a.jsonl"))
            misses = obs.snapshot()["lp-cache.misses"]
            assert misses > 0
            results = run_sweep(grid, out_path=str(tmp_path / "b.jsonl"))
            assert obs.snapshot()["lp-cache.misses"] == misses
            assert all(r.stage_cache["synthesize"] == "hit" for r in results)
        finally:
            reset_engine()
            reset_plan_cache()

    def test_sweep_resume_skips_completed_faulted_records(self, tmp_path):
        out = str(tmp_path / "resume.jsonl")
        grid = [Scenario(topology="hypercube:dim=2", scheme="ewsp",
                         buffers=(2 ** 20,), faults="faults:down=0~1@5us")]
        first = run_sweep(grid, out_path=out)
        assert first[0].resumed is False
        again = run_sweep(grid, out_path=out, resume=True)
        assert again[0].resumed is True
        assert len(open(out).readlines()) == 1


class TestGoldenRobustness:
    def test_fig_robustness_matches_golden_file(self):
        """The fault runner reproduces the golden artifact byte-for-byte.

        The plan's stage cache is disabled so the simulate stages genuinely
        run instead of being served from artifacts cached by earlier tests.
        """
        from repro.experiments import get_plan_cache, result_from_plan
        from repro.report.specs import FIG_ROBUSTNESS

        cache = get_plan_cache()
        prev = cache.enabled
        cache.enabled = False
        try:
            spec = FIG_ROBUSTNESS
            results = [result_from_plan(s, Plan(s).run(through=spec.through),
                                        through=spec.through)
                       for s in spec.scenarios(fast=True)]
            out = spec.aggregate(results, fast=True)
        finally:
            cache.enabled = prev
        assert not out.errors
        expected = (GOLDEN / "fig_robustness.txt").read_text()
        assert out.tables[0].text + "\n" == expected


class TestCli:
    def test_simulate_with_faults_flag(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.experiments import reset_plan_cache

        # Earlier tests may have cached this scenario's stages; the fault
        # runner (and the footer's faults section) only runs on a miss.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        reset_plan_cache()
        assert main(["simulate", "hypercube:dim=2", "--scheme", "ewsp",
                     "--buffers", "1048576",
                     "--faults", "faults:down=0~1@5us"]) == 0
        captured = capsys.readouterr()
        assert "slowdown" in captured.out
        assert "reroute" in captured.out
        assert "fabric events" in captured.err

    def test_robustness_command(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "rob.jsonl")
        assert main(["robustness", "hypercube:dim=2", "--scheme", "ewsp",
                     "--faults", "faults:down=0~1@5us", "--out", out]) == 0
        captured = capsys.readouterr()
        assert "slowdown" in captured.out
        assert len(open(out).readlines()) == 1

    def test_robustness_adversarial(self, capsys):
        from repro.cli import main

        assert main(["robustness", "hypercube:dim=2", "--scheme", "ewsp",
                     "--adversarial", "1", "--candidates", "2"]) == 0
        assert "worst case" in capsys.readouterr().out

    def test_adversarial_search_reads_set_fields(self, capsys):
        """``--set scheme=ewsp`` reaches the adversarial search too."""
        from repro.cli import main

        assert main(["robustness", "hypercube:dim=3", "--set", "scheme=ewsp",
                     "--adversarial", "1", "--candidates", "3"]) == 0
        printed = next(line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("worst case:"))
        scenario = Scenario(topology="hypercube:dim=3", scheme="ewsp")
        adv = worst_case_failures(Plan(scenario).run("validate").lowered, 2.0 ** 20,
                                  k=1, fabric=scenario.resolved_fabric(),
                                  candidates=3)
        worst = "|".join(f"{u}~{v}" for u, v in adv.worst_links)
        assert printed == f"worst case: down={worst} -> slowdown {adv.worst_slowdown:.4f}"
