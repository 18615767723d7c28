"""Tests for the unified vectorized simulation engine.

Covers the differential suite (vectorized engine vs. the retained scalar
reference on randomized topologies and flow sets), the overlap and
degraded-fabric axes end-to-end, the fluid loop's edge, stall and
event-cap rules across every front-end, the golden fig4/table1 report
panels (byte-identical to the pre-refactor simulator), and the engine
counters.
"""

import random
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import repro.constants
from repro import obs
from repro.cluster import FlowInjector, run_cluster
from repro.experiments import Plan, Scenario
from repro.faults import run_faulted
from repro.simulator import (
    FabricModel,
    FlowProgram,
    FluidFlow,
    FluidRun,
    cerio_hpc_fabric,
    compile_flows,
    execute,
    fabric_from_spec,
    ideal_fabric,
    parse_link_scales,
    parse_link_set,
    run_routed_collective,
    simulate_flows_reference,
    simulate_link_schedule,
    simulate_program,
)
from repro.topology import from_spec, hypercube, ring

GOLDEN = Path(__file__).parent / "golden"


def _random_flows(topo, rng, n_flows, zero_fraction=0.1):
    """Random flows along shortest paths with heterogeneous sizes."""
    paths = dict(nx.all_pairs_shortest_path(topo.graph))
    nodes = topo.nodes
    flows = []
    for _ in range(n_flows):
        s, d = rng.sample(nodes, 2)
        size = 0.0 if rng.random() < zero_fraction else rng.uniform(1.0, 1e6)
        flows.append(FluidFlow(path=tuple(paths[s][d]), size_bytes=size))
    return flows


class TestDifferential:
    """Vectorized engine vs. scalar reference: completion times within 1e-9."""

    TOPOLOGIES = ["ring:n=6", "hypercube:dim=3", "torus:dims=3x3",
                  "rrg:d=3,n=12,seed=5", "genkautz:d=3,n=10"]
    FABRICS = [
        ideal_fabric(link_bandwidth=100.0),
        cerio_hpc_fabric(),                                  # fwd cap
        FabricModel(link_bandwidth=50.0, injection_bandwidth=60.0,
                    per_hop_latency=1e-4, per_message_overhead=1e-3),
        fabric_from_spec("hpc:scale=0~1:0.5"),               # degraded
    ]

    @pytest.mark.parametrize("spec", TOPOLOGIES)
    @pytest.mark.parametrize("fabric_idx", range(len(FABRICS)))
    def test_randomized_flow_sets_agree(self, spec, fabric_idx):
        topo = from_spec(spec)
        fabric = self.FABRICS[fabric_idx]
        rng = random.Random(hash((spec, fabric_idx)) % (2 ** 31))
        flows = _random_flows(topo, rng, n_flows=40)
        fast = simulate_program(topo, flows, fabric)
        slow = simulate_flows_reference(topo, flows, fabric)
        assert fast.completion_time == pytest.approx(slow.completion_time, abs=1e-9)
        for a, b in zip(fast.flow_completion_times, slow.flow_completion_times):
            assert a == pytest.approx(b, abs=1e-9)
        assert fast.max_link_bytes == pytest.approx(slow.max_link_bytes)
        assert fast.total_bytes == pytest.approx(slow.total_bytes)

    def test_capacity_heterogeneous_links_agree(self):
        # Mixed per-edge capacities exercise unequal resource shares.
        topo = ring(5).copy()
        for i, (u, v) in enumerate(topo.edges):
            topo.graph.edges[u, v]["cap"] = 1.0 + (i % 3)
        rng = random.Random(7)
        flows = _random_flows(topo, rng, n_flows=30, zero_fraction=0.0)
        fabric = FabricModel(link_bandwidth=10.0, injection_bandwidth=15.0)
        fast = simulate_program(topo, flows, fabric)
        slow = simulate_flows_reference(topo, flows, fabric)
        assert fast.completion_time == pytest.approx(slow.completion_time, abs=1e-9)

    def test_all_zero_byte_flows_agree(self):
        topo = hypercube(2)
        fabric = cerio_hpc_fabric()
        flows = [FluidFlow(path=(0, 1), size_bytes=0.0),
                 FluidFlow(path=(0, 2, 3), size_bytes=0.0)]
        fast = simulate_program(topo, flows, fabric)
        slow = simulate_flows_reference(topo, flows, fabric)
        assert fast.flow_completion_times == pytest.approx(slow.flow_completion_times)
        # Zero-byte flows still pay their start-up latency.
        assert fast.flow_completion_times[1] > fast.flow_completion_times[0] > 0


class TestEngineCore:
    def test_single_flow(self):
        res = simulate_program(ring(3), [FluidFlow(path=(0, 1), size_bytes=1000.0)],
                               ideal_fabric(link_bandwidth=100.0))
        assert res.completion_time == pytest.approx(10.0)
        assert res.fill_rounds >= 1
        assert res.events_processed >= 1

    def test_flow_crossing_down_link_rejected(self):
        fabric = cerio_hpc_fabric().degrade(down_links=((0, 1),))
        with pytest.raises(ValueError, match="down link"):
            simulate_program(ring(3), [FluidFlow(path=(0, 1), size_bytes=10.0)], fabric)

    def test_down_link_elsewhere_is_fine(self):
        fabric = ideal_fabric(link_bandwidth=100.0).degrade(down_links=((1, 2),))
        res = simulate_program(ring(3), [FluidFlow(path=(0, 1), size_bytes=1000.0)],
                               fabric)
        assert res.completion_time == pytest.approx(10.0)

    def test_scaled_link_slows_only_its_flows(self):
        fabric = ideal_fabric(link_bandwidth=100.0).degrade(
            link_scale={(0, 1): 0.5})
        flows = [FluidFlow(path=(0, 1), size_bytes=1000.0),
                 FluidFlow(path=(1, 2), size_bytes=1000.0)]
        res = simulate_program(ring(3), flows, fabric)
        assert res.flow_completion_times[0] == pytest.approx(20.0)
        assert res.flow_completion_times[1] == pytest.approx(10.0)

    def test_set_completion_times(self):
        topo = ring(3)
        flows = [FluidFlow(path=(0, 1), size_bytes=1000.0),
                 FluidFlow(path=(1, 2), size_bytes=500.0)]
        res = simulate_program(topo, flows, ideal_fabric(link_bandwidth=100.0),
                               set_ids=[0, 1], set_names=("a", "b"))
        assert res.set_completion_times["a"] == pytest.approx(10.0)
        assert res.set_completion_times["b"] == pytest.approx(5.0)

    def test_bad_set_ids_length_rejected(self):
        with pytest.raises(ValueError, match="set_ids"):
            compile_flows(ring(3), [FluidFlow(path=(0, 1), size_bytes=1.0)],
                          ideal_fabric(), set_ids=[0, 1])

    def test_counters_accumulate(self):
        simulate_program(ring(3), [FluidFlow(path=(0, 1), size_bytes=10.0)],
                         ideal_fabric())
        counters = obs.snapshot()
        assert counters["sim.events"] == 1
        assert counters["sim.fill_rounds"] >= 1
        assert counters["sim.events"] >= 1
        obs.reset()
        assert obs.snapshot().get("sim.events", 0) == 0


def _compile_flows_loop(topology, flows, fabric=None, set_ids=None,
                        set_names=None, include_latency=True,
                        include_ejection=False):
    """The per-edge Python loop ``compile_flows`` replaced, kept as its oracle."""
    fabric = fabric or FabricModel()
    n = len(flows)
    down = set(fabric.down_links)
    edges = topology.edges
    edge_index = {e: i for i, e in enumerate(edges)}
    num_links = len(edges)
    num_nodes = topology.num_nodes
    link_bw = fabric.link_bandwidths(edges)
    link_cap = np.array(
        [topology.capacity(u, v) * link_bw[(u, v)] for u, v in edges], dtype=float)
    max_deg = topology.max_degree()
    injection_capped = fabric.injection_limited(max_deg)
    fwd_cap = fabric.forwarding_bandwidth
    caps = [link_cap]
    inj_base = num_links
    if injection_capped:
        caps.append(np.full(num_nodes, fabric.effective_injection(max_deg)))
    fwd_base = num_links + (num_nodes if injection_capped else 0)
    if fwd_cap is not None:
        caps.append(np.full(num_nodes, float(fwd_cap)))
    ej_base = fwd_base + (num_nodes if fwd_cap is not None else 0)
    ejection_capped = include_ejection and injection_capped
    if ejection_capped:
        caps.append(np.full(num_nodes, fabric.effective_injection(max_deg)))
    res_cap = np.concatenate(caps) if len(caps) > 1 else link_cap
    inc_res, inc_flow = [], []
    link_load = np.zeros(num_links)
    for fid, flow in enumerate(flows):
        for e in flow.edges:
            if e in down:
                raise ValueError(
                    f"flow {fid} (path {flow.path}) crosses down link {e}; "
                    "re-synthesize the schedule for the degraded fabric or "
                    "drop the affected flows")
            idx = edge_index.get(e)
            if idx is None:
                raise ValueError(f"flow {fid} uses non-existent link {e}")
            inc_res.append(idx)
            inc_flow.append(fid)
            link_load[idx] += flow.size_bytes
        if injection_capped:
            inc_res.append(inj_base + flow.path[0])
            inc_flow.append(fid)
        if fwd_cap is not None:
            for node in flow.path[1:-1]:
                inc_res.append(fwd_base + node)
                inc_flow.append(fid)
        if ejection_capped:
            inc_res.append(ej_base + flow.path[-1])
            inc_flow.append(fid)
    if include_latency:
        delays = np.array([fabric.per_message_overhead + f.hops * fabric.per_hop_latency
                           for f in flows], dtype=float)
    else:
        delays = np.zeros(n)
    return dict(
        res_cap=res_cap,
        inc_res=np.asarray(inc_res, dtype=np.int64),
        inc_flow=np.asarray(inc_flow, dtype=np.int64),
        sizes=np.array([float(f.size_bytes) for f in flows]),
        start_delays=delays,
        max_link_bytes=float(link_load.max()) if num_links and n else 0.0,
        total_bytes=float(sum(f.size_bytes for f in flows)),
    )


_DOWN = {(2, 3), (3, 2)}    # the "degraded" fabric's down link


class TestCompileFlowsMatchesLoop:
    """The numpy ``compile_flows`` equals the per-edge loop it replaced,
    element for element, and raises its errors word for word."""

    FABRICS = {
        "plain": (FabricModel(), False),
        "injection": (FabricModel(link_bandwidth=50.0, injection_bandwidth=60.0,
                                  per_hop_latency=1e-4,
                                  per_message_overhead=1e-3), False),
        "forwarding": (cerio_hpc_fabric(), False),
        "ejection": (FabricModel(link_bandwidth=50.0, injection_bandwidth=60.0,
                                 forwarding_bandwidth=80.0), True),
        "degraded": (fabric_from_spec("hpc:scale=0~1:0.5,down=2~3"), False),
    }

    @staticmethod
    def _assert_equal(topo, flows, fabric, **kwargs):
        got = compile_flows(topo, flows, fabric, **kwargs)
        want = _compile_flows_loop(topo, flows, fabric, **kwargs)
        for name in ("res_cap", "inc_res", "inc_flow", "sizes", "start_delays"):
            assert getattr(got, name).dtype == want[name].dtype, name
            assert np.array_equal(getattr(got, name), want[name]), name
        assert got.max_link_bytes == want["max_link_bytes"]
        assert got.total_bytes == want["total_bytes"]
        return got

    @pytest.fixture(scope="class")
    def torus_flows(self):
        lowered = Plan(Scenario("torus:dims=4x4", scheme="mcf-extp")).run(
            "lower").lowered
        shard = 2 ** 20 / lowered.topology.num_nodes
        return lowered.topology, [
            FluidFlow(path=a.route, size_bytes=a.chunk.bytes(shard))
            for a in lowered.assignments]

    @pytest.mark.parametrize("kind", sorted(FABRICS))
    def test_torus_mcf_extp_program(self, torus_flows, kind):
        topo, flows = torus_flows
        fabric, ejection = self.FABRICS[kind]
        if kind == "degraded":   # no flow may cross the down link
            flows = [f for f in flows if not _DOWN.intersection(f.edges)]
        program = self._assert_equal(topo, flows, fabric,
                                     include_ejection=ejection)
        assert program.num_flows == len(flows) > 800
        num_links = len(topo.edges)
        if kind != "plain":
            assert len(program.res_cap) > num_links

    @pytest.mark.parametrize("kind", sorted(FABRICS))
    def test_random_flow_sets(self, kind):
        fabric, ejection = self.FABRICS[kind]
        rng = random.Random(kind)
        for spec in ("ring:n=6", "rrg:d=3,n=12,seed=5", "genkautz:d=3,n=10"):
            topo = from_spec(spec)
            flows = [f for f in _random_flows(topo, rng, n_flows=60)
                     if not _DOWN.intersection(f.edges)]
            self._assert_equal(topo, flows, fabric, include_ejection=ejection,
                               include_latency=rng.random() < 0.5)

    def test_empty_flow_set(self):
        self._assert_equal(ring(4), [], cerio_hpc_fabric())

    @pytest.mark.parametrize("paths, fabric", [
        # Several bad edges: the first, in entry order, names its flow.
        ([(0, 1), (1, 2, 3), (3, 0, 1), (2, 1)], ((3, 0), (2, 1))),
        ([(0, 1), (0, 2), (1, 0)], ((1, 0),)),
        ([(0, 1), (1, 2), (0, 2, 3), (3, 1)], ()),
        ([(0, 1), (1, 7), (1, 2)], ()),
        ([(0, 1), (1, -1)], ((1, 0),)),
        ([(0, 1, 2), (1, 0), (2, 0)], ((1, 0),)),
    ])
    def test_errors_name_the_first_offending_flow(self, paths, fabric):
        topo = ring(4)
        fab = ideal_fabric(link_bandwidth=1.0).degrade(down_links=fabric)
        flows = [FluidFlow(path=p, size_bytes=1.0) for p in paths]
        with pytest.raises(ValueError) as want:
            _compile_flows_loop(topo, flows, fab)
        with pytest.raises(ValueError) as got:
            compile_flows(topo, flows, fab)
        assert str(got.value) == str(want.value)


class TestFluidRunRules:
    """One edge rule, one stall error and one event cap for every front-end."""

    @pytest.mark.parametrize("front_end", ["execute", "cluster", "faults"])
    def test_event_cap_raises_the_same_error(self, front_end, monkeypatch,
                                             genkautz_routed_schedule):
        schedule = genkautz_routed_schedule
        monkeypatch.setattr(repro.constants, "SIM_MAX_EVENTS", 1)
        with pytest.raises(RuntimeError,
                           match=r"event budget \(max_events=1\)"):
            if front_end == "execute":
                execute(compile_flows(
                    ring(3), [FluidFlow(path=(0, 1), size_bytes=1000.0),
                              FluidFlow(path=(1, 2), size_bytes=500.0)],
                    ideal_fabric()))
            elif front_end == "cluster":
                run_cluster(schedule, "cluster:jobs=2", default_buffer=2 ** 20)
            else:
                u, v = schedule.topology.edges[0]
                run_faulted(schedule, 2 ** 20, f"faults:down={u}-{v}@1us",
                            validate=False)

    def test_zero_capacity_program_stalls(self):
        program = FlowProgram(
            num_flows=1, sizes=np.array([10.0]), start_delays=np.zeros(1),
            set_ids=np.zeros(1, dtype=np.int64), set_names=("a",),
            res_cap=np.zeros(1), inc_res=np.zeros(1, dtype=np.int64),
            inc_flow=np.zeros(1, dtype=np.int64))
        with pytest.raises(RuntimeError, match="stalled"):
            FluidRun(program).run()

    def test_sub_ulp_edge_completes_at_a_late_instant(self, monkeypatch):
        """``now + dt == now``: the edge rule finishes the flow at the edge.

        1e-5 bytes at 1e9 B/s take 1e-14 s, far below one ulp of t=1e6 s,
        and the residue is above ``SIM_BYTES_EPS``; without the edge rule
        the same edge would respawn until the event budget ran out.
        """
        monkeypatch.setattr(repro.constants, "SIM_MAX_EVENTS", 10)
        run = FluidRun(FlowInjector(ring(3), ideal_fabric(link_bandwidth=1e9)))
        done = []
        run.schedule_at(1e6, lambda: run.inject(
            [FluidFlow(path=(0, 1), size_bytes=1e-5)], "late", done.append))
        run.run()
        assert done == [1e6]
        assert run.queue.processed == 2


class TestDegradedFabricModel:
    def test_parse_link_set_directed_and_symmetric(self):
        assert parse_link_set("0-1|2-3") == ((0, 1), (2, 3))
        assert parse_link_set("0~1") == ((0, 1), (1, 0))
        with pytest.raises(ValueError):
            parse_link_set("0-1-2")

    def test_parse_link_scales(self):
        assert parse_link_scales("0-1:0.5") == (((0, 1), 0.5),)
        assert parse_link_scales("0~1:0.25") == (((0, 1), 0.25), ((1, 0), 0.25))
        with pytest.raises(ValueError):
            parse_link_scales("0-1")

    @pytest.mark.parametrize("spec,match", [
        ("hpc:link_gbps=25,link_gbps=50", "duplicate parameter 'link_gbps'"),
        ("hpc:down=0~1,down=2~3", "duplicate parameter 'down'"),
        ("hpc:bogus=1", "unknown parameter 'bogus'"),
    ])
    def test_fabric_spec_key_errors(self, spec, match):
        with pytest.raises(ValueError, match=match):
            fabric_from_spec(spec)

    @pytest.mark.parametrize("fields", [
        {"fabric": "hpc:scale=0~1:inf"},
        {"faults": "faults:scale=0~1*inf@1us"},
        {"faults": "faults:straggler=0*inf@1us"},
    ])
    def test_infinite_scale_factor_rejected_at_construction(self, fields):
        """An infinite factor used to put NaN in the fill and spin to the event cap."""
        with pytest.raises(ValueError, match="factor must be a finite number"):
            Scenario(topology="hypercube:dim=3", scheme="mcf-extp",
                     buffers=(2 ** 20,), **fields)

    @pytest.mark.parametrize("factor", [float("inf"), float("nan"), 0.0])
    def test_fabric_model_requires_finite_positive_factors(self, factor):
        with pytest.raises(ValueError, match="finite and positive"):
            FabricModel(link_scale=(((0, 1), factor),))

    def test_fabric_spec_with_degradation(self):
        fabric = fabric_from_spec("hpc:down=0~1,scale=2-3:0.5,forwarding_gbps=100")
        assert fabric.down_links == ((0, 1), (1, 0))
        assert fabric.link_scale == (((2, 3), 0.5),)
        assert fabric.forwarding_bandwidth == pytest.approx(100.0 * 1e9 / 8)
        assert fabric.degraded
        assert "degraded" in fabric.name

    def test_effective_link_bandwidth(self):
        fabric = fabric_from_spec("ideal:scale=0-1:0.5,down=1-2")
        assert fabric.effective_link_bandwidth(0, 1) == pytest.approx(0.5)
        assert fabric.effective_link_bandwidth(1, 2) == 0.0
        assert fabric.effective_link_bandwidth(2, 0) == pytest.approx(1.0)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            FabricModel(link_scale=(((0, 1), 0.0),))

    def test_degradation_changes_scenario_key(self):
        base = Scenario(topology="ring:n=4", scheme="ewsp", fabric="hpc",
                        buffers=(2 ** 20,))
        degraded = Scenario(topology="ring:n=4", scheme="ewsp",
                            fabric="hpc:scale=0~1:0.5", buffers=(2 ** 20,))
        assert base.key() != degraded.key()
        # Only the simulate stage sees the fabric: schedules are shared.
        assert base.stage_key("lower") == degraded.stage_key("lower")

    def test_invalid_fabric_rejected_eagerly(self):
        with pytest.raises(ValueError, match="duplicate parameter 'down'"):
            Scenario(topology="ring:n=4", scheme="ewsp",
                     fabric="hpc:down=0~1,down=2~3")


class TestOverlap:
    def test_overlap_changes_simulate_key_only(self):
        one = Scenario(topology="ring:n=4", scheme="ewsp", buffers=(2 ** 20,))
        two = Scenario(topology="ring:n=4", scheme="ewsp", buffers=(2 ** 20,),
                       overlap=2)
        assert one.key() != two.key()
        assert one.stage_key("lower") == two.stage_key("lower")

    def test_overlap_must_be_positive(self):
        with pytest.raises(ValueError, match="overlap"):
            Scenario(topology="ring:n=4", overlap=0)

    def test_two_copies_halve_throughput(self):
        plan_one = Plan(Scenario(topology="hypercube:dim=2", scheme="ewsp",
                                 fabric="ideal", buffers=(2 ** 20,)))
        plan_two = Plan(Scenario(topology="hypercube:dim=2", scheme="ewsp",
                                 fabric="ideal", buffers=(2 ** 20,), overlap=2))
        tp_one = plan_one.run().sim_results[0].throughput
        tp_two = plan_two.run().sim_results[0].throughput
        assert tp_two == pytest.approx(tp_one / 2, rel=1e-6)

    def test_per_collective_times_reported(self):
        plan = Plan(Scenario(topology="hypercube:dim=2", scheme="ewsp",
                             fabric="ideal", buffers=(2 ** 20,), overlap=3))
        result = plan.run().sim_results[0]
        times = result.per_collective_seconds
        assert len(times) == 3
        assert max(times) == pytest.approx(result.completion_time)

    def test_routed_overlap_meta(self):
        topo = from_spec("hypercube:dim=2")
        schedule = Plan(Scenario(topology=topo, scheme="ewsp")).run("lower").lowered
        res = run_routed_collective(schedule, buffer_bytes=2 ** 20,
                                    fabric=cerio_hpc_fabric(), overlap=2)
        assert len(res.meta["per_collective_seconds"]) == 2
        assert res.meta["fill_rounds"] >= 1

    def test_overlap_metrics_in_sweep_record(self):
        from repro.experiments import run_sweep

        scenario = Scenario(topology="hypercube:dim=2", scheme="ewsp",
                            buffers=(2 ** 20,), overlap=2)
        record = run_sweep([scenario])[0]
        assert record.status == "ok"
        assert record.metrics["sim_fill_rounds"] >= 1
        assert record.metrics["sim_events"] >= 1
        times = record.metrics["overlap_completion_seconds"][str(2 ** 20)]
        assert len(times) == 2


def _drain(queue):
    """Step ``queue`` until no live event is left, as the fluid loop does."""
    while queue.peek() < float("inf"):
        assert queue.step()
    assert not queue.step()


class TestEventQueue:
    """Regression tests for the scheduler edge cases the fault runner leans on."""

    def test_cancel_after_pop_is_noop_and_reports_false(self):
        from repro.simulator.events import EventQueue

        queue = EventQueue()
        fired = []
        first = queue.schedule(1.0, lambda: fired.append("first"))
        queue.schedule(2.0, lambda: fired.append("second"))
        assert queue.step()
        assert first.executed
        # Cancelling the already-popped event must not corrupt the queue.
        assert first.cancel() is False
        _drain(queue)
        assert fired == ["first", "second"]
        assert queue.processed == 2

    def test_cancel_before_pop_reports_true_and_skips(self):
        from repro.simulator.events import EventQueue

        queue = EventQueue()
        fired = []
        victim = queue.schedule(1.0, lambda: fired.append("victim"))
        queue.schedule(2.0, lambda: fired.append("kept"))
        assert victim.cancel() is True
        assert victim.cancel() is True  # idempotent while unexecuted
        _drain(queue)
        assert fired == ["kept"]
        assert queue.processed == 1

    def test_equal_timestamp_events_fire_in_insertion_order(self):
        from repro.simulator.events import EventQueue

        queue = EventQueue()
        fired = []
        # Scheduled out of lexical order on the same timestamp: insertion
        # order (the sequence counter) must win, deterministically.
        queue.schedule_at(5.0, lambda: fired.append("a"))
        queue.schedule_at(5.0, lambda: fired.append("b"))
        queue.schedule_at(3.0, lambda: fired.append("early"))
        queue.schedule_at(5.0, lambda: fired.append("c"))
        _drain(queue)
        assert fired == ["early", "a", "b", "c"]

    def test_cancel_from_inside_own_callback_reports_false(self):
        from repro.simulator.events import EventQueue

        queue = EventQueue()
        results = []
        holder = {}

        def callback():
            results.append(holder["event"].cancel())

        holder["event"] = queue.schedule(1.0, callback)
        _drain(queue)
        assert results == [False]

    def test_heap_stays_bounded_under_cancel_schedule_cycles(self):
        """Lazy compaction: dead entries never dominate a large heap.

        The fault runner's pattern — cancel the pending completion, schedule
        a replacement, thousands of times — used to grow the heap linearly
        with simulated time; the lazy sweep must keep it within a constant
        factor of the live event count.
        """
        from repro.simulator.events import EventQueue

        queue = EventQueue()
        live = [queue.schedule(float(i) + 1e6, lambda: None)
                for i in range(100)]
        pending = queue.schedule(1.0, lambda: None)
        for i in range(10_000):
            pending.cancel()
            pending = queue.schedule(float(i % 7) + 1.0, lambda: None)
        # 10k cancels against ~101 live events: without compaction the heap
        # holds ~10k dead entries; with it, dead can never exceed live + 1.
        assert len(queue) <= 2 * (len(live) + 1) + 1
        assert not queue.empty()

    def test_compaction_preserves_order_and_pending_events(self):
        from repro.simulator.events import EventQueue

        queue = EventQueue()
        fired = []
        keep = [queue.schedule(float(t), lambda t=t: fired.append(t))
                for t in (5, 3, 9)]
        victim = queue.schedule(1.0, lambda: fired.append("victim"))
        for i in range(200):        # force several compaction sweeps
            victim.cancel()
            victim = queue.schedule(0.5, lambda: fired.append("victim"))
        victim.cancel()
        # 204 entries were pushed; the sweeps keep the heap under twice
        # the size at which they start.
        assert len(queue) < 2 * 64
        _drain(queue)
        assert fired == [3.0, 5.0, 9.0]
        assert all(e.executed for e in keep)


class TestStepSimEdgeCases:
    def test_single_flow_schedule(self):
        """A schedule with exactly one send (satellite edge case)."""
        from repro.schedule import Chunk, LinkSchedule, LinkSendOp

        topo = ring(3)
        schedule = LinkSchedule(topo, 1, [LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 1)])
        fabric = FabricModel(link_bandwidth=100.0, per_step_latency=0.0,
                             per_message_overhead=0.0, nic_forwarding=False)
        res = simulate_link_schedule(schedule, shard_bytes=200.0, fabric=fabric)
        assert res.total_time == pytest.approx(2.0)
        assert res.fill_rounds >= 1

    def test_zero_byte_step_costs_latency_only(self):
        from repro.schedule import Chunk, LinkSchedule, LinkSendOp

        topo = ring(3)
        # hi == lo + 0 is invalid; use a tiny chunk and zero shard bytes.
        schedule = LinkSchedule(topo, 1, [LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 1)])
        fabric = FabricModel(link_bandwidth=100.0, per_step_latency=0.5,
                             per_message_overhead=0.25, nic_forwarding=False)
        res = simulate_link_schedule(schedule, shard_bytes=0.0, fabric=fabric)
        assert res.total_time == pytest.approx(0.75)

    def test_empty_step_contributes_nothing(self):
        from repro.schedule import Chunk, LinkSchedule, LinkSendOp

        topo = ring(3)
        schedule = LinkSchedule(topo, 2, [LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 2)])
        fabric = FabricModel(link_bandwidth=100.0, per_step_latency=0.5,
                             per_message_overhead=0.0, nic_forwarding=False)
        res = simulate_link_schedule(schedule, shard_bytes=100.0, fabric=fabric)
        assert res.step_times[0] == 0.0
        assert res.step_times[1] == pytest.approx(1.5)

    def test_down_link_in_schedule_rejected(self):
        from repro.schedule import Chunk, LinkSchedule, LinkSendOp

        topo = ring(3)
        schedule = LinkSchedule(topo, 1, [LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 1)])
        fabric = FabricModel(nic_forwarding=False).degrade(down_links=((0, 1),))
        with pytest.raises(ValueError, match="down link"):
            simulate_link_schedule(schedule, shard_bytes=100.0, fabric=fabric)

    def test_overlap_doubles_step_time(self):
        from repro.schedule import Chunk, LinkSchedule, LinkSendOp

        topo = ring(3)
        schedule = LinkSchedule(topo, 1, [LinkSendOp(Chunk(0, 1, 0.0, 1.0), 0, 1, 1)])
        fabric = FabricModel(link_bandwidth=100.0, per_step_latency=0.0,
                             per_message_overhead=0.0, nic_forwarding=False)
        one = simulate_link_schedule(schedule, 100.0, fabric, overlap=1)
        two = simulate_link_schedule(schedule, 100.0, fabric, overlap=2)
        assert two.total_time == pytest.approx(2 * one.total_time)


class TestGoldenPanels:
    """Fig. 4 / Table 1 panels must match the pre-refactor simulator byte-for-byte."""

    BUFFERS = (2 ** 15, 2 ** 19)

    def test_fig4_twisted_matches_golden_file(self):
        from repro.report.specs import FIG4, run_panel

        data = run_panel(FIG4, FIG4.panel("twisted"), buffers=self.BUFFERS)
        assert data.tables[0].text + "\n" == (GOLDEN / "fig4_twisted.txt").read_text()

    def test_table1_matches_golden_file(self):
        from repro.report.specs import TABLE1, run_panel

        data = run_panel(TABLE1, TABLE1.panel("forwarding"))
        expected = (GOLDEN / "table1_forwarding.txt").read_text()
        assert "\n\n".join(t.text for t in data.tables) + "\n" == expected


class TestFooter:
    def test_footer_includes_sim_counters(self):
        from repro.analysis import format_engine_footer

        line = format_engine_footer(
            {"lp-cache.hits": 1, "lp-cache.misses": 2,
             "stage-cache.hits": 3, "stage-cache.misses": 4,
             "sim.fill_rounds": 10, "sim.events": 5}, "x")
        assert "sim: 10 fill rounds / 5 events" in line

    def test_simulate_cli_prints_sim_counters(self, capsys):
        from repro.cli import main

        assert main(["simulate", "ring:n=4", "--scheme", "ewsp",
                     "--buffers", "1048576"]) == 0
        captured = capsys.readouterr()
        assert "throughput" in captured.out
        assert "fill rounds" in captured.err

    def test_simulate_cli_jsonl_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "sim.jsonl")
        args = ["simulate", "ring:n=4", "--scheme", "ewsp", "--overlap", "2",
                "--buffers", "1048576", "--out", out]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "resumed" in capsys.readouterr().out
        assert len(open(out).readlines()) == 1

    def test_simulate_cli_degraded_error_exit_code(self, capsys):
        from repro.cli import main

        assert main(["simulate", "ring:n=4", "--scheme", "ewsp",
                     "--fabric", "hpc:down=0~1", "--buffers", "1048576"]) == 1
        assert "down link" in capsys.readouterr().out
