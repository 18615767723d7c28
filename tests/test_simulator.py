"""Tests for the fabric simulator: events, fluid flows, step simulation, collectives."""

import pytest

from repro import obs
from repro.schedule import Chunk, LinkSchedule, LinkSendOp
from repro.simulator import (
    GBPS,
    EventQueue,
    FabricModel,
    FluidFlow,
    a100_ml_fabric,
    alltoall_time_upper_bound,
    cerio_hpc_fabric,
    ideal_fabric,
    run_link_collective,
    run_routed_collective,
    simulate_link_schedule,
    simulate_program,
    steady_state_throughput,
    throughput_sweep,
)
from repro.topology import complete, hypercube, ring


def _step_through(queue, until=float("inf")):
    """Fire the events at or before ``until`` with ``peek``/``step``."""
    while queue.peek() <= until and queue.step():
        pass


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        _step_through(q)
        assert fired == ["a", "b", "c"]
        assert q.now == 3.0

    def test_ties_fire_in_insertion_order(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(1.0, lambda: fired.append(2))
        _step_through(q)
        assert fired == [1, 2]

    def test_cancellation(self):
        q = EventQueue()
        fired = []
        ev = q.schedule(1.0, lambda: fired.append("x"))
        ev.cancel()
        _step_through(q)
        assert fired == []

    def test_run_until(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(5.0, lambda: fired.append(2))
        _step_through(q, until=2.0)
        assert fired == [1]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)


class TestFabricModel:
    def test_effective_injection_defaults_to_degree_times_link(self):
        fabric = FabricModel(link_bandwidth=10.0, injection_bandwidth=None)
        assert fabric.effective_injection(4) == 40.0

    def test_injection_limited(self):
        fabric = cerio_hpc_fabric()          # 100 Gbps injection, 25 Gbps links
        assert fabric.injection_limited(6)   # 150 Gbps NIC > 100 Gbps host
        assert not fabric.injection_limited(3)

    def test_presets(self):
        assert cerio_hpc_fabric().nic_forwarding
        assert not a100_ml_fabric().nic_forwarding
        assert ideal_fabric().per_step_latency == 0.0
        assert cerio_hpc_fabric().link_bandwidth == pytest.approx(25 * GBPS)


class TestFluidFlowSimulator:
    def test_single_flow_serialization_time(self):
        topo = ring(3)
        fabric = ideal_fabric(link_bandwidth=100.0)
        res = simulate_program(topo, [FluidFlow(path=(0, 1), size_bytes=1000.0)], fabric)
        assert res.completion_time == pytest.approx(10.0)

    def test_two_flows_share_a_link_fairly(self):
        topo = ring(3)
        fabric = ideal_fabric(link_bandwidth=100.0)
        flows = [FluidFlow(path=(0, 1), size_bytes=1000.0),
                 FluidFlow(path=(0, 1, 2), size_bytes=1000.0)]
        res = simulate_program(topo, flows, fabric)
        # Both share link (0,1) at 50 B/s; after the first finishes at t=20 the
        # second has already streamed through (cut-through), so both finish at 20.
        assert res.completion_time == pytest.approx(20.0)

    def test_disjoint_flows_finish_independently(self):
        topo = complete(4)
        fabric = ideal_fabric(link_bandwidth=100.0)
        flows = [FluidFlow(path=(0, 1), size_bytes=500.0),
                 FluidFlow(path=(2, 3), size_bytes=1000.0)]
        res = simulate_program(topo, flows, fabric)
        assert res.flow_completion_times[0] == pytest.approx(5.0)
        assert res.flow_completion_times[1] == pytest.approx(10.0)

    def test_latency_added_per_hop(self):
        topo = ring(4)
        fabric = FabricModel(link_bandwidth=100.0, per_hop_latency=1e-3,
                             per_message_overhead=2e-3, per_step_latency=0.0)
        res = simulate_program(topo, [FluidFlow(path=(0, 1, 2, 3), size_bytes=100.0)], fabric)
        assert res.completion_time == pytest.approx(1.0 + 3e-3 + 2e-3)

    def test_injection_cap_slows_fanout(self):
        topo = complete(4)
        capped = FabricModel(link_bandwidth=100.0, injection_bandwidth=100.0,
                             per_hop_latency=0.0, per_message_overhead=0.0,
                             per_step_latency=0.0)
        uncapped = ideal_fabric(link_bandwidth=100.0)
        flows = [FluidFlow(path=(0, d), size_bytes=300.0) for d in (1, 2, 3)]
        slow = simulate_program(topo, flows, capped).completion_time
        fast = simulate_program(topo, flows, uncapped).completion_time
        assert slow == pytest.approx(3 * fast, rel=1e-6)

    def test_zero_byte_flow(self):
        topo = ring(3)
        res = simulate_program(topo, [FluidFlow(path=(0, 1), size_bytes=0.0)],
                               ideal_fabric())
        assert res.completion_time == pytest.approx(0.0)

    def test_empty_flow_list(self):
        assert simulate_program(ring(3), [], ideal_fabric()).completion_time == 0.0

    def test_conservation_of_total_bytes(self):
        topo = hypercube(2)
        flows = [FluidFlow(path=(0, 1, 3), size_bytes=100.0),
                 FluidFlow(path=(0, 2), size_bytes=50.0)]
        res = simulate_program(topo, flows, ideal_fabric())
        assert res.total_bytes == pytest.approx(150.0)
        assert res.max_link_bytes == pytest.approx(100.0)


class TestStepSimulator:
    def _two_step_schedule(self):
        topo = ring(3)
        ops = []
        for s, d in topo.commodities():
            path = [s]
            while path[-1] != d:
                path.append((path[-1] + 1) % 3)
            for i, (u, v) in enumerate(zip(path[:-1], path[1:]), start=1):
                ops.append(LinkSendOp(Chunk(s, d, 0.0, 1.0), u, v, i))
        return LinkSchedule(topo, 2, ops)

    def test_step_time_from_busiest_link(self):
        schedule = self._two_step_schedule()
        fabric = FabricModel(link_bandwidth=100.0, per_step_latency=0.0,
                             per_message_overhead=0.0, nic_forwarding=False)
        res = simulate_link_schedule(schedule, shard_bytes=100.0, fabric=fabric)
        # Step 1: each link carries 2 shards -> 2s; step 2: 1 shard -> 1s.
        assert res.step_times == pytest.approx([2.0, 1.0])
        assert res.total_time == pytest.approx(3.0)

    def test_per_step_latency_added(self):
        schedule = self._two_step_schedule()
        fabric = FabricModel(link_bandwidth=100.0, per_step_latency=0.5,
                             per_message_overhead=0.0, nic_forwarding=False)
        res = simulate_link_schedule(schedule, shard_bytes=100.0, fabric=fabric)
        assert res.total_time == pytest.approx(4.0)

    def test_algorithm_bandwidth(self):
        schedule = self._two_step_schedule()
        fabric = FabricModel(link_bandwidth=100.0, per_step_latency=0.0,
                             per_message_overhead=0.0, nic_forwarding=False)
        res = simulate_link_schedule(schedule, shard_bytes=100.0, fabric=fabric)
        assert res.algorithm_bandwidth == pytest.approx(2 * 100.0 / 3.0)

    def test_channels_reduce_overhead_only(self):
        schedule = self._two_step_schedule()
        fabric = FabricModel(link_bandwidth=100.0, per_step_latency=0.0,
                             per_message_overhead=1.0, nic_forwarding=False)
        one = simulate_link_schedule(schedule, 100.0, fabric, num_channels=1).total_time
        two = simulate_link_schedule(schedule, 100.0, fabric, num_channels=2).total_time
        assert two < one


class TestCollectiveRunner:
    def test_link_collective_throughput_near_bound(self, cube3, cube3_link_schedule):
        fabric = a100_ml_fabric()
        result = run_link_collective(cube3_link_schedule, buffer_bytes=2 ** 28, fabric=fabric)
        bound = steady_state_throughput(8, 0.25, fabric)
        assert result.throughput <= bound + 1e-6
        assert result.throughput >= 0.9 * bound

    def test_routed_collective_throughput_near_bound(self, genkautz_3_10,
                                                     genkautz_extp,
                                                     genkautz_routed_schedule):
        fabric = cerio_hpc_fabric()
        result = run_routed_collective(genkautz_routed_schedule, buffer_bytes=2 ** 28,
                                       fabric=fabric)
        bound = steady_state_throughput(10, genkautz_extp.concurrent_flow, fabric)
        assert result.throughput <= bound * 1.001
        assert result.throughput >= 0.85 * bound

    def test_throughput_monotone_in_buffer_size(self, cube3_link_schedule):
        fabric = a100_ml_fabric()
        sweep = throughput_sweep(cube3_link_schedule, [2 ** 16, 2 ** 20, 2 ** 24, 2 ** 28],
                                 fabric=fabric)
        tps = [r.throughput for r in sweep]
        assert tps == sorted(tps)

    def test_sweep_supports_routed_schedules(self, genkautz_routed_schedule):
        sweep = throughput_sweep(genkautz_routed_schedule, [2 ** 20, 2 ** 24],
                                 fabric=cerio_hpc_fabric())
        assert len(sweep) == 2
        assert all(r.schedule_kind == "routed" for r in sweep)

    def test_sweep_rejects_unknown_schedule_type(self):
        with pytest.raises(TypeError):
            throughput_sweep(object(), [1024])


class TestOneProgramPerSweep:
    """A routed buffer sweep compiles one program and reuses its fills."""

    BUFFERS = (2.0 ** 16, 2.0 ** 18, 2.0 ** 20, 2.0 ** 22)

    @staticmethod
    def _separate_program(schedule, buf, fabric, overlap):
        """The buffer on a program of its own, flows sized in bytes."""
        shard = buf / schedule.topology.num_nodes
        flows = [FluidFlow(path=a.route, size_bytes=a.chunk.bytes(shard))
                 for _ in range(overlap) for a in schedule.assignments]
        set_ids = [c for c in range(overlap) for _ in schedule.assignments]
        return simulate_program(schedule.topology, flows, fabric, set_ids=set_ids,
                                set_names=[f"copy{c}" for c in range(overlap)])

    @pytest.mark.parametrize("overlap", [1, 2])
    def test_sweep_equals_one_shot_runs_bit_for_bit(self, genkautz_routed_schedule,
                                                    overlap):
        schedule, fabric = genkautz_routed_schedule, cerio_hpc_fabric()
        swept = throughput_sweep(schedule, self.BUFFERS, fabric, overlap=overlap)
        counts = obs.snapshot()
        assert counts["sim.fill_hits"] > 0
        assert counts["sim.fill_rounds"] == sum(r.meta["fill_rounds"] for r in swept)
        for buf, got in zip(self.BUFFERS, swept):
            alone = run_routed_collective(schedule, buf, fabric, validate=False,
                                          overlap=overlap)
            assert got.completion_time == alone.completion_time
            assert got.meta == alone.meta
            assert set(got.meta) >= {"fill_rounds", "events", "max_link_bytes",
                                     "num_flows"}
            assert ("per_collective_seconds" in got.meta) == (overlap > 1)
            separate = self._separate_program(schedule, buf, fabric, overlap)
            assert got.completion_time == separate.completion_time
            assert got.meta["max_link_bytes"] == separate.max_link_bytes
            assert got.meta["fill_rounds"] == separate.fill_rounds
            assert got.meta["events"] == separate.events_processed

    def test_kernel_runs_fewer_times_than_once_per_buffer(
            self, genkautz_routed_schedule, monkeypatch):
        import repro.simulator.engine as engine

        calls = [0]
        kernel = engine.run_fill

        def counting(*args):
            calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(engine, "run_fill", counting)
        schedule, fabric = genkautz_routed_schedule, cerio_hpc_fabric()
        run_routed_collective(schedule, self.BUFFERS[0], fabric)
        one = calls[0]
        calls[0] = 0
        throughput_sweep(schedule, self.BUFFERS, fabric)
        assert 0 < calls[0] < 4 * one
        assert obs.snapshot()["sim.fill_hits"] > 0

    def test_arena_programs_hold_no_memo(self, genkautz_routed_schedule,
                                         monkeypatch):
        from repro.cluster import run_cluster
        from repro.faults import run_faulted
        from repro.perf.delta import DeltaProgram

        programs = []
        init_views = DeltaProgram._init_views

        def recording(self):
            init_views(self)
            programs.append(self.program)

        monkeypatch.setattr(DeltaProgram, "_init_views", recording)
        schedule = genkautz_routed_schedule
        run_cluster(schedule,
                    "cluster:jobs=4:arrival=poisson~8000:placement=random:seed=3",
                    default_buffer=float(2 ** 20))
        u, v = schedule.topology.edges[0]
        run_faulted(schedule, 2 ** 20, f"faults:down={u}~{v}@10us:up@30us",
                    fabric=cerio_hpc_fabric(), validate=False)
        assert programs
        assert all(not program.fills for program in programs)


class TestCostModel:
    def test_steady_state_throughput_paper_number(self):
        fabric = FabricModel(link_bandwidth=3.125e9)
        assert steady_state_throughput(27, 2 / 27, fabric) == pytest.approx(6.02e9, rel=1e-2)

    def test_alltoall_time_upper_bound_positive(self, cube3):
        t = alltoall_time_upper_bound(cube3, 0.25, shard_bytes=2 ** 20,
                                      fabric=cerio_hpc_fabric())
        assert t > 0
