"""Tests for the repro.perf fill kernel.

The numpy fill is checked two ways that do not trust it: against the scalar
reference oracle (:func:`repro.simulator.reference.max_min_rates_reference`)
and against a max-min certificate (:func:`assert_max_min`) — on randomized
topologies and fabrics, overlap programs, a cluster arena with retired rows
and a fault-patched :class:`~repro.perf.delta.DeltaProgram`.  Around it:
adversarial exact-tie bottleneck patterns with pinned round counts, the
reusable workspace under growing and shrinking masks (also a cluster
arena's), active flows with no incidence entries and the ``[stats]`` footer.
The stacked fill over many programs is checked block by block against the
separate fill.
"""

import random
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from repro import obs
from repro.analysis import format_engine_footer
from repro.cluster import FlowInjector
from repro.constants import SIM_EPS
from repro.perf import (
    DeltaProgram,
    FillWorkspace,
    StackedWorkspace,
    fill_rates_numpy,
    fill_stacked_numpy,
)
from repro.simulator import (
    FabricModel,
    FluidFlow,
    FluidRun,
    cerio_hpc_fabric,
    compile_flows,
    fabric_from_spec,
    ideal_fabric,
    simulate_flows_reference,
    simulate_program,
)
from repro.simulator.reference import max_min_rates_reference
from repro.topology import from_spec, hypercube, ring

#: Relative tolerance of the max-min certificate.
CERT_RTOL = 1e-9


def assert_max_min(program, active, rates):
    """Certify ``rates`` as the max-min fair fill of ``program``'s ``active`` flows.

    Reads only the incidence, the capacities and the mask, never the kernel:

    * capacity — on every resource the rates summed over its incidence
      entries (duplicates included) stay within ``res_cap * (1 + 1e-9)``;
    * inactive flows have rate 0;
    * bottleneck — every active flow crosses a resource that is saturated
      to 1e-9 relative and on which its rate is the maximum.
    """
    inc_res = np.asarray(program.inc_res)
    inc_flow = np.asarray(program.inc_flow)
    cap = np.asarray(program.res_cap, dtype=float)
    rates = np.asarray(rates, dtype=float)
    active = np.asarray(active, dtype=bool)
    assert (rates[~active] == 0.0).all(), "an inactive flow has a rate"
    load = np.bincount(inc_res, weights=rates[inc_flow], minlength=len(cap))
    over = load > cap * (1.0 + CERT_RTOL)
    assert not over.any(), f"resources {np.flatnonzero(over)} over capacity"
    top = np.zeros(len(cap))
    np.maximum.at(top, inc_res, rates[inc_flow])
    saturated = load >= cap * (1.0 - CERT_RTOL)
    on_bottleneck = (saturated[inc_res]
                     & (rates[inc_flow] >= top[inc_res] * (1.0 - CERT_RTOL)))
    certified = np.zeros(len(rates), dtype=bool)
    certified[inc_flow[on_bottleneck]] = True
    missing = active & ~certified
    assert not missing.any(), f"flows {np.flatnonzero(missing)} have no bottleneck"


def assert_matches_reference(rates, flows, active, topology, fabric):
    """``rates`` equal the scalar oracle's fill of the active ``flows`` to 1e-9."""
    live = np.flatnonzero(active).tolist()
    want = max_min_rates_reference(flows, live, topology, fabric)
    expect = np.zeros(len(flows))
    expect[live] = [want[i] for i in live]
    np.testing.assert_allclose(rates, expect, rtol=1e-9, atol=1e-9)


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


class TestKernelDifferential:
    """The numpy fill matches the scalar oracle and passes the certificate."""

    TOPOLOGIES = ["ring:n=6", "hypercube:dim=3", "torus:dims=3x3",
                  "rrg:d=3,n=12,seed=5", "genkautz:d=3,n=10"]
    FABRICS = [
        ideal_fabric(link_bandwidth=100.0),
        cerio_hpc_fabric(),
        FabricModel(link_bandwidth=50.0, injection_bandwidth=60.0,
                    per_hop_latency=1e-4, per_message_overhead=1e-3),
        fabric_from_spec("hpc:scale=0~1:0.5"),
    ]

    @pytest.mark.parametrize("spec", TOPOLOGIES)
    @pytest.mark.parametrize("fabric_idx", range(len(FABRICS)))
    def test_fill_rates_agree_across_kernels(self, spec, fabric_idx):
        topo = from_spec(spec)
        fabric = self.FABRICS[fabric_idx]
        rng = random.Random(hash(("kern", spec, fabric_idx)) % (2 ** 31))
        flows = _random_flows(topo, rng, n_flows=40, zero_fraction=0.0)
        program = compile_flows(topo, flows, fabric)
        active = np.ones(program.num_flows, dtype=bool)
        # Randomly deactivate some flows: mid-simulation refill shape.
        active[rng.sample(range(program.num_flows), 8)] = False
        rates, _ = fill_rates_numpy(program, active)
        assert_matches_reference(rates, flows, active, topo, fabric)
        assert_max_min(program, active, rates)
        assert not rates[active].min() <= 0.0

    def test_certificate_rejects_perturbed_rates(self):
        """Scaling any one flow's rate by 1.01 or 0.99 fails the certificate."""
        topo = from_spec("torus:dims=3x3")
        fabric = cerio_hpc_fabric()
        flows = _random_flows(topo, random.Random(7), n_flows=30,
                              zero_fraction=0.0)
        program = compile_flows(topo, flows, fabric)
        active = np.ones(program.num_flows, dtype=bool)
        active[:4] = False
        rates, _ = fill_rates_numpy(program, active)
        assert_max_min(program, active, rates)
        for flow in np.flatnonzero(active):
            for factor in (1.01, 0.99):
                bad = rates.copy()
                bad[flow] *= factor
                with pytest.raises(AssertionError):
                    assert_max_min(program, active, bad)
        bad = rates.copy()
        bad[0] = 1.0
        with pytest.raises(AssertionError, match="inactive"):
            assert_max_min(program, active, bad)

    @pytest.mark.parametrize("spec", TOPOLOGIES[:3])
    def test_simulation_matches_reference_under_each_kernel(self, spec):
        topo = from_spec(spec)
        fabric = cerio_hpc_fabric()
        rng = random.Random(hash(("sim", spec)) % (2 ** 31))
        flows = _random_flows(topo, rng, n_flows=30)
        fast = simulate_program(topo, flows, fabric)
        slow = simulate_flows_reference(topo, flows, fabric)
        assert fast.completion_time == pytest.approx(slow.completion_time,
                                                     abs=1e-9)
        for a, b in zip(fast.flow_completion_times, slow.flow_completion_times):
            assert a == pytest.approx(b, abs=1e-9)

    def test_overlap_program_agrees(self):
        topo = hypercube(3)
        fabric = cerio_hpc_fabric()
        rng = random.Random(11)
        flows = _random_flows(topo, rng, n_flows=24, zero_fraction=0.0)
        program = compile_flows(
            topo, flows, fabric,
            set_ids=[i % 2 for i in range(len(flows))],
            set_names=["a", "b"])
        active = np.ones(program.num_flows, dtype=bool)
        rates, _ = fill_rates_numpy(program, active)
        assert_matches_reference(rates, flows, active, topo, fabric)
        assert_max_min(program, active, rates)

    def test_cluster_injector_fills_agree(self):
        """A cluster arena holding retired rows fills like the oracle."""
        topo = hypercube(3)
        fabric = cerio_hpc_fabric()
        rng = random.Random(23)
        run = FluidRun(FlowInjector(topo, fabric))
        drained = []
        flows = _random_flows(topo, rng, 10, zero_fraction=0.0)
        run.inject(flows, "a", drained.append)
        run.run(until=1e-12)
        more = _random_flows(topo, rng, 10, zero_fraction=0.0)
        flows += more
        run.inject(more, "b", drained.append)
        run.run(until=2e-12)
        program = run.program
        expect, _ = fill_rates_numpy(
            program, np.ones(program.num_flows, dtype=bool))
        np.testing.assert_allclose(run.rates, expect, rtol=1e-9, atol=1e-9)
        # Run on until some flows retire; their rows stay in the arena,
        # masked out of the fill, until dead rows outnumber live ones.
        until = 2e-12
        while np.count_nonzero(~run.active) < 3:
            until *= 2
            run.run(until=until)
        assert run.program.num_flows == len(flows) == len(run.active)
        assert run.active.any()
        rates, _ = fill_rates_numpy(run.program, run.active, run.workspace)
        assert_matches_reference(rates, flows, run.active, topo, fabric)
        assert_max_min(run.program, run.active, rates)
        # Drain both sets; survivors keep filling consistently.
        run.run()
        assert len(drained) == 2 and not run.active.any()

    def test_delta_program_after_apply_certifies(self):
        """Reroutes that shorten and swap routes fill exactly."""
        topo = hypercube(3)
        fabric = cerio_hpc_fabric()
        paths = [(0, 1, 3, 2), (1, 3, 7), (4, 5, 7, 6), (2, 6), (0, 4, 5),
                 (3, 1, 0), (5, 1, 3)]
        delta = DeltaProgram(topo, fabric, paths, [1.0] * len(paths))
        epoch = replace(fabric, down_links=((0, 1), (1, 0)))
        routes = list(paths)
        routes[0] = (0, 2)          # shorter: its entry count drops
        routes[5] = (3, 2, 0)
        delta.apply(epoch, {0: routes[0], 5: routes[5]})
        flows = [FluidFlow(path=p, size_bytes=1.0) for p in routes]
        fresh = compile_flows(topo, flows, epoch, include_latency=False)
        assert len(delta.ent_res) == len(fresh.inc_res)
        active = np.ones(delta.num_flows, dtype=bool)
        rates, _ = fill_rates_numpy(delta.program, active)
        assert_matches_reference(rates, flows, active, topo, epoch)
        assert_max_min(delta.program, active, rates)

    def test_exact_tie_bottlenecks_identical_rounds(self):
        """Adversarial exact ties: the whole tie freezes in one round.

        A star of identical-capacity links with one flow each is an exact
        |links|-way tie; integer capacities make the shares exactly
        representable, so the fill must freeze the whole tie in one round.
        """
        edges = [(0, i) for i in range(1, 9)]
        graph = nx.DiGraph()
        graph.add_nodes_from(range(9))
        for u, v in edges:
            graph.add_edge(u, v, cap=1.0)
            graph.add_edge(v, u, cap=1.0)
        from repro.topology.base import Topology
        topo = Topology(name="star8", graph=graph)
        flows = [FluidFlow(path=(0, i), size_bytes=64.0) for i in range(1, 9)]
        program = compile_flows(topo, flows, ideal_fabric(link_bandwidth=2.0))
        active = np.ones(program.num_flows, dtype=bool)
        rates, rounds = fill_rates_numpy(program, active)
        assert rounds == 1, "an exact tie was split across rounds"
        np.testing.assert_array_equal(rates, np.full(8, 2.0))

    def test_two_tier_exact_ties(self):
        """Two exact tie groups at different shares: exactly two rounds."""
        topo = ring(6)
        flows = ([FluidFlow(path=(i, (i + 1) % 6), size_bytes=100.0)
                  for i in range(3)]
                 + [FluidFlow(path=(3, 4), size_bytes=100.0),
                    FluidFlow(path=(3, 4), size_bytes=100.0)])
        program = compile_flows(topo, flows, ideal_fabric(link_bandwidth=8.0))
        active = np.ones(program.num_flows, dtype=bool)
        rates, rounds = fill_rates_numpy(program, active)
        assert rounds == 2
        np.testing.assert_array_equal(rates, [8.0, 8.0, 8.0, 4.0, 4.0])


class TestFillCounters:
    def test_footer_pins_fill_seconds(self):
        simulate_program(ring(4), [FluidFlow(path=(0, 1), size_bytes=100.0)],
                         ideal_fabric(link_bandwidth=5.0))
        assert obs.snapshot()["sim.fill_seconds"] > 0.0
        obs.reset()
        assert obs.snapshot().get("sim.fill_seconds", 0.0) == 0.0
        line = format_engine_footer(
            {"lp-cache.hits": 1, "lp-cache.misses": 2, "lp-cache.disk_hits": 0,
             "stage-cache.hits": 0, "stage-cache.misses": 0,
             "sim.fill_rounds": 10, "sim.events": 5, "sim.fill_seconds": 0.25},
            "scipy-highs")
        assert line == ("[stats] lp-cache: 1 hits / 2 misses (0 from disk) "
                        "backend=scipy-highs; stage-cache: 0 hits / 0 misses; "
                        "sim: 10 fill rounds / 5 events [0.250s fill]")


class TestFillWorkspace:
    @staticmethod
    def _grow_and_shrink(rng, num_flows, fills=8):
        """Active masks that alternately drop and restore a third of the flows."""
        active = np.ones(num_flows, dtype=bool)
        for i in range(fills):
            yield active
            active = active.copy()
            active[rng.sample(range(num_flows), num_flows // 3)] = i % 2 == 1
        yield np.zeros(num_flows, dtype=bool)

    def _assert_reuse_matches_fresh(self, program, ws, masks):
        for active in masks:
            reused, r1 = fill_rates_numpy(program, active, workspace=ws)
            assert reused is ws.rates  # the arena, not a copy
            assert not ws.freeze.any(), "a fill left the freeze mask set"
            fresh, r2 = fill_rates_numpy(program, active)
            np.testing.assert_array_equal(reused, fresh)
            assert r1 == r2

    def test_workspace_reuse_matches_fresh_fills(self):
        topo = hypercube(3)
        rng = random.Random(3)
        flows = _random_flows(topo, rng, n_flows=30, zero_fraction=0.0)
        program = compile_flows(topo, flows, cerio_hpc_fabric())
        self._assert_reuse_matches_fresh(
            program, FillWorkspace(program),
            self._grow_and_shrink(rng, program.num_flows))

    def test_arena_workspace_reuse_matches_fresh_fills(self):
        """A run's one workspace fills each view a cluster arena builds on
        inject like a fresh workspace."""
        topo = hypercube(3)
        rng = random.Random(7)
        run = FluidRun(FlowInjector(topo, cerio_hpc_fabric()))
        for name in "abc":
            run.inject(_random_flows(topo, rng, 12, zero_fraction=0.0), name,
                       lambda t: None)
            self._assert_reuse_matches_fresh(
                run.program, run.workspace,
                self._grow_and_shrink(rng, run.program.num_flows))

    def test_entryless_active_flow_gets_inf(self):
        """An active flow that crosses no resource is unbounded, costs no
        round, and leaves every other flow's rate as if it were inactive."""
        topo = hypercube(3)
        flows = _random_flows(topo, random.Random(5), 12, zero_fraction=0.0)
        full = compile_flows(topo, flows, ideal_fabric(link_bandwidth=10.0))
        bare = 4
        keep = full.inc_flow != bare
        program = replace(full, inc_res=full.inc_res[keep],
                          inc_flow=full.inc_flow[keep])
        active = np.ones(program.num_flows, dtype=bool)
        without = active.copy()
        without[bare] = False
        expect, expect_rounds = fill_rates_numpy(program, without)
        others = np.arange(program.num_flows) != bare
        for ws in (None, FillWorkspace(program)):
            rates, rounds = fill_rates_numpy(program, active, ws)
            assert rates[bare] == np.inf
            np.testing.assert_array_equal(rates[others], expect[others])
            assert rounds == expect_rounds


def _fill_restarting(program, active):
    """The fill before it resumed: every call starts again from round one.

    Kept as the reference that the resuming fill must equal bit for bit,
    rates and round count both.
    """
    num_res = len(program.res_cap)
    rates = np.zeros(program.num_flows)
    share = np.empty(num_res)
    freeze = np.zeros(program.num_flows, dtype=np.bool_)
    residual = program.res_cap.astype(float, copy=True)
    sel = active[program.inc_flow]
    ent_res = program.inc_res[sel]
    ent_flow = program.inc_flow[sel]
    bare = active.copy()
    bare[ent_flow] = False
    rates[bare] = np.inf
    counts = np.bincount(ent_res, minlength=num_res).astype(float)
    rounds = 0
    while ent_res.size:
        rounds += 1
        used = counts > 0
        share.fill(np.inf)
        np.divide(residual, counts, out=share, where=used)
        best = float(share.min())
        bottleneck = used & (share <= best + SIM_EPS + 1e-12 * abs(best))
        hit = ent_flow[bottleneck[ent_res]]
        freeze[hit] = True
        rates[hit] = best
        ent_frozen = freeze[ent_flow]
        retired = np.bincount(ent_res, weights=ent_frozen, minlength=num_res)
        residual -= best * retired
        np.maximum(residual, 0.0, out=residual)
        counts -= retired
        freeze[hit] = False
        keep = ~ent_frozen
        ent_res = ent_res[keep]
        ent_flow = ent_flow[keep]
    return rates, rounds


def _resumed(before, workspace) -> bool:
    """Whether a fill kept the first saved round of the previous one."""
    return bool(before) and bool(workspace.saved) and workspace.saved[0] is before[0]


def _assert_fill_equals_restarting(program, active, workspace):
    """Fill through ``workspace``; rates and rounds must equal a restart.

    Returns whether the fill resumed from the previous fill's rounds.
    """
    before = list(workspace.saved)
    rates, rounds = fill_rates_numpy(program, active, workspace)
    want, want_rounds = _fill_restarting(program, active)
    np.testing.assert_array_equal(rates, want)
    assert rounds == want_rounds
    return _resumed(before, workspace)


class TestResumingFill:
    """A fill over the last fill's flows minus departed ones resumes from
    the first round a departed flow froze in, bit-identical to a restart."""

    @staticmethod
    def _shrinking(rng, num_flows):
        """Masks that drop 1-3 random active flows per fill until none is
        left; every fourth fill repeats the previous mask."""
        active = np.ones(num_flows, dtype=bool)
        for i in range(4 * num_flows):
            yield active
            live = np.flatnonzero(active).tolist()
            if not live:
                return
            if i % 4 != 3:
                active = active.copy()
                active[rng.sample(live, min(len(live), rng.randint(1, 3)))] = False

    @pytest.mark.parametrize("spec", TestKernelDifferential.TOPOLOGIES)
    @pytest.mark.parametrize("fabric_idx",
                             range(len(TestKernelDifferential.FABRICS)))
    def test_shrinking_masks_equal_restarts(self, spec, fabric_idx):
        topo = from_spec(spec)
        rng = random.Random(f"resume/{spec}/{fabric_idx}")
        flows = _random_flows(topo, rng, n_flows=40, zero_fraction=0.0)
        program = compile_flows(topo, flows,
                                TestKernelDifferential.FABRICS[fabric_idx])
        ws = FillWorkspace(program)
        resumed = [_assert_fill_equals_restarting(program, active, ws)
                   for active in self._shrinking(rng, program.num_flows)]
        assert any(resumed)

    def test_entryless_departures_keep_the_saved_fill(self):
        """Dropping only flows that cross no resource re-runs no round."""
        topo = hypercube(3)
        flows = _random_flows(topo, random.Random(9), 16, zero_fraction=0.0)
        full = compile_flows(topo, flows, cerio_hpc_fabric())
        keep = ~np.isin(full.inc_flow, [2, 5])
        program = replace(full, inc_res=full.inc_res[keep],
                          inc_flow=full.inc_flow[keep])
        ws = FillWorkspace(program)
        active = np.ones(program.num_flows, dtype=bool)
        _assert_fill_equals_restarting(program, active, ws)
        saved = list(ws.saved)
        active[[2, 5]] = False
        assert _assert_fill_equals_restarting(program, active, ws)
        assert all(a is b for a, b in zip(saved, ws.saved))
        assert len(saved) == len(ws.saved)

    def test_exact_tie_programs_under_shrinking_masks(self):
        """The exact-tie programs: departures inside and outside a tie."""
        star = nx.DiGraph()
        for i in range(1, 9):
            star.add_edge(0, i, cap=1.0)
            star.add_edge(i, 0, cap=1.0)
        from repro.topology.base import Topology
        programs = [
            compile_flows(Topology(name="star8", graph=star),
                          [FluidFlow(path=(0, i), size_bytes=64.0)
                           for i in range(1, 9)],
                          ideal_fabric(link_bandwidth=2.0)),
            compile_flows(ring(6),
                          [FluidFlow(path=(i, (i + 1) % 6), size_bytes=100.0)
                           for i in range(3)]
                          + [FluidFlow(path=(3, 4), size_bytes=100.0)] * 2,
                          ideal_fabric(link_bandwidth=8.0)),
        ]
        for program in programs:
            for order in (range(program.num_flows),
                          reversed(range(program.num_flows))):
                ws = FillWorkspace(program)
                active = np.ones(program.num_flows, dtype=bool)
                _assert_fill_equals_restarting(program, active, ws)
                for flow in order:
                    active = active.copy()
                    active[flow] = False
                    _assert_fill_equals_restarting(program, active, ws)

    def test_stale_entries_of_an_earlier_departure_are_dropped(self):
        """A third fill resuming before the second fill's first round.

        The state it resumes from was saved by the first fill and still
        holds the entries of the flow that left before the second fill.
        """
        topo = from_spec("torus:dims=3x3")
        flows = _random_flows(topo, random.Random(31), 30, zero_fraction=0.0)
        program = compile_flows(topo, flows, cerio_hpc_fabric())
        ws = FillWorkspace(program)
        active = np.ones(program.num_flows, dtype=bool)
        _assert_fill_equals_restarting(program, active, ws)
        assert len(ws.saved) >= 3
        late = int(np.argmax(ws.round_of))
        early = int(np.flatnonzero(ws.round_of == 1)[0])
        first_state = ws.saved[ws.round_of[early]]
        active = active.copy()
        active[late] = False
        assert _assert_fill_equals_restarting(program, active, ws)
        assert ws.saved[ws.round_of[early]] is first_state
        assert late in first_state[3]
        active = active.copy()
        active[early] = False
        assert _assert_fill_equals_restarting(program, active, ws)

    def test_another_program_starts_fresh(self):
        """A fill over another program object through the same workspace
        starts fresh, even under a subset of the last fill's mask."""
        topo = from_spec("torus:dims=3x3")
        flows = _random_flows(topo, random.Random(31), 30, zero_fraction=0.0)
        first = compile_flows(topo, flows, cerio_hpc_fabric())
        res_cap = first.res_cap.copy()
        res_cap[::2] *= 0.5
        second = replace(first, res_cap=res_cap, fills={})
        ws = FillWorkspace(first)
        active = np.ones(first.num_flows, dtype=bool)
        _assert_fill_equals_restarting(first, active, ws)
        active = active.copy()
        active[int(np.argmax(ws.round_of))] = False
        assert not _assert_fill_equals_restarting(second, active, ws)
        assert ws.program is second

    def test_reactivated_flow_gets_a_fresh_fill(self):
        topo = hypercube(3)
        flows = _random_flows(topo, random.Random(13), 20, zero_fraction=0.0)
        program = compile_flows(topo, flows, cerio_hpc_fabric())
        ws = FillWorkspace(program)
        active = np.ones(program.num_flows, dtype=bool)
        active[:5] = False
        _assert_fill_equals_restarting(program, active, ws)
        active = active.copy()
        active[7] = False
        assert _assert_fill_equals_restarting(program, active, ws)
        active = active.copy()
        active[[0, 7]] = True
        assert not _assert_fill_equals_restarting(program, active, ws)
        assert_max_min(program, active, ws.rates)

    @staticmethod
    def _delta():
        topo = hypercube(3)
        fabric = cerio_hpc_fabric()
        paths = [(0, 1, 3, 2), (1, 3, 7), (4, 5, 7, 6), (2, 6), (0, 4, 5),
                 (3, 1, 0), (5, 1, 3), (0, 1), (6, 7, 5)]
        return topo, fabric, paths, DeltaProgram(topo, fabric, paths,
                                                 [1.0] * len(paths))

    def test_new_capacities_start_a_fresh_fill(self):
        """One caller-owned workspace across the arena's capacity posts."""
        topo, fabric, paths, delta = self._delta()
        ws = FillWorkspace(delta.program)
        active = np.ones(delta.num_flows, dtype=bool)
        _assert_fill_equals_restarting(delta.program, active, ws)
        delta.set_capacities(fabric_from_spec("hpc:scale=0~1:0.5"))
        # The same mask: a kept fill would return the old capacities' rates.
        assert not _assert_fill_equals_restarting(delta.program, active, ws)
        # A revisited capacity state keeps the view, so the next fill resumes.
        view = delta.program
        delta.set_capacities(fabric_from_spec("hpc:scale=0~1:0.5"))
        assert delta.program is view
        active = active.copy()
        active[int(np.argmax(ws.round_of))] = False
        assert _assert_fill_equals_restarting(delta.program, active, ws)
        delta.set_capacities(fabric)
        active = active.copy()
        active[int(np.argmax(ws.round_of))] = False
        assert not _assert_fill_equals_restarting(delta.program, active, ws)

    def test_moved_routes_start_a_fresh_fill(self):
        topo, fabric, paths, delta = self._delta()
        ws = FillWorkspace(delta.program)
        active = np.ones(delta.num_flows, dtype=bool)
        _assert_fill_equals_restarting(delta.program, active, ws)
        delta.apply(fabric, {})                     # nothing moved
        assert _assert_fill_equals_restarting(delta.program, active, ws)
        delta.apply(fabric, {1: (1, 5, 7)})
        # The same mask: a kept fill would return the old routes' rates.
        assert not _assert_fill_equals_restarting(delta.program, active, ws)

    def test_edits_never_write_into_a_view(self):
        """Capacity posts and reroutes, in the arena and in a clone, build
        new views and leave the arrays of an existing view as they were."""
        topo, fabric, paths, delta = self._delta()
        first = delta.program
        before = [first.res_cap.copy(), first.inc_res.copy(), first.inc_flow.copy()]
        clone = delta.clone()
        delta.set_capacities(fabric_from_spec("hpc:scale=0~1:0.5"))
        posted = delta.program
        delta.apply(fabric, {1: (1, 5, 7)})
        clone.apply(fabric_from_spec("hpc:scale=0~1:0.25"), {2: (4, 6)})
        views = [first, posted, delta.program, clone.program]
        assert len({id(view) for view in views}) == len(views)
        for got, want in zip([first.res_cap, first.inc_res, first.inc_flow], before):
            np.testing.assert_array_equal(got, want)


class TestEveryFillOfARun:
    """Every fill of a cluster run and of a flapping faulted run equals the
    restarting fill, and some of them resume."""

    @pytest.fixture
    def checked(self, monkeypatch):
        import repro.simulator.engine as engine

        tally = {"fills": 0, "resumed": 0}

        def run_fill(program, active, workspace):
            tally["fills"] += 1
            tally["resumed"] += _assert_fill_equals_restarting(
                program, active, workspace)
            return workspace.rates, len(workspace.saved)

        monkeypatch.setattr(engine, "run_fill", run_fill)
        return tally

    def test_random_placement_cluster_run(self, checked,
                                          genkautz_routed_schedule):
        from repro.cluster import run_cluster

        result = run_cluster(
            genkautz_routed_schedule,
            "cluster:jobs=4:arrival=poisson~8000:placement=random:seed=3",
            default_buffer=float(2 ** 20))
        assert len(result.jobs) == 4
        assert checked["fills"] > 50 and checked["resumed"] > checked["fills"] // 2

    def test_flapping_faulted_run(self, checked, genkautz_routed_schedule):
        from repro.faults import run_faulted

        u, v = genkautz_routed_schedule.topology.edges[0]
        events = []
        for i in range(8):
            events += [f"down={u}~{v}@{10 + 20 * i}us", f"up@{20 + 20 * i}us"]
        res = run_faulted(genkautz_routed_schedule, 2 ** 20,
                          "faults:" + ":".join(events),
                          fabric=cerio_hpc_fabric(), validate=False)
        assert res.meta["reroute_count"] > 0
        assert checked["fills"] > 50 and checked["resumed"] > checked["fills"] // 2


class TestStackedFill:
    """One stacked fill over many programs equals each block's own fill:
    rates on active flows bit for bit, and the logical round count."""

    @staticmethod
    def _check(blocks, stack, workspaces):
        """Fill ``blocks`` stacked and separately (``None``: a finished block)."""
        stacked = fill_stacked_numpy(blocks, stack)
        assert len(stacked) == len(blocks)
        for block, result, ws in zip(blocks, stacked, workspaces):
            if block is None:
                assert result is None
                continue
            program, active = block
            want, want_rounds = fill_rates_numpy(program, active, ws)
            rates, rounds = result
            assert len(rates) == program.num_flows
            np.testing.assert_array_equal(rates[active], want[active])
            assert rounds == want_rounds
        return stacked

    @staticmethod
    def _programs(seed, count=4):
        rng = random.Random(seed)
        programs = []
        for i in range(count):
            spec = TestKernelDifferential.TOPOLOGIES[i % 5]
            fabric = TestKernelDifferential.FABRICS[rng.randrange(4)]
            topo = from_spec(spec)
            flows = _random_flows(topo, rng, rng.randint(10, 40), zero_fraction=0.0)
            programs.append(compile_flows(topo, flows, fabric))
        return rng, programs

    @pytest.mark.parametrize("seed", range(4))
    def test_shrinking_masks(self, seed):
        """Each block drops 0-3 flows per fill, at its own pace."""
        rng, programs = self._programs(seed, count=5)
        stack = StackedWorkspace()
        workspaces = [FillWorkspace(p) for p in programs]
        masks = [np.ones(p.num_flows, dtype=bool) for p in programs]
        while any(mask.any() for mask in masks):
            self._check(list(zip(programs, masks)), stack, workspaces)
            for i, mask in enumerate(masks):
                live = np.flatnonzero(mask).tolist()
                mask = mask.copy()
                mask[rng.sample(live, min(len(live), rng.randint(0, 3)))] = False
                masks[i] = mask

    def test_exact_ties_and_entryless_flows(self):
        star = nx.DiGraph()
        for i in range(1, 9):
            star.add_edge(0, i, cap=1.0)
            star.add_edge(i, 0, cap=1.0)
        from repro.topology.base import Topology
        ties = compile_flows(Topology(name="star8", graph=star),
                             [FluidFlow(path=(0, i), size_bytes=64.0)
                              for i in range(1, 9)],
                             ideal_fabric(link_bandwidth=2.0))
        tiers = compile_flows(ring(6),
                              [FluidFlow(path=(i, (i + 1) % 6), size_bytes=100.0)
                               for i in range(3)]
                              + [FluidFlow(path=(3, 4), size_bytes=100.0)] * 2,
                              ideal_fabric(link_bandwidth=8.0))
        full = compile_flows(hypercube(3),
                             _random_flows(hypercube(3), random.Random(5), 12,
                                           zero_fraction=0.0),
                             ideal_fabric(link_bandwidth=10.0))
        keep = ~np.isin(full.inc_flow, [2, 4])
        bare = replace(full, inc_res=full.inc_res[keep],
                       inc_flow=full.inc_flow[keep])
        programs = [ties, tiers, bare]
        stack = StackedWorkspace()
        workspaces = [FillWorkspace(p) for p in programs]
        masks = [np.ones(p.num_flows, dtype=bool) for p in programs]
        stacked = self._check(list(zip(programs, masks)), stack, workspaces)
        assert [rounds for _, rounds in stacked[:2]] == [1, 2]
        assert (stacked[2][0][[2, 4]] == np.inf).all()
        for flow in range(8):
            masks = [mask.copy() for mask in masks]
            for mask in masks:
                mask[flow % len(mask)] = False
            self._check(list(zip(programs, masks)), stack, workspaces)

    def test_idle_and_early_finishing_blocks(self):
        """A block without active flows, a one-round block beside many-round
        ones, and finished blocks (None) that keep their slot."""
        rng, programs = self._programs(11, count=4)
        single = compile_flows(ring(4), [FluidFlow(path=(0, 1), size_bytes=1.0)],
                               ideal_fabric(link_bandwidth=3.0))
        programs.append(single)
        stack = StackedWorkspace()
        workspaces = [FillWorkspace(p) for p in programs]
        masks = [np.ones(p.num_flows, dtype=bool) for p in programs]
        masks[1][:] = False
        stacked = self._check(list(zip(programs, masks)), stack, workspaces)
        assert stacked[1][1] == 0 and stacked[4][1] == 1
        assert max(rounds for _, rounds in stacked) > 2
        blocks = list(zip(programs, masks))
        for step in range(6):
            blocks = [None if b is None or (i == 3 and step >= 2) else
                      (b[0], b[1] & (np.arange(len(b[1])) % 6 != step))
                      for i, b in enumerate(blocks)]
            self._check(blocks, stack, workspaces)

    def test_reactivated_reposted_and_rerouted_blocks_start_fresh(self):
        """Same-mask fills after each change: a kept fill would be stale."""
        topo = hypercube(3)
        fabric = cerio_hpc_fabric()
        paths = [(0, 1, 3, 2), (1, 3, 7), (4, 5, 7, 6), (2, 6), (0, 4, 5),
                 (3, 1, 0), (5, 1, 3), (0, 1), (6, 7, 5)]
        deltas = [DeltaProgram(topo, fabric, paths, [1.0] * len(paths))
                  for _ in range(3)]
        _, (static,) = self._programs(2, count=1)
        blocks = [(d.program, np.ones(d.num_flows, dtype=bool)) for d in deltas]
        blocks.append((static, np.ones(static.num_flows, dtype=bool)))
        stack = StackedWorkspace()
        workspaces = [FillWorkspace(p) for p, _ in blocks]
        self._check(blocks, stack, workspaces)
        # Shrink every block once so that each has resumable rounds.
        blocks = [(p, np.where(np.arange(len(m)) == 0, False, m)) for p, m in blocks]
        self._check(blocks, stack, workspaces)
        deltas[0].set_capacities(fabric_from_spec("hpc:scale=0~1:0.5"))
        deltas[1].apply(fabric, {1: (1, 5, 7)})
        reactivated = blocks[3][1].copy()
        reactivated[0] = True
        blocks = [(deltas[0].program, blocks[0][1]),
                  (deltas[1].program, blocks[1][1]), blocks[2],
                  (static, reactivated)]
        self._check(blocks, stack, workspaces)
        # A revisited capacity state resumes and still matches.
        deltas[0].set_capacities(fabric_from_spec("hpc:scale=0~1:0.5"))
        blocks = [(p, np.where(np.arange(len(m)) == 2, False, m)) for p, m in blocks]
        self._check(blocks, stack, workspaces)
