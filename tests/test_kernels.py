"""Differential tests for the repro.perf kernel and warm-start layer.

Covers the fill kernels (numpy vs the CSR algorithm the JIT compiles vs the
scalar reference oracle) on randomized topologies/fabrics/overlap/cluster
programs, adversarial exact-tie bottleneck patterns, kernel selection and
numba fallback, constraint-structure hashing, the batched family solver,
and the warm-started highs-native backend (driven through a fake highspy
module so the native code path runs everywhere).
"""

import random

import networkx as nx
import numpy as np
import pytest

from repro.cluster import FlowInjector
from repro.constants import FLOW_TOL
from repro.core.mcf_link import solve_link_mcf
from repro.engine import (
    Engine,
    HighsNativeBackend,
    MCFProblem,
    SolutionCache,
    backend_names,
    get_backend,
)
from repro.perf import (
    FillWorkspace,
    fill_kernel_name,
    fill_rates_csr,
    fill_rates_numpy,
    numba_available,
    run_fill,
    set_fill_kernel,
    solve_family,
    structure_hash,
    uniform_rhs_scale,
)
from repro.perf import _numba_impl
from repro.simulator import (
    FabricModel,
    FluidFlow,
    FluidRun,
    cerio_hpc_fabric,
    compile_flows,
    engine_counters,
    fabric_from_spec,
    ideal_fabric,
    reset_engine_counters,
    simulate_flows,
    simulate_flows_reference,
)
from repro.topology import from_spec, hypercube, ring


@pytest.fixture(autouse=True)
def _reset_kernel():
    """Restore env-driven kernel selection after every test."""
    yield
    set_fill_kernel(None)


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


def _all_kernel_impls(program, active):
    """Rates/rounds from every kernel implementation available here."""
    results = {
        "numpy": fill_rates_numpy(program, active),
        "python-csr": fill_rates_csr(
            program, active, impl=_numba_impl.fill_csr_python),
    }
    if numba_available():
        results["numba"] = fill_rates_csr(program, active)
    return results


class TestKernelDifferential:
    """All kernels agree with each other and with the scalar oracle."""

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
        results = _all_kernel_impls(program, active)
        base_rates, base_rounds = results["numpy"]
        for name, (rates, rounds) in results.items():
            np.testing.assert_allclose(
                rates, base_rates, rtol=1e-9, atol=1e-9,
                err_msg=f"kernel {name} disagrees with numpy")
            assert rounds == base_rounds, f"kernel {name} round count differs"
        assert not base_rates[active].min() <= 0.0
        assert (base_rates[~active] == 0.0).all()

    @pytest.mark.parametrize("kernel", ["numpy", "python-csr"])
    @pytest.mark.parametrize("spec", TOPOLOGIES[:3])
    def test_simulation_matches_reference_under_each_kernel(self, kernel, spec):
        topo = from_spec(spec)
        fabric = cerio_hpc_fabric()
        rng = random.Random(hash(("sim", kernel, spec)) % (2 ** 31))
        flows = _random_flows(topo, rng, n_flows=30)
        set_fill_kernel(kernel)
        fast = simulate_flows(topo, flows, fabric)
        slow = simulate_flows_reference(topo, flows, fabric)
        assert fast.completion_time == pytest.approx(slow.completion_time,
                                                     abs=1e-9)
        for a, b in zip(fast.flow_completion_times, slow.flow_completion_times):
            assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("kernel", ["numpy", "python-csr"])
    def test_overlap_program_agrees(self, kernel):
        topo = hypercube(3)
        rng = random.Random(11)
        flows = _random_flows(topo, rng, n_flows=24, zero_fraction=0.0)
        program = compile_flows(
            topo, flows, cerio_hpc_fabric(),
            set_ids=[i % 2 for i in range(len(flows))],
            set_names=["a", "b"])
        active = np.ones(program.num_flows, dtype=bool)
        results = _all_kernel_impls(program, active)
        base_rates, base_rounds = results["numpy"]
        rates, rounds = results["python-csr"]
        np.testing.assert_allclose(rates, base_rates, rtol=1e-9, atol=1e-9)
        assert rounds == base_rounds

    @pytest.mark.parametrize("kernel", ["numpy", "python-csr"])
    def test_cluster_injector_fills_agree(self, kernel):
        """Injected/retired cluster programs fill identically on all kernels."""
        topo = hypercube(3)
        fabric = cerio_hpc_fabric()
        rng = random.Random(23)
        set_fill_kernel(kernel)
        run = FluidRun(FlowInjector(topo, fabric))
        drained = []
        run.inject(_random_flows(topo, rng, 10, zero_fraction=0.0), "a",
                   drained.append)
        run.run(until=1e-12)
        run.inject(_random_flows(topo, rng, 10, zero_fraction=0.0), "b",
                   drained.append)
        run.run(until=2e-12)
        # Compare against a kernel-independent fresh numpy fill.
        program = run.program
        expect, _ = fill_rates_numpy(
            program, np.ones(program.num_flows, dtype=bool))
        np.testing.assert_allclose(run.rates, expect, rtol=1e-9, atol=1e-9)
        # Drain both sets; survivors keep filling consistently.
        run.run()
        assert len(drained) == 2 and not run.active.any()

    def test_exact_tie_bottlenecks_identical_rounds(self):
        """Adversarial exact ties: every kernel groups them in one round.

        A star of identical-capacity links with one flow each is an exact
        |links|-way tie; integer capacities make the shares exactly
        representable, so all implementations must freeze the whole tie in
        the same round and return identical round counts.
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
        results = _all_kernel_impls(program, active)
        for name, (rates, rounds) in results.items():
            assert rounds == 1, f"{name} split an exact tie across rounds"
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
        results = _all_kernel_impls(program, active)
        base_rates, base_rounds = results["numpy"]
        assert base_rounds == 2
        for name, (rates, rounds) in results.items():
            assert rounds == base_rounds, name
            np.testing.assert_array_equal(rates, base_rates)


class TestKernelSelection:
    def test_auto_resolves(self):
        set_fill_kernel("auto")
        assert fill_kernel_name() in ("numba", "numpy")

    def test_numba_request_falls_back_when_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMBA", "1")
        set_fill_kernel("numba")
        assert not numba_available()
        assert fill_kernel_name() == "numpy"
        program = compile_flows(
            ring(4), [FluidFlow(path=(0, 1), size_bytes=10.0)],
            ideal_fabric(link_bandwidth=5.0))
        rates, rounds, kernel = run_fill(
            program, np.ones(1, dtype=bool))
        assert kernel == "numpy"
        assert rates[0] == pytest.approx(5.0)

    def test_env_selection(self, monkeypatch):
        set_fill_kernel(None)
        monkeypatch.setenv("REPRO_KERNEL", "python-csr")
        assert fill_kernel_name() == "python-csr"
        monkeypatch.setenv("REPRO_KERNEL", "bogus")
        with pytest.raises(ValueError):
            fill_kernel_name()

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            set_fill_kernel("fortran")

    def test_counters_surface_kernel_and_seconds(self):
        reset_engine_counters()
        set_fill_kernel("python-csr")
        simulate_flows(ring(4), [FluidFlow(path=(0, 1), size_bytes=100.0)],
                       ideal_fabric(link_bandwidth=5.0))
        counters = engine_counters()
        assert counters["kernel"] == "python-csr"
        assert counters["fill_seconds"] > 0.0
        reset_engine_counters()
        counters = engine_counters()
        assert counters["fill_seconds"] == 0.0
        assert counters["kernel"] == ""

    def test_footer_shows_kernel_and_warm_stats(self):
        from repro.analysis import format_engine_footer
        line = format_engine_footer(
            {"hits": 1, "misses": 2, "disk_hits": 0, "backend": "scipy-highs",
             "basis_hits": 3, "basis_misses": 1},
            {"hits": 0, "misses": 0},
            sim_stats={"fill_rounds": 10, "events": 5, "kernel": "numpy",
                       "fill_seconds": 0.25})
        assert "sim: 10 fill rounds / 5 events" in line
        assert "[kernel=numpy, 0.250s fill]" in line
        assert "warm-start: 3 basis hits / 1 cold" in line


class TestFillWorkspace:
    def test_workspace_reuse_matches_fresh_fills(self):
        topo = hypercube(3)
        rng = random.Random(3)
        flows = _random_flows(topo, rng, n_flows=30, zero_fraction=0.0)
        program = compile_flows(topo, flows, cerio_hpc_fabric())
        ws = FillWorkspace(program)
        active = np.ones(program.num_flows, dtype=bool)
        for _ in range(4):
            reused, r1 = fill_rates_csr(program, active, workspace=ws,
                                        impl=_numba_impl.fill_csr_python)
            fresh, r2 = fill_rates_numpy(program, active)
            assert reused is ws.rates  # the arena, not a copy
            np.testing.assert_allclose(reused, fresh, rtol=1e-9, atol=1e-9)
            assert r1 == r2
            # Shrink the active set as execute() would between events.
            active[rng.randrange(program.num_flows)] = False

    def test_csr_layout_round_trips_incidence(self):
        program = compile_flows(
            hypercube(2),
            [FluidFlow(path=(0, 1), size_bytes=1.0),
             FluidFlow(path=(0, 2, 3), size_bytes=2.0)],
            cerio_hpc_fabric())
        ws = FillWorkspace(program)
        entries = set(zip(program.inc_res.tolist(), program.inc_flow.tolist()))
        rebuilt = set()
        for r in range(ws.num_res):
            for k in range(ws.res_ptr[r], ws.res_ptr[r + 1]):
                rebuilt.add((r, int(ws.res_flows[k])))
        assert rebuilt == entries
        rebuilt = set()
        for f in range(ws.num_flows):
            for k in range(ws.flow_ptr[f], ws.flow_ptr[f + 1]):
                rebuilt.add((int(ws.flow_res[k]), f))
        assert rebuilt == entries


class TestStructureHash:
    def _builder(self, topo):
        from repro.core.mcf_link import build_link_mcf
        return build_link_mcf(MCFProblem("mcf-link", topo, maximize=True))

    def test_stable_across_builds(self):
        assert (structure_hash(self._builder(hypercube(3)))
                == structure_hash(self._builder(hypercube(3))))

    def test_rhs_change_keeps_hash(self):
        base = self._builder(hypercube(3))
        scaled = self._builder(hypercube(3).with_capacity(4.0))
        assert structure_hash(base) == structure_hash(scaled)

    def test_structure_change_changes_hash(self):
        assert (structure_hash(self._builder(hypercube(3)))
                != structure_hash(self._builder(ring(8))))

    def test_uniform_rhs_scale(self):
        base = np.array([2.0, 0.0, 4.0])
        assert uniform_rhs_scale(base, base * 3.0) == pytest.approx(3.0)
        assert uniform_rhs_scale(base, base) == pytest.approx(1.0)
        assert uniform_rhs_scale(base, np.array([6.0, 1.0, 12.0])) is None
        assert uniform_rhs_scale(base, np.array([6.0, 0.0, 13.0])) is None
        assert uniform_rhs_scale(base, -base) is None
        assert uniform_rhs_scale(np.zeros(2), np.zeros(2)) == 1.0
        assert uniform_rhs_scale(base, np.zeros(3)) is None


class TestSolveFamily:
    def _family(self, scales):
        cube = hypercube(3)
        return [MCFProblem("mcf-link", cube.with_capacity(s), maximize=True)
                for s in scales]

    def test_scaled_family_matches_cold_solves(self):
        scales = [1.0, 0.75, 0.5, 0.25]
        engine = Engine(cache=SolutionCache())
        solutions, stats = solve_family(self._family(scales), engine=engine,
                                        use_cache=False)
        assert stats["solves"] == 1
        assert stats["scaled"] == len(scales) - 1
        cold_engine = Engine(cache=SolutionCache(enabled=False))
        for scale, solution in zip(scales, solutions):
            cold = cold_engine.solve(
                MCFProblem("mcf-link", hypercube(3).with_capacity(scale),
                           maximize=True), use_cache=False)
            assert solution.objective == pytest.approx(cold.objective,
                                                       abs=FLOW_TOL)

    def test_family_populates_engine_cache(self):
        engine = Engine(cache=SolutionCache())
        problems = self._family([1.0, 0.5])
        solutions, stats = solve_family(problems, engine=engine)
        assert stats["solves"] == 1 and stats["scaled"] == 1
        # A later per-problem solve must hit the same cache entries.
        for problem in problems:
            again = engine.solve(problem)
            assert again.info["cache"] == "hit"
        # Re-running the family is all cache hits.
        _, stats2 = solve_family(problems, engine=engine)
        assert stats2 == {"solves": 0, "scaled": 0, "cache_hits": 2}

    def test_structure_break_forces_solve(self):
        cube = hypercube(3)
        problems = [MCFProblem("mcf-link", cube, maximize=True),
                    MCFProblem("mcf-link", ring(8), maximize=True),
                    MCFProblem("mcf-link", ring(8).with_capacity(2.0),
                               maximize=True)]
        _, stats = solve_family(problems, engine=Engine(cache=SolutionCache()),
                                use_cache=False)
        assert stats["solves"] == 2 and stats["scaled"] == 1

    def test_engine_method_delegates(self):
        engine = Engine(cache=SolutionCache())
        solutions, stats = engine.solve_family(self._family([1.0, 2.0]))
        assert len(solutions) == 2
        assert stats["scaled"] == 1
        assert solutions[1].info["family"] == "scaled-rhs"

    def test_scaled_solutions_extract_like_solved_ones(self):
        """The derived members support the same block extraction path."""
        scales = [1.0, 0.5]
        solutions, _ = solve_family(
            self._family(scales), engine=Engine(cache=SolutionCache()),
            use_cache=False)
        full = solutions[0].block("f")
        half = solutions[1].block("f")
        np.testing.assert_allclose(half, 0.5 * full, atol=FLOW_TOL)

    def test_solve_link_mcf_agrees_with_family_members(self):
        """Family-derived optima equal the formulation front-end's."""
        topo = hypercube(3).with_capacity(0.5)
        solutions, _ = solve_family(
            [MCFProblem("mcf-link", hypercube(3), maximize=True),
             MCFProblem("mcf-link", topo, maximize=True)],
            engine=Engine(cache=SolutionCache()), use_cache=False)
        direct = solve_link_mcf(topo)
        assert solutions[1].objective == pytest.approx(
            direct.concurrent_flow, abs=max(FLOW_TOL, 1e-9))


# ----------------------------------------------------------------------- #
# Fake highspy: the minimal API surface HighsNativeBackend drives, backed
# by scipy.  Lets the native path (model reuse, re-bounding, basis-hit
# accounting) run in environments without the real bindings.
# ----------------------------------------------------------------------- #
class _FakeMatrix:
    """Attribute bag mirroring highspy's HighsSparseMatrix."""

    def __init__(self):
        self.format_ = None
        self.num_col_ = 0
        self.num_row_ = 0
        self.start_ = None
        self.index_ = None
        self.value_ = None


class _FakeLp:
    """Attribute bag mirroring highspy's HighsLp."""

    def __init__(self):
        self.num_col_ = 0
        self.num_row_ = 0
        self.col_cost_ = None
        self.col_lower_ = None
        self.col_upper_ = None
        self.row_lower_ = None
        self.row_upper_ = None
        self.a_matrix_ = _FakeMatrix()


class _FakeSolution:
    def __init__(self, x):
        self.col_value = x


class _FakeHighs:
    """Solves the stored LP with scipy; counts re-bound (warm) calls."""

    def __init__(self):
        self.lp = None
        self.rebound_calls = 0
        self._x = None
        self._status = None

    def setOptionValue(self, name, value):
        pass

    def passModel(self, lp):
        self.lp = lp

    def changeColsBoundsByRange(self, start, stop, lower, upper):
        self.rebound_calls += 1
        self.lp.col_lower_ = np.asarray(lower, dtype=float)
        self.lp.col_upper_ = np.asarray(upper, dtype=float)

    def changeRowsBoundsByRange(self, start, stop, lower, upper):
        self.rebound_calls += 1
        self.lp.row_lower_ = np.asarray(lower, dtype=float)
        self.lp.row_upper_ = np.asarray(upper, dtype=float)

    def run(self):
        import scipy.sparse as sp
        from scipy.optimize import linprog

        lp = self.lp
        matrix = sp.csc_matrix(
            (lp.a_matrix_.value_, lp.a_matrix_.index_, lp.a_matrix_.start_),
            shape=(lp.num_row_, lp.num_col_)).tocsr()
        lower = np.asarray(lp.row_lower_, dtype=float)
        upper = np.asarray(lp.row_upper_, dtype=float)
        ub_rows = np.isinf(lower) & (lower < 0)
        eq_rows = ~ub_rows
        kwargs = {}
        if ub_rows.any():
            kwargs["A_ub"] = matrix[ub_rows]
            kwargs["b_ub"] = upper[ub_rows]
        if eq_rows.any():
            kwargs["A_eq"] = matrix[eq_rows]
            kwargs["b_eq"] = upper[eq_rows]
        bounds = np.column_stack([lp.col_lower_, lp.col_upper_])
        result = linprog(lp.col_cost_, bounds=bounds, method="highs", **kwargs)
        self._x = result.x
        self._status = "optimal" if result.success else "failed"

    def getModelStatus(self):
        return self._status

    def getSolution(self):
        return _FakeSolution(self._x)


class _FakeStatus:
    kOptimal = "optimal"


class _FakeFormat:
    kColwise = "colwise"


class _FakeHighspy:
    Highs = _FakeHighs
    HighsLp = _FakeLp
    HighsModelStatus = _FakeStatus
    MatrixFormat = _FakeFormat


class TestHighsNativeBackend:
    def test_registered(self):
        assert "highs-native" in backend_names()
        assert isinstance(get_backend("highs-native"), HighsNativeBackend)

    def test_warm_start_reuses_model(self):
        backend = HighsNativeBackend("test-native", highs_module=_FakeHighspy())
        engine = Engine(cache=SolutionCache(enabled=False))
        cube = hypercube(3)
        problems = [MCFProblem("mcf-link", cube.with_capacity(s), maximize=True)
                    for s in (1.0, 2.0, 3.0)]
        from repro.engine.backends import register_backend
        register_backend(backend)
        solutions = [engine.solve(p, backend="test-native", use_cache=False)
                     for p in problems]
        stats = backend.warm_stats()
        assert stats["basis_misses"] == 1
        assert stats["basis_hits"] == 2
        assert stats["fallback_solves"] == 0
        assert solutions[0].info["warm_start"] == "cold"
        assert solutions[1].info["warm_start"] == "basis"
        scipy_backend = get_backend("scipy-highs")
        for problem, solution in zip(problems, solutions):
            from repro.core.mcf_link import build_link_mcf
            cold = scipy_backend.solve(build_link_mcf(problem), maximize=True)
            assert solution.objective == pytest.approx(cold.objective,
                                                       abs=1e-6)

    def test_engine_stats_merge_warm_counters(self):
        backend = HighsNativeBackend("test-native-2",
                                     highs_module=_FakeHighspy())
        from repro.engine.backends import register_backend
        register_backend(backend)
        engine = Engine(backend="test-native-2",
                        cache=SolutionCache(enabled=False))
        engine.solve(MCFProblem("mcf-link", hypercube(2), maximize=True),
                     use_cache=False)
        stats = engine.stats()
        assert stats["basis_misses"] == 1
        assert "basis_hits" in stats

    def test_fallback_without_highspy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_HIGHSPY", "1")
        backend = HighsNativeBackend("test-fallback")
        problem = MCFProblem("mcf-link", hypercube(2), maximize=True)
        engine = Engine(cache=SolutionCache(enabled=False))
        from repro.engine.backends import register_backend
        register_backend(backend)
        solution = engine.solve(problem, backend="test-fallback",
                                use_cache=False)
        assert backend.warm_stats()["fallback_solves"] == 1
        cold = engine.solve(problem, backend="scipy-highs", use_cache=False)
        assert solution.objective == pytest.approx(cold.objective, abs=1e-6)

    def test_model_registry_bounded(self):
        backend = HighsNativeBackend("test-lru", max_models=1,
                                     highs_module=_FakeHighspy())
        engine = Engine(cache=SolutionCache(enabled=False))
        from repro.engine.backends import register_backend
        register_backend(backend)
        engine.solve(MCFProblem("mcf-link", hypercube(2), maximize=True),
                     backend="test-lru", use_cache=False)
        engine.solve(MCFProblem("mcf-link", ring(6), maximize=True),
                     backend="test-lru", use_cache=False)
        assert backend.warm_stats()["live_models"] == 1

    def test_family_through_native_backend(self):
        """solve_family + warm backend: one cold solve, rest scaled."""
        backend = HighsNativeBackend("test-native-family",
                                     highs_module=_FakeHighspy())
        from repro.engine.backends import register_backend
        register_backend(backend)
        engine = Engine(cache=SolutionCache())
        problems = [MCFProblem("mcf-link", hypercube(3).with_capacity(s),
                               maximize=True) for s in (1.0, 0.5, 0.25)]
        solutions, stats = solve_family(problems, backend="test-native-family",
                                        engine=engine, use_cache=False)
        assert stats["solves"] == 1 and stats["scaled"] == 2
        assert backend.warm_stats()["basis_misses"] == 1
        base = solutions[0].objective
        assert solutions[1].objective == pytest.approx(0.5 * base, rel=1e-9)
        assert solutions[2].objective == pytest.approx(0.25 * base, rel=1e-9)
