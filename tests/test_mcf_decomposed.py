"""Tests for the decomposed MCF (master + child LPs, §3.1.2)."""

import warnings

import pytest

from repro.core import (
    SolverError,
    solve_child_lp,
    solve_decomposed_mcf,
    solve_link_mcf,
    solve_master_lp,
    solve_mcf_objective,
)
from repro.core.mcf_decomposed import (
    CERTIFICATE_TOL,
    build_master_lp,
    build_objective_lp,
)
from repro.core.mcf_timestepped import solve_timestepped_mcf
from repro.core.mcf_ts_decomposed import solve_timestepped_mcf_decomposed
from repro.core.solver import LPSolution
from repro.engine import Engine, SolutionCache, backends
from repro.engine.core import solution_key
from repro.core.flow import conservation_violation, delivered, link_loads
from repro.topology import (
    Topology,
    complete,
    generalized_kautz,
    hypercube,
    mesh,
    ring,
    torus,
    twisted_hypercube,
)
from repro.topology.spec import from_spec


class TestMasterLP:
    def test_master_value_matches_full_mcf(self, cube3):
        master = solve_master_lp(cube3)
        assert master.concurrent_flow == pytest.approx(0.25, rel=1e-6)

    def test_master_grouped_flow_capacity(self, cube3):
        master = solve_master_lp(cube3)
        loads = {}
        for s, per in master.grouped_flows.items():
            for e, v in per.items():
                loads[e] = loads.get(e, 0.0) + v
        for e, load in loads.items():
            assert load <= cube3.capacity(*e) + 1e-6

    def test_master_grouped_flow_sinks_f_everywhere(self, cube3):
        master = solve_master_lp(cube3)
        f = master.concurrent_flow
        for s, per in master.grouped_flows.items():
            for u in cube3.nodes:
                if u == s:
                    continue
                inflow = sum(v for (a, b), v in per.items() if b == u)
                outflow = sum(v for (a, b), v in per.items() if a == u)
                assert inflow - outflow >= f - 1e-6

    def test_disconnected_rejected(self):
        topo = Topology.from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(ValueError):
            solve_master_lp(topo)


@pytest.fixture()
def private_engine():
    """Swap in a fresh default engine (restored afterwards)."""
    import repro.engine.core as engine_core

    def install(engine):
        engine_core._engine = engine
        return engine

    prev = engine_core._engine
    yield install
    engine_core._engine = prev


def _key(build, *args, maximize=False, vertex=True):
    """The engine's solution key of the LP ``build(*args)`` assembles."""
    return solution_key(build(*args), maximize, vertex)


def _master_key(topo):
    return _key(build_master_lp, topo, maximize=True)


def _tamper_entry(engine, key, f_scale=1.0, dual_shift=0.0, dual_scale=1.0):
    """Rewrite the cached solution under ``key`` with scaled F or duals."""
    entry = engine.cache.get(key)
    f_value = entry.block("F") * f_scale
    duals = entry.dual("capacity") * dual_scale + dual_shift
    engine.cache.put(key, LPSolution(
        objective=float(f_value[0]), info=dict(entry.info),
        blocks={"F": f_value, "g": entry.block("g")},
        duals={"capacity": duals}))


class TestMasterCertificate:
    @pytest.mark.parametrize("method", ["highs", "highs-ipm"])
    def test_certificate_meets_f(self, private_engine, monkeypatch, method):
        if method == "highs-ipm":
            monkeypatch.setattr(backends, "IPM_MIN_VARIABLES", 0)
        private_engine(Engine())
        topo = generalized_kautz(4, 20)
        master = solve_master_lp(topo)
        cert = master.info["certificate"]
        assert master.info["method"] == method
        assert cert["concurrent_flow"] == master.concurrent_flow
        assert abs(cert["gap"]) <= CERTIFICATE_TOL
        assert cert["bound"] == pytest.approx(master.concurrent_flow, rel=1e-9)

    def test_certificate_over_terminal_subset(self, cube3):
        master = solve_master_lp(cube3, terminals=[0, 3, 5, 6])
        assert abs(master.info["certificate"]["gap"]) <= CERTIFICATE_TOL

    def test_cache_hits_are_rechecked(self, private_engine):
        topo = hypercube(3)
        engine = private_engine(Engine())
        fresh = solve_master_lp(topo)
        # The cached solution carries no certificate: a hit re-derives it
        # from the cached capacity duals.
        entry = engine.cache.get(_master_key(topo))
        assert "certificate" not in entry.info
        again = solve_master_lp(topo)
        assert again.info["cache"] == "hit"
        assert again.info["certificate"] == fresh.info["certificate"]

    @staticmethod
    def _tamper(engine, topo, **scales):
        _tamper_entry(engine, _master_key(topo), **scales)

    @pytest.mark.parametrize("corrupt", ["inflated-f", "zero-duals"])
    def test_corrupt_cache_entry_is_caught(self, private_engine, corrupt):
        topo = hypercube(3)
        engine = private_engine(Engine())
        solve_master_lp(topo)
        if corrupt == "inflated-f":
            self._tamper(engine, topo, f_scale=1.0 + 10 * CERTIFICATE_TOL)
        else:
            self._tamper(engine, topo, dual_scale=0.0)
        with pytest.raises(SolverError, match="certificate"):
            solve_master_lp(topo)

    def test_loose_gap_is_recorded_not_raised(self, private_engine):
        # Non-optimal lengths still bound F from above: a weaker certificate,
        # not a wrong F.
        topo = generalized_kautz(4, 12)
        engine = private_engine(Engine())
        f_star = solve_master_lp(topo).concurrent_flow
        self._tamper(engine, topo, dual_shift=0.05)
        master = solve_master_lp(topo)
        assert master.concurrent_flow == f_star
        assert CERTIFICATE_TOL < master.info["certificate"]["gap"] < float("inf")


def _objective_key(topo):
    return _key(build_objective_lp, topo, maximize=True, vertex=False)


def _recapped_torus():
    topo = torus([4, 4]).copy()
    topo.graph.edges[0, 1]["cap"] = 2.0
    return topo


def _hypercube_labelled_twisted():
    topo = twisted_hypercube(3)
    topo.metadata.update({"family": "hypercube", "dimension": 3})
    return topo


class TestObjectiveOneSource:
    """``mcf-objective``: one-source LP on tori and hypercubes, full elsewhere."""

    @pytest.mark.parametrize("spec", [
        "torus:dims=2x4", "torus:dims=3x3", "torus:dims=4x4", "torus:dims=5x5",
        "torus:dims=8x8", "torus:dims=3x3x3", "torus:dims=4x4x4",
        "hypercube:dim=2", "hypercube:dim=3", "hypercube:dim=4",
        "hypercube:dim=5", "hypercube:dim=6"])
    def test_one_source_f_matches_master(self, spec):
        topo = from_spec(spec)
        objective = solve_mcf_objective(topo)
        master = solve_master_lp(topo)
        engine = objective.meta["engine"]
        assert engine["num_variables"] == topo.num_edges + 1
        assert engine["method"] == "highs-ipm-no-crossover"
        assert master.info["method"] in ("highs", "highs-ipm")
        assert objective.concurrent_flow == pytest.approx(master.concurrent_flow,
                                                          rel=1e-9)
        assert abs(engine["certificate"]["gap"]) <= 1e-9

    def test_uniform_capacity_still_reduces(self):
        objective = solve_mcf_objective(torus([4, 4]).with_capacity(2.0))
        assert objective.meta["engine"]["num_variables"] == 65
        assert objective.concurrent_flow == pytest.approx(0.25, rel=1e-9)

    @pytest.mark.parametrize("make_topo", [
        lambda: mesh([3, 3]),
        lambda: torus([4, 4]).remove_edges([(0, 1), (1, 0)]),
        _recapped_torus,
        lambda: twisted_hypercube(3),
        _hypercube_labelled_twisted,
    ], ids=["mesh", "punctured-torus", "recapped-torus", "twisted-hypercube",
            "twisted-labelled-hypercube"])
    def test_no_symmetry_falls_back_to_full_master(self, make_topo):
        topo = make_topo()
        objective = solve_mcf_objective(topo)
        engine = objective.meta["engine"]
        assert engine["num_variables"] == topo.num_nodes * topo.num_edges + 1
        assert objective.concurrent_flow == pytest.approx(
            solve_master_lp(topo).concurrent_flow, rel=1e-9)
        assert abs(engine["certificate"]["gap"]) <= 1e-9

    def test_solves_without_warnings(self, private_engine):
        private_engine(Engine(cache=SolutionCache(enabled=False)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for topo in (torus([4, 4]), generalized_kautz(4, 12)):
                solve_mcf_objective(topo)


class TestObjectiveKeys:
    def test_one_source_and_full_lp_never_share_a_key(self, private_engine):
        private_engine(Engine())
        reduced = torus([4, 4])
        bare = Topology(reduced.graph.copy(), name="no-metadata")
        assert bare.capacities() == reduced.capacities()
        one_source, full = solve_mcf_objective(reduced), solve_mcf_objective(bare)
        assert one_source.meta["engine"]["num_variables"] == 65
        assert full.meta["engine"]["num_variables"] == 16 * 64 + 1
        assert full.meta["engine"]["cache"] == "miss"
        assert one_source.meta["engine"]["key"] != full.meta["engine"]["key"]
        assert _objective_key(reduced) != _objective_key(bare)
        assert one_source.concurrent_flow == pytest.approx(full.concurrent_flow,
                                                           rel=1e-9)

    def test_objective_and_master_keys_differ(self):
        topo = generalized_kautz(4, 12)
        objective = _objective_key(topo)
        master = _master_key(topo)
        assert objective != master
        assert objective.endswith("-scipy-highs[highs-ipm-no-crossover,tol=1e-12]")
        assert "crossover" not in master

    def test_inflated_one_source_f_is_caught(self, private_engine):
        topo = torus([4, 4])
        engine = private_engine(Engine())
        solve_mcf_objective(topo)
        _tamper_entry(engine, _objective_key(topo), f_scale=1.0 + 10 * CERTIFICATE_TOL)
        with pytest.raises(SolverError, match="certificate"):
            solve_mcf_objective(topo)


class TestTerminalRange:
    """Every solver rejects a terminal outside the node range by name."""

    SOLVERS = {
        "link": solve_link_mcf,
        "master": solve_master_lp,
        "decomposed": solve_decomposed_mcf,
        "tsmcf": solve_timestepped_mcf,
        "tsmcf-decomposed": solve_timestepped_mcf_decomposed,
    }

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("terminals, bad", [([0, 99], 99), ([0, -1, 3], -1)])
    def test_out_of_range_terminal_rejected(self, cube3, solver, terminals, bad):
        with pytest.raises(ValueError, match=f"terminal {bad} outside node range"):
            self.SOLVERS[solver](cube3, terminals=terminals)


class TestChildLP:
    def test_child_splits_grouped_flow(self, cube3):
        master = solve_master_lp(cube3)
        flows, elapsed = solve_child_lp(cube3, 0, master.grouped_flows[0],
                                        master.concurrent_flow)
        assert elapsed >= 0.0
        assert set(flows.keys()) == {(0, d) for d in range(1, 8)}
        for (s, d), per in flows.items():
            delivered = sum(v for (a, b), v in per.items() if b == d) - \
                sum(v for (a, b), v in per.items() if a == d)
            assert delivered >= master.concurrent_flow - 1e-5

    def test_unsorted_destinations_keep_their_labels(self, cube3):
        # Each commodity must deliver F at its own sink whatever order the
        # destinations come in.
        master = solve_master_lp(cube3)
        f = master.concurrent_flow
        flows, _ = solve_child_lp(cube3, 0, master.grouped_flows[0], f,
                                  destinations=[7, 3, 5, 1])
        assert set(flows) == {(0, 1), (0, 3), (0, 5), (0, 7)}
        for (s, d), per in flows.items():
            inflow = sum(v for (a, b), v in per.items() if b == d)
            assert inflow == pytest.approx(f, abs=1e-6)

    def test_child_respects_grouped_capacity(self, cube3):
        master = solve_master_lp(cube3)
        flows, _ = solve_child_lp(cube3, 3, master.grouped_flows[3], master.concurrent_flow)
        totals = {}
        for per in flows.values():
            for e, v in per.items():
                totals[e] = totals.get(e, 0.0) + v
        for e, v in totals.items():
            assert v <= master.grouped_flows[3].get(e, 0.0) + 1e-5


class TestDecomposedEndToEnd:
    @pytest.mark.parametrize("make_topo,expected", [
        (lambda: ring(5), 0.1),
        (lambda: complete(5), 1.0),
        (lambda: hypercube(3), 0.25),
    ])
    def test_matches_known_optimum(self, make_topo, expected):
        sol = solve_decomposed_mcf(make_topo())
        assert sol.concurrent_flow == pytest.approx(expected, rel=1e-5)

    def test_matches_original_mcf_on_irregular_graph(self):
        # Punctured/irregular topology where the optimum is not obvious:
        # decomposition must agree with the monolithic LP (§3.1.2 claim).
        topo = generalized_kautz(3, 9)
        original = solve_link_mcf(topo).concurrent_flow
        decomposed = solve_decomposed_mcf(topo).concurrent_flow
        assert decomposed == pytest.approx(original, rel=1e-5)

    def test_matches_original_on_torus(self, torus33):
        original = solve_link_mcf(torus33).concurrent_flow
        decomposed = solve_decomposed_mcf(torus33).concurrent_flow
        assert decomposed == pytest.approx(original, rel=1e-5)

    def test_capacity_respected(self, cube3_decomposed_mcf):
        # Unit capacities: the busiest link's load is its utilization.
        assert link_loads(cube3_decomposed_mcf.edge_flows()).max() <= 1.0 + 1e-5

    def test_all_commodities_delivered(self, cube3_decomposed_mcf):
        f = cube3_decomposed_mcf.concurrent_flow
        assert delivered(cube3_decomposed_mcf.edge_flows()).min() >= f - 1e-5

    def test_conservation(self, cube3_decomposed_mcf):
        for (s, d), per in cube3_decomposed_mcf.flows.items():
            assert conservation_violation(per, s, d) < 1e-6

    def test_timings_recorded(self, cube3_decomposed_mcf):
        timings = cube3_decomposed_mcf.meta["timings"]
        assert timings.master_seconds > 0
        assert len(timings.child_seconds_each) == 8
        assert timings.parallel_seconds <= timings.total_seconds + 1e-9
        assert timings.max_child_seconds == max(timings.child_seconds_each)

    def test_parallel_jobs_give_same_value(self, cube3, cube3_decomposed_mcf):
        parallel = solve_decomposed_mcf(cube3, n_jobs=2)
        assert parallel.concurrent_flow == pytest.approx(
            cube3_decomposed_mcf.concurrent_flow, rel=1e-6)

    def test_master_has_quadratically_fewer_variables(self, genkautz_4_16):
        # O(k N^2) for the master vs O(k N^3) for the original formulation.

        master = solve_master_lp(genkautz_4_16)
        original = solve_link_mcf(genkautz_4_16, repair=False)
        n = genkautz_4_16.num_nodes
        assert original.meta["num_variables"] > (n - 1) / 2 * len(master.grouped_flows)
