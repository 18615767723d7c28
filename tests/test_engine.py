"""Tests for the unified solve engine: solution keys, backends, cache."""

import pickle

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core import solve_decomposed_mcf, solve_link_mcf
from repro.core.mcf_decomposed import build_child_lp, build_master_lp
from repro.core.mcf_link import build_link_mcf
from repro.core.mcf_path import build_path_mcf
from repro.core.mcf_ts_decomposed import build_ts_child, build_ts_master
from repro.engine import (
    Engine,
    ScipyHighsBackend,
    SolutionCache,
    reset_engine,
)
from repro.core.solver import LPBuilder, LPSolution
from repro.engine import backends
from repro.engine.backends import IPM_MIN_VARIABLES
from repro.engine.core import solution_key
from repro.experiments import Plan, Scenario, reset_plan_cache, run_scenarios
from repro.experiments.plan import stage_artifact_key
from repro.paths import edge_disjoint_path_sets
from repro.topology import generalized_kautz, hypercube


@pytest.fixture
def cube():
    return hypercube(3)


def problem_key(build, *args, maximize=False, vertex=True):
    """The engine's solution key of the LP ``build(*args)`` assembles."""
    return solution_key(build(*args), maximize, vertex)


class TestSolutionKeys:
    def test_cache_key_stable_across_instances(self, cube):
        assert (problem_key(build_link_mcf, cube, maximize=True)
                == problem_key(build_link_mcf, hypercube(3), maximize=True))

    def test_cache_key_sensitive_to_builder_args_and_sense(self, cube):
        keys = {problem_key(build_link_mcf, cube, maximize=True),
                problem_key(build_master_lp, cube, maximize=True),
                problem_key(build_link_mcf, cube, [0, 1], maximize=True),
                problem_key(build_link_mcf, cube, maximize=False)}
        assert len(keys) == 4

    def test_terminal_order_shares_one_lp(self, cube):
        # The master LP sorts its terminals, so both orders pose one LP:
        # the arguments differ, the key does not.
        a, b = [2, 1, 0], [0, 1, 2]
        assert (problem_key(build_master_lp, cube, a, maximize=True)
                == problem_key(build_master_lp, cube, b, maximize=True))
        engine = Engine()
        first = engine.solve(build_master_lp, cube, a, maximize=True)
        second = engine.solve(build_master_lp, cube, b, maximize=True)
        assert (first.info["cache"], second.info["cache"]) == ("miss", "hit")
        assert second.objective == first.objective

    def test_changed_assembler_input_changes_the_key(self, monkeypatch):
        # A solution is keyed by the LP it solves: no stale hit survives an
        # assembler whose inputs change, with or without a version bump.
        from repro.core import mcf_link

        pair = hypercube(1).copy()
        for edge in pair.edges[1:]:
            pair.graph.edges[edge]["cap"] = 2.0  # edge 0 alone bounds F
        engine = Engine()
        before = engine.solve(build_link_mcf, pair, maximize=True)
        assert before.objective == pytest.approx(1.0)
        real = mcf_link.topology_arrays

        def doubled(topology):
            index, tails, heads, caps = real(topology)
            caps = caps.copy()
            caps[0] *= 2.0
            return index, tails, heads, caps

        monkeypatch.setattr(mcf_link, "topology_arrays", doubled)
        after = engine.solve(build_link_mcf, pair, maximize=True)
        assert after.info["cache"] == "miss"
        assert after.info["key"] != before.info["key"]
        assert after.objective == pytest.approx(2.0)


def _reversed(mapping):
    """``mapping`` rebuilt in reversed insertion order."""
    return dict(reversed(list(mapping.items())))


class TestAssemblersIgnoreInputOrder:
    """An assembler's LP does not depend on the order of a mapping or set.

    The engine keys a solution by the assembled LP alone, so two calls that
    differ only in insertion order must assemble one LP to share its key.
    """

    @staticmethod
    def _same_digest(build, *variants):
        digests = {build(*args).digest() for args in variants}
        assert len(digests) == 1

    def test_link_mcf_demand(self, cube):
        demand = {c: 1.0 + (c[0] + 2 * c[1]) % 3 for c in cube.commodities()}
        self._same_digest(build_link_mcf, (cube, None, demand),
                          (cube, None, _reversed(demand)))

    def test_path_mcf_path_sets(self, cube):
        paths = {c: tuple(tuple(p) for p in ps)
                 for c, ps in edge_disjoint_path_sets(cube).items()}
        self._same_digest(build_path_mcf, (cube, paths), (cube, _reversed(paths)))

    def test_child_lp_grouped_flow(self, cube):
        grouped = {e: 0.25 + 0.01 * i for i, e in enumerate(cube.edges)}
        dests = list(range(1, 8))
        self._same_digest(build_child_lp, (cube, 0, grouped, 0.25, 1e-7, dests),
                          (cube, 0, _reversed(grouped), 0.25, 1e-7, dests))

    def test_ts_child_grouped(self, cube):
        grouped = {(u, v, t): 0.5 for t in (1, 2, 3) for u, v in cube.edges if u == 0}
        args = (cube, 0, [1, 2, 4])
        self._same_digest(build_ts_child, (*args, grouped, [1, 2, 3]),
                          (*args, _reversed(grouped), [1, 2, 3]))

    def test_ts_master_terminal_set(self):
        # 0 and 8 share a hash slot, so these two sets iterate differently.
        terminals = [0, 8, 3, 11]
        forward, backward = set(), set()
        for t in terminals:
            forward.add(t)
        for t in reversed(terminals):
            backward.add(t)
        assert list(forward) != list(backward)
        args = (hypercube(4), [1, 2, 3, 4, 5], sorted(terminals))
        self._same_digest(build_ts_master, (*args, forward), (*args, backward))


class TestBackends:
    def test_alternative_backend_same_optimum(self, cube, monkeypatch):
        # Simplex and interior point reach the same optimum.
        engine = Engine(cache=SolutionCache(enabled=False))
        default = engine.solve(build_link_mcf, cube, maximize=True)
        monkeypatch.setattr(backends, "IPM_MIN_VARIABLES", 0)
        ipm = engine.solve(build_link_mcf, cube, maximize=True)
        assert (default.info["method"], ipm.info["method"]) == ("highs", "highs-ipm")
        assert ipm.objective == pytest.approx(default.objective, rel=1e-7)


class TestSizeRule:
    """The default backend picks the HiGHS method by LP size."""

    @staticmethod
    def _spy_methods(monkeypatch):
        import scipy.optimize

        methods = []
        real = scipy.optimize.linprog

        def spy(*args, **kwargs):
            methods.append(kwargs["method"])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        return methods

    @staticmethod
    def _lp(num_variables):
        lp = LPBuilder()
        x = lp.add_variable_block("x", num_variables, ub=1.0, objective=1.0)
        lp.add_le_block(np.zeros(num_variables), x, np.ones(num_variables), [1.0])
        return lp

    @pytest.mark.parametrize("num_variables, method", [
        (IPM_MIN_VARIABLES - 1, "highs"),
        (IPM_MIN_VARIABLES, "highs-ipm"),
        (IPM_MIN_VARIABLES + 1, "highs-ipm"),
    ])
    def test_default_backend_rule(self, monkeypatch, num_variables, method):
        methods = self._spy_methods(monkeypatch)
        solution = ScipyHighsBackend().solve(self._lp(num_variables), maximize=True)
        assert methods == [method]
        assert solution.info["method"] == method
        assert solution.objective == pytest.approx(1.0)

    def test_rule_enters_the_cache_key(self, cube, monkeypatch):
        # Entries stored by the old single-method backend, or by the
        # retired backends pinned to one method, must never answer for the
        # size-ruled one; nor may one rule's entries answer for another's.
        engine = Engine()
        stale = LPSolution(objective=-1.0)
        digest = build_link_mcf(cube).digest()
        for identity in ("scipy-highs", "scipy-highs-ipm", "scipy-highs-ds"):
            engine.cache.put(f"{digest}-max-{identity}", stale)
        key = problem_key(build_link_mcf, cube, maximize=True)
        assert key.endswith(f"-max-scipy-highs[highs-ipm>={IPM_MIN_VARIABLES}]")
        solution = engine.solve(build_link_mcf, cube, maximize=True)
        assert solution.info["cache"] == "miss"
        assert solution.objective == pytest.approx(0.25)
        monkeypatch.setattr(backends, "IPM_MIN_VARIABLES", 0)
        assert problem_key(build_link_mcf, cube, maximize=True) != key
        assert engine.solve(build_link_mcf, cube, maximize=True).info["cache"] == "miss"


class TestSolutionCache:
    def test_hit_vs_miss_equivalence(self, cube):
        engine = Engine()
        fresh = engine.solve(build_link_mcf, cube, maximize=True)
        cached = engine.solve(build_link_mcf, cube, maximize=True)
        assert fresh.info["cache"] == "miss"
        assert cached.info["cache"] == "hit"
        assert cached.objective == fresh.objective
        # A hit returns the miss's floats bit for bit, near-zeros included.
        assert cached.block_names() == fresh.block_names() == ["F", "f"]
        for name in fresh.block_names():
            assert np.array_equal(cached.block(name), fresh.block(name))
        assert cached.info["assemble_seconds"] > 0
        assert "solve_seconds" not in cached.info
        counts = obs.snapshot()
        assert counts["lp-cache.hits"] == 1 and counts["lp-cache.misses"] == 1

    def test_bypass_flag_skips_cache(self, cube):
        engine = Engine(cache=SolutionCache(enabled=False))
        first = engine.solve(build_link_mcf, cube, maximize=True)
        second = engine.solve(build_link_mcf, cube, maximize=True)
        assert first.info["cache"] == "bypass"
        assert second.info["cache"] == "bypass"
        counts = obs.snapshot()
        assert counts.get("lp-cache.hits", 0) == 0
        assert counts.get("lp-cache.misses", 0) == 0
        assert engine.cache.size == 0
        assert second.objective == pytest.approx(first.objective)

    def test_disabled_cache_reports_bypass(self, cube):
        engine = Engine(cache=SolutionCache(enabled=False))
        solution = engine.solve(build_link_mcf, cube, maximize=True)
        assert solution.info["cache"] == "bypass"

    def test_default_engine_keeps_lp_solutions_in_memory(self, cube, tmp_path,
                                                         monkeypatch):
        # REPRO_CACHE_DIR persists stage artifacts only: no LP file appears.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_engine()
        try:
            solve_link_mcf(cube)
            solve_decomposed_mcf(cube)
        finally:
            reset_engine()
        assert list(tmp_path.rglob("*.lp-cache.pkl")) == []

    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n", b""])
    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, junk):
        # pickle surfaces corruption as UnpicklingError, ValueError or
        # EOFError depending on the bytes; all must degrade to a miss, and
        # the stage recomputes.
        scenario = Scenario(topology="hypercube:dim=2", scheme="sssp")
        key = stage_artifact_key(scenario, "synthesize")
        (tmp_path / f"{key}.stage-cache.pkl").write_bytes(junk)
        cache = SolutionCache(cache_dir=str(tmp_path), name="stage-cache")
        result = Plan(scenario, cache=cache).run("synthesize")
        assert result.stage_cache == {"synthesize": "miss"}
        assert result.schedule.paths
        assert obs.snapshot().get("stage-cache.disk_hits", 0) == 0

    def test_unpicklable_payload_raises_and_leaves_nothing(self, tmp_path):
        # The pickling error reaches the caller; neither tier keeps the
        # payload and no temp file is left in the cache directory.  (pickle
        # raises AttributeError for a local lambda, PicklingError for a
        # module-level one.)
        cache = SolutionCache(cache_dir=str(tmp_path), name="stage-cache")
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache.put("k", {"f": lambda: 1})
        assert list(tmp_path.iterdir()) == []
        assert cache.size == 0
        assert cache.get("k") is None
        assert "stage-cache.stores" not in obs.snapshot()

    def test_flow_solution_meta_surfaces_engine_info(self, cube):
        solution = solve_link_mcf(cube)
        info = solution.meta["engine"]
        assert info["cache"] in ("hit", "miss")
        assert info["backend"] == "scipy-highs"
        assert info["num_variables"] == solution.meta["num_variables"]

    def test_membership_loads_and_counts_nothing(self, tmp_path, monkeypatch):
        # The executor's parent asks this of every pending scenario, so it
        # must not read an entry or move a counter; a corrupt file is "in".
        cache = SolutionCache(cache_dir=str(tmp_path), name="stage-cache")
        cache.put("kept", ("artifact", {}))
        (tmp_path / "junk.stage-cache.pkl").write_bytes(b"not a pickle")
        before = obs.snapshot()
        monkeypatch.setattr(pickle, "load", None)  # any load would raise
        assert "kept" in cache
        cache.clear()
        assert "kept" in cache and "junk" in cache and "absent" not in cache
        assert obs.snapshot() == before
        assert "kept" not in SolutionCache(enabled=False)
        memory = SolutionCache()
        memory.put("k", 1)
        assert "k" in memory and "other" not in memory

    def test_eviction_bounds_memory(self, cube):
        cache = SolutionCache(max_entries=2)
        from repro.core.solver import LPSolution

        for i in range(5):
            cache.put(f"key-{i}", LPSolution(objective=float(i)))
        assert cache.size == 2


class TestRepeatedSweepUsesCache:
    def test_second_compare_run_solves_no_new_lps(self):
        """Acceptance: a repeated comparison is served from the caches."""
        topo = generalized_kautz(3, 8)
        scenarios = [Scenario(topology=topo, scheme=name, max_denominator=16)
                     for name in ("mcf-extp", "pmcf-disjoint", "sssp")]
        run_scenarios(scenarios, through="synthesize")
        second, delta = obs.counted(run_scenarios, scenarios, "synthesize")
        assert "lp-cache.misses" not in delta, "second run should solve no new LP"
        assert delta["stage-cache.hits"] == len(scenarios)
        assert all(r.error is None for r in second)


class TestParallelCompare:
    def test_parallel_compare_identical_to_serial(self, capsys):
        argv = ["compare", "hypercube:dim=3",
                "--schemes", "mcf-extp,pmcf-disjoint,ewsp,sssp"]
        outputs = []
        for jobs in ("1", "3"):
            # Cold caches, so the worker processes really solve.
            reset_engine()
            reset_plan_cache()
            assert main(argv + ["--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        reset_engine()
        reset_plan_cache()
        assert outputs[1] == outputs[0]
        assert "pmcf-disjoint" in outputs[0]

    def test_decomposed_parallel_child_lps_match_serial(self):
        topo = hypercube(3)
        serial = solve_decomposed_mcf(topo, n_jobs=1)
        parallel = solve_decomposed_mcf(topo, n_jobs=2)
        assert parallel.concurrent_flow == pytest.approx(serial.concurrent_flow,
                                                         rel=1e-7)
