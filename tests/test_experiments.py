"""Tests for the declarative experiment layer (repro.experiments).

Covers scenario hashing stability, the staged Plan pipeline with artifact
caching, grid expansion, streaming sweep runs, resume-from-JSONL, and the
headline cache guarantee: re-running the same sweep solves zero new LPs.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.engine import get_engine, reset_engine
from repro.engine.cache import SolutionCache
from repro.experiments import (
    STAGES,
    Plan,
    Scenario,
    SweepGrid,
    completed_records,
    configure_plan_cache,
    load_results,
    reset_plan_cache,
    run_scenarios,
    run_sweep,
    scenario_schema_version,
    sweep_stats,
    write_csv,
)
from repro.experiments import scenario as scenario_module
from repro.experiments.plan import stage_artifact_key
from repro.experiments.scenario import topology_key
from repro.topology import Topology, hypercube


@pytest.fixture()
def fresh_caches():
    """Fresh engine + plan caches, restored afterwards (global state hygiene)."""
    reset_engine()
    reset_plan_cache()
    yield get_engine(), configure_plan_cache(enabled=True)
    reset_engine()
    reset_plan_cache()


def _stage_cache() -> SolutionCache:
    return SolutionCache(name="stage-cache")


class TestScenarioHashing:
    def test_spec_and_object_topologies_hash_identically(self):
        a = Scenario(topology="hypercube:dim=3", scheme="ewsp")
        b = Scenario(topology=hypercube(3), scheme="ewsp")
        assert a.key() == b.key()

    def test_key_is_stable_across_constructions(self):
        make = lambda: Scenario(topology="torus:dims=3x3", scheme="mcf-extp",  # noqa: E731
                                buffers=[2 ** 20, 2 ** 24]).key()
        assert make() == make()

    def test_scheme_params_order_independent(self):
        a = Scenario(topology="hypercube:dim=2", scheme="ilp-disjoint",
                     scheme_params={"mip_rel_gap": 0.05, "time_limit": 120})
        b = Scenario(topology="hypercube:dim=2", scheme="ilp-disjoint",
                     scheme_params={"time_limit": 120, "mip_rel_gap": 0.05})
        assert a.key() == b.key()

    def test_content_fields_change_key(self):
        base = Scenario(topology="hypercube:dim=3", scheme="ewsp")
        assert base.key() != Scenario(topology="hypercube:dim=2", scheme="ewsp").key()
        assert base.key() != Scenario(topology="hypercube:dim=3", scheme="sssp").key()
        assert base.key() != Scenario(topology="hypercube:dim=3", scheme="ewsp",
                                      fabric="ml").key()

    def test_cosmetic_name_does_not_change_key(self):
        a = Scenario(topology="hypercube:dim=3", scheme="ewsp", name="labelled")
        b = Scenario(topology="hypercube:dim=3", scheme="ewsp")
        assert a.key() == b.key()

    def test_buffers_change_simulate_key_but_not_synthesize_key(self):
        a = Scenario(topology="hypercube:dim=3", scheme="ewsp", buffers=(2 ** 20,))
        b = Scenario(topology="hypercube:dim=3", scheme="ewsp", buffers=(2 ** 24,))
        assert a.stage_key("synthesize") == b.stage_key("synthesize")
        assert a.stage_key("lower") == b.stage_key("lower")
        assert a.key() != b.key()

    def test_auto_scheme_synthesize_key_tracks_fabric_forwarding(self):
        # "auto" forwarding resolves through the fabric, so an hpc (NIC) and
        # an ml (HOST) scenario must never share a synthesized schedule.
        hpc = Scenario(topology="hypercube:dim=2", fabric="hpc", scheme="auto")
        ml = Scenario(topology="hypercube:dim=2", fabric="ml", scheme="auto")
        assert hpc.stage_key("synthesize") != ml.stage_key("synthesize")
        # Schemes that ignore forwarding still share across fabrics.
        hpc_ewsp = Scenario(topology="hypercube:dim=2", fabric="hpc", scheme="ewsp")
        ml_ewsp = Scenario(topology="hypercube:dim=2", fabric="ml", scheme="ewsp")
        assert hpc_ewsp.stage_key("synthesize") == ml_ewsp.stage_key("synthesize")

    def test_auto_scheme_cached_branches_stay_distinct(self):
        from repro.core.mcf_path import PathSchedule
        from repro.core.mcf_timestepped import TimeSteppedFlow

        cache = _stage_cache()
        nic = Plan(Scenario(topology="hypercube:dim=2", fabric="hpc"),
                   cache=cache).run(through="synthesize")
        host = Plan(Scenario(topology="hypercube:dim=2", fabric="ml"),
                    cache=cache).run(through="synthesize")
        assert isinstance(nic.schedule, PathSchedule)
        assert isinstance(host.schedule, TimeSteppedFlow)

    def test_max_denominator_changes_lower_key_only(self):
        a = Scenario(topology="hypercube:dim=3", scheme="ewsp", max_denominator=16)
        b = Scenario(topology="hypercube:dim=3", scheme="ewsp", max_denominator=64)
        assert a.stage_key("synthesize") == b.stage_key("synthesize")
        assert a.stage_key("lower") != b.stage_key("lower")

    @pytest.mark.parametrize("name", [
        "workload", "forwarding", "link_bandwidth", "num_steps",
        "path_diversity_threshold", "max_disjoint_paths"])
    def test_retired_field_rejected(self, name):
        # Every scenario is an all-to-all, the fabric picks the forwarding
        # model, and repro.core.pipeline fixes the other knobs.
        with pytest.raises(ValueError, match=f"unknown scenario field.*{name}"):
            Scenario.from_dict({"topology": "hypercube:dim=3", name: "1"})

    def test_from_dict_coerces_cli_strings(self):
        s = Scenario.from_dict({"topology": "hypercube:dim=3", "scheme": "ewsp",
                                "buffers": "1048576;16777216",
                                "max_denominator": "16", "decompose_ts": "true"})
        assert s.buffers == (1048576.0, 16777216.0)
        assert s.max_denominator == 16
        assert s.decompose_ts is True
        with pytest.raises(ValueError):
            Scenario.from_dict({"topology": "hypercube:dim=3", "bogus_field": 1})

    @pytest.mark.parametrize("spelling, expected", [
        ("off", False), ("YES", True), ("ture", None), ("2", None)])
    def test_from_dict_rejects_unknown_booleans(self, spelling, expected):
        data = {"topology": "hypercube:dim=3", "decompose_ts": spelling}
        if expected is None:
            with pytest.raises(ValueError, match="decompose_ts"):
                Scenario.from_dict(data)
        else:
            assert Scenario.from_dict(data).decompose_ts is expected

    @pytest.mark.parametrize("name, value", [
        ("host_bandwidth", "0"), ("host_bandwidth", "NaN"), ("host_bandwidth", "-2.5"),
        ("host_bandwidth", "inf"), ("host_bandwidth", "fast"), ("max_denominator", "0"),
        ("max_denominator", "16.0"), ("max_denominator", "none"), ("overlap", "0"),
        ("overlap", "2.0")])
    def test_from_dict_rejects_out_of_range_knobs(self, name, value):
        # A non-positive host_bandwidth used to drop the host-NIC
        # augmentation silently; max_denominator=0 failed in the lower stage.
        with pytest.raises(ValueError, match=name):
            Scenario.from_dict({"topology": "hypercube:dim=2", "scheme": "tsmcf",
                                name: value})

    def test_from_dict_accepts_in_range_knobs(self):
        s = Scenario.from_dict({"topology": "hypercube:dim=2", "host_bandwidth": "2",
                                "max_denominator": "1", "overlap": "3"})
        assert (s.host_bandwidth, s.max_denominator, s.overlap) == (2.0, 1, 3)
        assert type(s.host_bandwidth) is float
        s = Scenario.from_dict({"topology": "hypercube:dim=2", "host_bandwidth": "none"})
        assert s.host_bandwidth is None

    @pytest.mark.parametrize("name, value", [
        ("host_bandwidth", 0), ("host_bandwidth", -1.5), ("host_bandwidth", float("nan")),
        ("host_bandwidth", True), ("host_bandwidth", "2"), ("max_denominator", 0),
        ("max_denominator", 16.0), ("max_denominator", True), ("max_denominator", None),
        ("overlap", 0), ("overlap", 2.0), ("overlap", True), ("overlap", False)])
    def test_constructor_rejects_bad_numbers(self, name, value):
        # overlap=2.0 used to fail at simulate with a TypeError, overlap=True
        # was accepted, and max_denominator=0 failed only in the lower stage.
        with pytest.raises(ValueError, match=name):
            Scenario(topology="hypercube:dim=2", scheme="ewsp", **{name: value})

    @pytest.mark.parametrize("name, a, b", [
        ("host_bandwidth", 2, 2.0), ("host_bandwidth", np.float32(2.0), 2.0),
        ("max_denominator", np.int64(16), 16), ("overlap", np.int32(2), 2)])
    def test_equal_numbers_share_keys(self, name, a, b):
        one = Scenario(topology="hypercube:dim=2", scheme="tsmcf", **{name: a})
        two = Scenario(topology="hypercube:dim=2", scheme="tsmcf", **{name: b})
        assert one.stage_keys() == two.stage_keys()
        assert type(getattr(one, name)) is type(getattr(two, name))

    def test_from_dict_rejects_non_mapping_scheme_params(self):
        with pytest.raises(ValueError, match="scheme_params must be a mapping"):
            Scenario.from_dict({"topology": "hypercube:dim=3",
                                "scheme_params": "time_limit=5"})


class TestStageKeys:
    @pytest.mark.parametrize("scenario", [
        Scenario(topology="hypercube:dim=3", scheme="auto", buffers=(2 ** 20,)),
        Scenario(topology="torus:dims=3x3", scheme="mcf-extp", fabric="ml",
                 cluster="cluster:jobs=2:seed=3"),
        Scenario(topology="hypercube:dim=2", scheme="ewsp",
                 faults="faults:down=0~1@10us", scheme_params={"seed": 1})])
    def test_stage_keys_equal_one_stage_key_each(self, scenario):
        assert scenario.stage_keys() == {stage: scenario.stage_key(stage)
                                         for stage in STAGES}


class TestScenarioBuffers:
    """Every buffer gets its own record key; bad sizes fail before any solve."""

    def test_buffers_sharing_a_record_key_rejected(self):
        with pytest.raises(ValueError, match=r"1048576\.0, 1048576\.5.*'1048576'"):
            Scenario(topology="hypercube:dim=3", scheme="ewsp",
                     buffers=(1048576.0, 1048576.5))

    def test_non_positive_buffer_rejected(self):
        for buffers in ((-65536.0,), (1024.0, 0.0)):
            with pytest.raises(ValueError, match="finite and > 0"):
                Scenario(topology="hypercube:dim=3", scheme="ewsp",
                         buffers=buffers)

    def test_non_finite_buffer_rejected(self):
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError, match=f"finite and > 0.*{bad}"):
                Scenario(topology="hypercube:dim=3", scheme="ewsp",
                         buffers=(1024.0, float(bad)))

    def test_distinct_keys_each_get_a_record_entry(self):
        scenario = Scenario(topology="hypercube:dim=3", scheme="ewsp",
                            buffers=(1048576.0, 1048577.0))
        (result,) = run_scenarios([scenario])
        assert result.status == "ok"
        assert sorted(result.metrics["completion_seconds"]) == [
            "1048576", "1048577"]


class TestPlan:
    def test_stages_produce_expected_artifacts(self, bipartite44):
        plan = Plan(Scenario(topology=bipartite44, scheme="ewsp",
                             buffers=(2 ** 20, 2 ** 24)), cache=_stage_cache())
        synth = plan.run(through="synthesize")
        assert synth.schedule is not None and synth.lowered is None
        done = plan.run()
        assert done.validated
        assert len(done.sim_results) == 2
        assert done.concurrent_flow > 0
        assert done.all_to_all_time > 0

    def test_plan_matches_direct_computation(self, bipartite44):
        from repro.paths import ewsp_schedule
        from repro.schedule import chunk_path_schedule
        from repro.simulator import cerio_hpc_fabric, throughput_sweep

        direct = throughput_sweep(chunk_path_schedule(ewsp_schedule(bipartite44),
                                                      max_denominator=16),
                                  [2 ** 22], fabric=cerio_hpc_fabric())
        plan = Plan(Scenario(topology=bipartite44, scheme="ewsp", fabric="hpc",
                             max_denominator=16, buffers=(2 ** 22,)),
                    cache=_stage_cache())
        result = plan.run()
        assert result.sim_results[0].throughput == direct[0].throughput

    def test_shared_cache_serves_second_plan(self, bipartite44):
        cache = _stage_cache()
        scenario = Scenario(topology=bipartite44, scheme="sssp", buffers=(2 ** 20,))
        first = Plan(scenario, cache=cache).run()
        assert set(first.stage_cache.values()) == {"miss"}
        second = Plan(scenario, cache=cache).run()
        assert set(second.stage_cache.values()) == {"hit"}
        assert (second.sim_results[0].throughput
                == first.sim_results[0].throughput)

    def test_synthesize_artifact_shared_across_buffer_sizes(self, bipartite44):
        cache = _stage_cache()
        a = Plan(Scenario(topology=bipartite44, scheme="sssp", buffers=(2 ** 20,)),
                 cache=cache).run()
        b = Plan(Scenario(topology=bipartite44, scheme="sssp", buffers=(2 ** 24,)),
                 cache=cache).run()
        assert a.stage_cache["synthesize"] == "miss"
        assert b.stage_cache["synthesize"] == "hit"    # same schedule, new buffers
        assert b.stage_cache["simulate"] == "miss"

    def test_disk_tier_persists_stage_artifacts(self, bipartite44, tmp_path):
        # A warm plan reads the deepest stage's entry alone; the upstream
        # artifacts are read from their own entries when a caller asks.
        scenario = Scenario(topology=bipartite44, scheme="sssp", buffers=(2 ** 20,))
        cache = SolutionCache(cache_dir=str(tmp_path), name="stage-cache")
        cold = Plan(scenario, cache=cache).run()
        fresh = SolutionCache(cache_dir=str(tmp_path), name="stage-cache")
        result = Plan(scenario, cache=fresh).run()
        assert result.stage_cache == dict.fromkeys(STAGES, "hit")
        assert obs.snapshot()["stage-cache.disk_hits"] == 1
        assert result.schedule.paths == cold.schedule.paths
        assert result.lowered.assignments == cold.lowered.assignments
        assert obs.snapshot()["stage-cache.disk_hits"] == 3

    def test_stage_artifacts_of_another_version_miss(self, bipartite44, tmp_path,
                                                     monkeypatch):
        # A persistent cache dir must not serve artifacts built by other code.
        import repro

        scenario = Scenario(topology=bipartite44, scheme="sssp", buffers=(2 ** 20,))

        def disk_cache():
            return SolutionCache(cache_dir=str(tmp_path), name="stage-cache")

        Plan(scenario, cache=disk_cache()).run()
        keys = {stage: stage_artifact_key(scenario, stage) for stage in STAGES}
        record_key = scenario.key()
        monkeypatch.setattr(repro, "__version__", "9.9.9")
        result = Plan(scenario, cache=disk_cache()).run()
        assert result.stage_cache == dict.fromkeys(STAGES, "miss")
        assert all(stage_artifact_key(scenario, stage) != keys[stage]
                   for stage in STAGES)
        # Only the cache key is salted: the record identity resume matches on
        # stays the same.
        assert scenario.key() == record_key

    def test_tsmcf_scheme_with_host_bottleneck(self):
        plan = Plan(Scenario(topology="torus:dims=3x3", fabric="ml", scheme="tsmcf",
                             host_bandwidth=8.0 / 3.0), cache=_stage_cache())
        result = plan.run(through="synthesize")
        assert result.schedule.meta.get("augmented") is True
        assert result.num_terminals == 9
        assert result.schedule.topology.num_nodes == 27

    def test_unknown_scheme_is_an_error(self, bipartite44):
        # Rejected at construction, before any grid point solves an LP.
        with pytest.raises(ValueError, match="'ewps'.*available: .*'ewsp'"):
            Scenario(topology=bipartite44, scheme="ewps")


class TestObjectiveScheme:
    """``mcf-objective``: the certified master LP's F, synthesize only."""

    @pytest.mark.parametrize("spec", ["genkautz:d=4,n=16", "torus:dims=4x4",
                                      "hypercube:dim=4"])
    def test_f_matches_mcf_extp(self, spec):
        objective = Plan(Scenario(topology=spec, scheme="mcf-objective"),
                         cache=_stage_cache()).run(through="synthesize")
        extp = Plan(Scenario(topology=spec, scheme="mcf-extp"),
                    cache=_stage_cache()).run(through="synthesize")
        assert objective.concurrent_flow == pytest.approx(extp.concurrent_flow,
                                                          rel=1e-9)
        # mcf-extp's paths deliver F less the child LPs' slack; the
        # objective-only time is the exact optimum 1/F.
        assert objective.all_to_all_time == 1.0 / objective.concurrent_flow
        assert objective.num_terminals == extp.num_terminals == 16
        assert objective.num_graph_nodes == 16

    def test_record_metrics_and_certificate(self):
        result = run_scenarios([Scenario(topology="hypercube:dim=3",
                                         scheme="mcf-objective")],
                               through="synthesize", cache=_stage_cache())[0]
        assert result.status == "ok"
        assert result.metrics == {"concurrent_flow": pytest.approx(0.25),
                                  "all_to_all_time": pytest.approx(4.0),
                                  "num_nodes": 8, "num_graph_nodes": 8}
        assert abs(result.engine["certificate"]["gap"]) <= 1e-9

    @pytest.mark.parametrize("through", ["lower", "validate", "simulate"])
    def test_later_stages_fail_clearly(self, through):
        plan = Plan(Scenario(topology="hypercube:dim=3", scheme="mcf-objective",
                             buffers=(2 ** 20,)), cache=_stage_cache())
        with pytest.raises(ValueError, match="'mcf-objective'.*synthesize"):
            plan.run(through=through)
        assert plan.result.stage_seconds == {}

    def test_sweep_records_the_error(self):
        result = run_scenarios([Scenario(topology="hypercube:dim=3",
                                         scheme="mcf-objective")],
                               cache=_stage_cache())[0]
        assert result.status == "error"
        assert "synthesize" in result.error


def _same(a, b) -> bool:
    """Deep equality of two artifacts; topologies compare by content (their
    networkx graphs cache views on first use)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Topology):
        return topology_key(a) == topology_key(b)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "__dict__"):
        return _same(vars(a), vars(b))
    return a == b


class TestWarmRecords:
    """A warm plan reads one stage entry and reproduces the cold record."""

    CASES = [(scheme, through) for scheme in ("tsmcf", "mcf-extp", "taccl")
             for through in STAGES] + [("mcf-objective", "synthesize")]

    @pytest.mark.parametrize("scheme, through", CASES)
    def test_warm_record_equals_cold_record(self, scheme, through, tmp_path):
        # tsmcf: TimeSteppedFlow/LinkSchedule; mcf-extp: PathSchedule/
        # RoutedSchedule; taccl emits IR; mcf-objective a ConcurrentFlowValue.
        scenario = Scenario(topology="hypercube:dim=2", scheme=scheme,
                            buffers=(2 ** 20,))

        def disk_cache():
            return SolutionCache(cache_dir=str(tmp_path), name="stage-cache")

        (cold,) = run_scenarios([scenario], through, cache=disk_cache())
        obs.reset()
        (warm,) = run_scenarios([scenario], through, cache=disk_cache())
        assert cold.status == warm.status == "ok"
        assert warm.metrics == cold.metrics
        assert warm.engine == cold.engine
        ran = STAGES[:STAGES.index(through) + 1]
        assert warm.stage_cache == dict.fromkeys(ran, "hit")
        assert obs.snapshot() == {"stage-cache.hits": 1,
                                  "stage-cache.disk_hits": 1}
        for attr, stage in (("schedule", "synthesize"), ("lowered", "lower")):
            if stage not in ran:
                assert getattr(warm.plan, attr) is None
                continue
            obs.reset()
            artifact = getattr(warm.plan, attr)
            assert _same(artifact, getattr(cold.plan, attr))
            assert getattr(warm.plan, attr) is artifact  # read once, then kept
            reads = 0 if stage == through else 1
            assert obs.snapshot().get("stage-cache.disk_hits", 0) == reads
            assert "stage-cache.misses" not in obs.snapshot()


class TestSweepGrid:
    def test_cartesian_expansion_order(self):
        grid = SweepGrid(base={"fabric": "hpc"},
                         axes={"topology": ["hypercube:dim=2", "hypercube:dim=3"],
                               "scheme": ["ewsp", "sssp"]})
        scenarios = grid.scenarios()
        assert len(grid) == 4 and len(scenarios) == 4
        assert [s.label() for s in scenarios] == [
            "hypercube:dim=2/ewsp", "hypercube:dim=2/sssp",
            "hypercube:dim=3/ewsp", "hypercube:dim=3/sssp"]

    def test_base_axis_overlap_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(base={"scheme": "ewsp"}, axes={"scheme": ["sssp"]})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SweepGrid.from_dict({"base": {}, "axis": {}})


class TestRunSweep:
    GRID = SweepGrid(base={"fabric": "hpc", "buffers": [2 ** 20], "max_denominator": 16},
                     axes={"topology": ["hypercube:dim=2", "bipartite:left=3,right=3"],
                           "scheme": ["ewsp", "sssp"]})

    def test_streaming_jsonl_records(self, tmp_path):
        out = str(tmp_path / "sweep.jsonl")
        results = run_sweep(self.GRID.scenarios(), out_path=out, workers=2)
        assert [r.status for r in results] == ["ok"] * 4
        records = load_results(out)
        assert len(records) == 4
        for rec in records:
            assert rec["schema_version"] == scenario_schema_version()
            assert rec["status"] == "ok"
            assert len(rec["key"]) == 64
            assert rec["metrics"]["concurrent_flow"] > 0
            assert rec["timings"]["total_seconds"] >= 0
        assert sorted(completed_records([out])) == sorted(r.key for r in results)

    def test_each_topology_hashed_once_per_run(self, tmp_path, monkeypatch):
        # The keys run_sweep computes travel into the plan: a cold and a warm
        # run each hash every scenario's topology once.
        calls = []
        real = scenario_module.topology_key
        monkeypatch.setattr(scenario_module, "topology_key",
                            lambda topology: calls.append(topology) or real(topology))
        cache = _stage_cache()
        for _ in range(2):
            calls.clear()
            run_sweep(self.GRID.scenarios(), out_path=str(tmp_path / "k.jsonl"),
                      cache=cache)
            assert len(calls) == 4

    def test_error_scenarios_recorded_not_raised(self, tmp_path):
        out = str(tmp_path / "err.jsonl")
        scenarios = [Scenario(topology="bipartite:left=3,right=3", scheme="dor")]
        results = run_sweep(scenarios, out_path=out, cache=_stage_cache())
        assert results[0].status == "error" and results[0].error
        assert load_results(out)[0]["status"] == "error"
        assert completed_records([out]) == {}

    def test_resume_skips_completed_and_retries_errors(self, tmp_path):
        out = str(tmp_path / "resume.jsonl")
        scenarios = self.GRID.scenarios()
        run_sweep(scenarios, out_path=out, cache=_stage_cache())
        # Simulate a killed sweep: keep the first two records (plus a torn
        # trailing line, which the loader must ignore).
        records = [json.dumps(r, sort_keys=True) for r in load_results(out)]
        with open(out, "w") as fh:
            fh.write("\n".join(records[:2]) + "\n" + records[2][:37])
        resumed = run_sweep(scenarios, out_path=out, resume=True,
                            cache=_stage_cache())
        assert [r.resumed for r in resumed] == [True, True, False, False]
        assert [r.status for r in resumed] == ["ok"] * 4
        assert len(completed_records([out])) == 4
        # Resumed metrics come from the file and match the recomputed shape.
        assert resumed[0].metrics["concurrent_flow"] > 0

    def test_resume_ignores_records_from_shallower_runs(self, tmp_path):
        out = str(tmp_path / "shallow.jsonl")
        scenarios = [Scenario(topology="hypercube:dim=2", scheme="ewsp",
                              buffers=(2 ** 20,), max_denominator=16)]
        run_sweep(scenarios, out_path=out, through="synthesize",
                  cache=_stage_cache())
        assert load_results(out)[0]["through"] == "synthesize"
        # A full-simulate sweep must not accept the synthesize-only record.
        results = run_sweep(scenarios, out_path=out, resume=True,
                            through="simulate", cache=_stage_cache())
        assert results[0].resumed is False
        assert "throughput_bytes_per_s" in results[0].metrics
        # ...but a synthesize-only resume accepts the full record just written.
        again = run_sweep(scenarios, out_path=out, resume=True,
                          through="synthesize", cache=_stage_cache())
        assert again[0].resumed is True

    def test_rerun_solves_zero_new_lps(self, tmp_path, fresh_caches):
        grid = SweepGrid(base={"fabric": "hpc", "buffers": [2 ** 20],
                               "max_denominator": 16, "scheme": "mcf-extp"},
                         axes={"topology": ["hypercube:dim=2",
                                            "bipartite:left=3,right=3"]})
        run_sweep(grid.scenarios(), out_path=str(tmp_path / "a.jsonl"))
        misses_after_first = obs.snapshot()["lp-cache.misses"]
        assert misses_after_first > 0
        results = run_sweep(grid.scenarios(), out_path=str(tmp_path / "b.jsonl"))
        assert obs.snapshot()["lp-cache.misses"] == misses_after_first
        assert all(set(r.stage_cache.values()) == {"hit"} for r in results)

    def test_sweep_stats_aggregation(self, tmp_path):
        out = str(tmp_path / "stats.jsonl")
        results = run_sweep(self.GRID.scenarios(), out_path=out, cache=_stage_cache())
        stats = sweep_stats(results)
        assert stats["scenarios"] == 4 and stats["ok"] == 4
        assert stats["errors"] == 0 and stats["resumed"] == 0
        assert stats["stage_misses"] == 16

    def test_write_csv(self, tmp_path):
        results = run_scenarios(self.GRID.scenarios()[:2], cache=_stage_cache())
        path = tmp_path / "out.csv"
        write_csv(results, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("key,label,status")
        assert len(lines) == 3    # header + 2 scenarios x 1 buffer
