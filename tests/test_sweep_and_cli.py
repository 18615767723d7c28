"""Tests for the scheme registry, scheme comparison and the command-line interface."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser, build_topology, main
from repro.engine import reset_engine
from repro.experiments import (
    Scenario,
    available_scenario_schemes,
    reset_plan_cache,
    resolve_scheme,
    run_scenarios,
    scenario_schema_version,
)


class TestSchemeRegistry:
    def test_available_schemes_contains_paper_schemes(self):
        names = available_scenario_schemes()
        for expected in ("mcf-extp", "pmcf-disjoint", "ewsp", "sssp", "dor",
                         "native", "ilp-disjoint"):
            assert expected in names

    def test_resolve_scheme_by_name(self, bipartite44):
        schedule = resolve_scheme(Scenario(topology=bipartite44, scheme="ewsp"),
                                  bipartite44)
        assert schedule.concurrent_flow > 0

    def test_unknown_scheme_rejected(self, bipartite44):
        with pytest.raises(ValueError, match="does-not-exist"):
            Scenario(topology=bipartite44, scheme="does-not-exist")


def _compare(topology, schemes, buffers=()):
    scenarios = [Scenario(topology=topology, scheme=name, buffers=buffers,
                          max_denominator=16) for name in schemes]
    return run_scenarios(scenarios, through="simulate" if buffers else "synthesize")


class TestCompareSchemes:
    def test_compare_orders_mcf_first(self, capsys):
        assert main(["compare", "bipartite:left=4,right=4",
                     "--schemes", "mcf-extp,sssp,native"]) == 0
        out = capsys.readouterr().out
        vs_mcf = {cols[0]: float(cols[2]) for cols in map(str.split, out.splitlines())
                  if cols and cols[0] in ("mcf-extp", "sssp", "native")}
        assert vs_mcf["mcf-extp"] == pytest.approx(1.0, abs=0.01)
        assert vs_mcf["sssp"] >= 1.0 - 1e-9
        assert vs_mcf["native"] > vs_mcf["mcf-extp"]

    def test_compare_with_throughputs(self, bipartite44):
        results = _compare(bipartite44, ["ewsp"], buffers=(2.0 ** 20, 2.0 ** 24))
        throughputs = results[0].metrics["throughput_bytes_per_s"]
        assert len(throughputs) == 2
        assert all(tp > 0 for tp in throughputs.values())

    def test_failures_are_captured_not_raised(self, bipartite44):
        # DOR is undefined on a bipartite graph: the error is recorded on the
        # result instead of aborting the comparison.
        results = _compare(bipartite44, ["dor", "ewsp"])
        assert results[0].status == "error" and "DOR" in results[0].error
        assert results[1].status == "ok"


class TestTopologySpecs:
    @pytest.mark.parametrize("spec,nodes", [
        ("genkautz:d=3,n=10", 10),
        ("hypercube:dim=3", 8),
        ("twisted:dim=3", 8),
        ("bipartite:left=4,right=4", 8),
        ("torus:dims=3x3", 9),
        ("mesh:dims=2x3", 6),
        ("xpander:d=3,lift=3", 12),
        ("rrg:d=3,n=10,seed=2", 10),
    ])
    def test_build_topology_specs(self, spec, nodes):
        topo = build_topology(spec)
        assert topo.num_nodes == nodes
        assert topo.is_strongly_connected()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_topology("klein-bottle:n=4")

    def test_malformed_params_rejected(self):
        with pytest.raises(ValueError):
            build_topology("torus:3x3")


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["topology", "hypercube:dim=2"])
        assert args.command == "topology"

    def test_topology_command(self, capsys):
        assert main(["topology", "hypercube:dim=2"]) == 0
        out = capsys.readouterr().out
        assert "diameter" in out

    def test_synthesize_command_hpc(self, tmp_path, capsys):
        out_file = tmp_path / "schedule.xml"
        assert main(["synthesize", "genkautz:d=3,n=8", "--fabric", "hpc",
                     "-o", str(out_file)]) == 0
        assert out_file.exists()
        assert "F =" in capsys.readouterr().out

    def test_synthesize_command_ml(self, capsys):
        assert main(["synthesize", "bipartite:left=3,right=3", "--fabric", "ml"]) == 0
        assert "tsMCF" in capsys.readouterr().out

    def test_synthesize_repeat_is_served_by_stage_cache(self, tmp_path, capsys):
        argv = ["synthesize", "hypercube:dim=3", "-o", str(tmp_path / "s.xml")]
        assert main(argv) == 0
        first = (tmp_path / "s.xml").read_text()
        code, delta = obs.counted(main, argv)
        assert code == 0
        # synthesize, lower and validate all hit; the LP cache is not consulted.
        assert "lp-cache.hits" not in delta and "lp-cache.misses" not in delta
        assert delta["stage-cache.hits"] == 3
        assert (tmp_path / "s.xml").read_text() == first
        assert "stage-cache:" in capsys.readouterr().err

    def test_simulate_command(self, capsys):
        assert main(["simulate", "hypercube:dim=2", "--buffers", "1048576,16777216"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "torus:dims=3x3", "--schemes", "ewsp,sssp,dor"]) == 0
        out = capsys.readouterr().out
        assert "ewsp" in out and "dor" in out

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_compare_jobs_output_identical_to_serial(self, capsys):
        args = ["compare", "hypercube:dim=3", "--schemes", "ewsp,sssp,pmcf-disjoint"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--jobs", "3"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_compare_surfaces_cache_stats_on_stderr(self, capsys):
        assert main(["compare", "hypercube:dim=2", "--schemes", "ewsp"]) == 0
        err = capsys.readouterr().err
        assert "lp-cache:" in err and "stage-cache:" in err


class TestSweepCLI:
    ARGS = ["sweep",
            "--axis", "topology=hypercube:dim=2;bipartite:left=3,right=3",
            "--axis", "scheme=ewsp;sssp",
            "--set", "buffers=1048576", "--set", "max_denominator=16"]

    def test_sweep_writes_jsonl_and_csv(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.jsonl")
        csv_path = str(tmp_path / "sweep.csv")
        assert main(self.ARGS + ["--out", out, "--csv", csv_path, "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "Sweep: 4 scenario(s)" in captured.out
        assert "lp-cache:" in captured.err and "solve" in captured.err
        records = [json.loads(line) for line in open(out)]
        assert len(records) == 4
        assert all(r["status"] == "ok" and r["schema_version"] == scenario_schema_version()
                   for r in records)
        assert open(csv_path).readline().startswith("key,label,status")

    def test_sweep_resume_skips_completed(self, tmp_path, capsys):
        out = str(tmp_path / "resume.jsonl")
        assert main(self.ARGS + ["--out", out]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--out", out, "--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("resumed") == 4
        assert "(4 resumed)" in captured.err
        assert len(open(out).readlines()) == 4    # nothing re-appended

    def test_sweep_from_grid_file(self, tmp_path, capsys):
        grid = {"base": {"scheme": "ewsp", "buffers": [1048576]},
                "axes": {"topology": ["hypercube:dim=2", "ring:n=4"]}}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert main(["sweep", "--grid", str(path)]) == 0
        assert "Sweep: 2 scenario(s)" in capsys.readouterr().out

    def test_sweep_error_scenario_sets_exit_code(self, capsys):
        # DOR is undefined on a bipartite topology: recorded, exit code 1.
        assert main(["sweep", "--set", "topology=bipartite:left=3,right=3",
                     "--axis", "scheme=dor;ewsp"]) == 1
        assert "error" in capsys.readouterr().out

    def test_sweep_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            main(["sweep"])

    def test_check_sweep_schema_version_tracks_the_package(self):
        # benchmarks/check_sweep.py runs without the package on its path, so
        # it mirrors the schema version; this ties the copy to the source.
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "check_sweep.py"
        spec = importlib.util.spec_from_file_location("check_sweep", path)
        check_sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_sweep)
        assert check_sweep.SCHEMA_VERSION == scenario_schema_version()


class TestJobsKnob:
    """``--jobs N`` is N worker processes in every command, and never
    changes stdout: several scenarios go to the sweep pool, a single
    scenario gives the processes to its child LPs."""

    @pytest.mark.parametrize("argv", [
        ["compare", "hypercube:dim=3"],
        ["cluster", "hypercube:dim=3", "--trace", "cluster:jobs=4:seed=0",
         "--trace", "cluster:jobs=4:seed=1"],
        ["robustness", "hypercube:dim=3", "--faults", "faults:down=0~1@10us:up@50us",
         "--faults", "faults:down=0~1@10us"],
        ["simulate", "hypercube:dim=3", "--buffers", "1048576,16777216"],
    ], ids=["compare", "cluster", "robustness", "simulate"])
    def test_jobs_2_stdout_equals_jobs_1(self, argv, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        outputs = []
        for jobs in ("1", "2"):
            reset_engine()      # cold caches: the jobs=2 run solves in workers
            reset_plan_cache()
            assert main(argv + ["--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        reset_engine()
        reset_plan_cache()
        assert outputs[1] == outputs[0]

    def test_jobs_2_footer_counts_the_child_lps(self, capsys, monkeypatch):
        """Child LPs solved in pool processes reach the ``[stats]`` footer:
        8 children plus the master are 9 LP misses at either ``--jobs``."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        footers = []
        for jobs in ("1", "2"):
            reset_engine()
            reset_plan_cache()
            obs.reset()
            assert main(["simulate", "hypercube:dim=3", "--buffers", "1048576",
                         "--jobs", jobs]) == 0
            footer = next(line for line in capsys.readouterr().err.splitlines()
                          if line.startswith("[stats]"))
            footers.append(re.sub(r"\[[0-9.]+s fill\]", "", footer))
        reset_engine()
        reset_plan_cache()
        assert footers[1] == footers[0]
        assert "lp-cache: 0 hits / 9 misses" in footers[0]

    @pytest.mark.parametrize("argv", [
        ["robustness", "hypercube:dim=3", "--faults", "faults:down=0~1@5us:up@20us",
         "--faults", "faults:down=0~2@3us", "--adversarial", "1"],
        ["cluster", "hypercube:dim=3",
         "--trace", "cluster:jobs=3:arrival=poisson~2000:placement=random:seed=1",
         "--trace", "cluster:jobs=2:seed=2"],
    ], ids=["robustness", "cluster"])
    def test_jobs_2_footer_equals_jobs_1(self, argv, capsys, monkeypatch):
        """Fault and simulator counters of sweep workers reach the footer:
        from cold caches, ``--jobs 2`` prints the ``--jobs 1`` footer, wall
        seconds aside."""
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        footers = []
        for jobs in ("1", "2"):
            reset_engine()
            reset_plan_cache()
            obs.reset()
            assert main(argv + ["--jobs", jobs]) == 0
            footer = next(line for line in capsys.readouterr().err.splitlines()
                          if line.startswith("[stats]"))
            footers.append(re.sub(r"\[[0-9.]+s[^]]*\]", "", footer))
        reset_engine()
        reset_plan_cache()
        assert footers[1] == footers[0]
        assert re.search(r"sim: [1-9][0-9]* fill rounds", footers[0])
        assert ("fabric events" in footers[0]) == (argv[0] == "robustness")

    def test_one_scenario_gives_jobs_to_its_child_lps(self, monkeypatch, capsys):
        import repro.core.mcf_decomposed as decomposed

        pools = []
        real = decomposed.ProcessPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(decomposed, "ProcessPoolExecutor", pool)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        reset_engine()
        reset_plan_cache()
        try:
            assert main(["simulate", "hypercube:dim=3", "--buffers", "1048576",
                         "--jobs", "2"]) == 0
        finally:
            reset_engine()
            reset_plan_cache()
        assert pools == [2]

    def test_each_command_has_one_parallelism_flag(self):
        subparsers = next(a for a in build_parser()._actions
                          if a.dest == "command").choices
        for name, sub in subparsers.items():
            parallel = {opt for action in sub._actions for opt in action.option_strings
                        if "jobs" in action.dest or "workers" in action.dest}
            assert parallel == (set() if name == "topology" else {"--jobs"}), name
