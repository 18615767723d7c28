"""Tests for the reproduction-report subsystem (specs, render, provenance).

Covers the registry contract (every spec renders in ``--fast`` mode), the
provenance block schema, the CSV/Markdown fallback when matplotlib is absent,
and — the drift guard — byte-identical golden tables for the refactored
Fig. 3 / Fig. 4 / Table 1 benchmarks versus the pre-registry hand-rolled
constructions.
"""

import os

import pytest

from repro import obs
from repro.analysis import format_table, format_throughput_sweep
from repro.cli import main
from repro.experiments import Plan, Scenario
from repro.report import (
    REGISTRY,
    available_specs,
    collect_provenance,
    format_provenance,
    generate_report,
    get_spec,
    run_panel,
)
from repro.report.aggregate import Plot, SpecResult, Table, make_table
from repro.engine.cache import SolutionCache
from repro.experiments import run_scenarios
from repro.report.specs import FIG3, FIG4, FIG10, TABLE1
from repro.report.render import render_spec
from repro.simulator import a100_ml_fabric, cerio_hpc_fabric, steady_state_throughput
from repro.topology import from_spec

SMALL_BUFFERS = (2 ** 15, 2 ** 19)


class TestRegistry:
    def test_paper_artifacts_registered(self):
        for spec_id in ("fig3", "fig4", "fig7", "fig10", "table1"):
            assert spec_id in REGISTRY
        assert available_specs() == list(REGISTRY)

    def test_unknown_spec_rejected(self):
        with pytest.raises(KeyError):
            get_spec("fig99")

    def test_scenarios_carry_routable_names(self):
        for spec in REGISTRY.values():
            for scenario in spec.scenarios(fast=True):
                spec_id, panel_key, label = scenario.name.split("/", 2)
                assert spec_id == spec.spec_id
                assert spec.panel(panel_key).key == panel_key
                assert label

    def test_every_spec_renders_in_fast_mode(self, tmp_path):
        """The acceptance gate: the whole registry completes a --fast report."""
        summary = generate_report(out_dir=str(tmp_path), fast=True, workers=2)
        assert summary.errors == []
        index = (tmp_path / "index.md").read_text()
        for spec_id, spec in REGISTRY.items():
            assert f"## {spec_id} — {spec.title}" in index
        # Every artifact wrote at least one CSV data file.
        for art in summary.rendered:
            csvs = [f for f in art.files if f.endswith(".csv")]
            assert csvs, f"{art.spec_id} rendered no CSV fallback"
            assert all(os.path.exists(f) for f in art.files)
        # Sweep records streamed under data/ for resume.
        for spec_id in REGISTRY:
            assert (tmp_path / "data" / f"{spec_id}.jsonl").exists()


class TestFig10Claims:
    """The paper's Fig. 10 claims, pinned on the --fast grid."""

    #: Ratio to the Theorem 1 bound: left (GenKautz N=16), right (N=25).
    MEASURED = {"GenKautz N=16": 1.165, "GenKautz": 1.125, "2D Torus": 1.25,
                "Xpander": 1.389, "Random Regular": 1.325}

    @pytest.fixture(scope="class")
    def tables(self):
        results = run_scenarios(FIG10.scenarios(fast=True), through=FIG10.through,
                                cache=SolutionCache(name="stage-cache"))
        out = FIG10.aggregate(results, fast=True)
        assert out.errors == []
        assert {r.scenario.scheme for r in results} == {"mcf-objective"}
        return {table.name: table.rows for table in out.tables}

    def test_genkautz_near_the_bound(self, tables):
        (n, t, bound, ratio), = tables["left"]
        assert n == 16 and t >= bound
        assert ratio <= 2.0
        assert ratio == pytest.approx(self.MEASURED["GenKautz N=16"], abs=1e-3)

    def test_family_ordering(self, tables):
        ratio = {family: r for family, _n, _t, r in tables["right"]}
        assert ratio == pytest.approx(
            {k: v for k, v in self.MEASURED.items() if k in ratio}, abs=1e-3)
        assert all(1.0 <= r <= 2.0 for r in ratio.values())
        assert ratio["GenKautz"] < ratio["2D Torus"]
        for other in ("Xpander", "Random Regular"):
            assert ratio["GenKautz"] <= 1.05 * ratio[other]


class TestFig10Certificates:
    def test_every_master_is_certified_without_a_vertex(self):
        results = run_scenarios(FIG10.scenarios(fast=True), through=FIG10.through,
                                cache=SolutionCache(name="stage-cache"))
        for result in results:
            assert result.engine["method"] == "highs-ipm-no-crossover"
            assert abs(result.engine["certificate"]["gap"]) <= 1e-9
        one_source = [r for r in results if r.scenario.topology == "torus:dims=5x5"]
        assert [r.engine["num_variables"] for r in one_source] == [101]


class TestFig10Grid:
    def test_paper_scale_is_the_papers_sweep(self):
        panels = FIG10.panels(scale="paper")
        assert [p.topology for p in panels if p.key.startswith("left")] == [
            f"genkautz:d=4,n={n}" for n in (25, 64, 121, 256, 400)]
        right = {p.key for p in panels if p.key.startswith("right")}
        assert {"right-n100-2D Torus", "right-n225-Xpander",
                "right-n400-Random Regular"} <= right
        # aggregate() reads the grid of the scale it is given.
        errors = FIG10.aggregate([], scale="paper").errors
        assert "fig10/left-n400/GenKautz: missing result" in errors
        assert not any("left-n16/" in e for e in errors)


class TestProvenance:
    def test_block_schema(self):
        prov = collect_provenance(
            artifacts=[{"spec_id": "fig3", "kind": "figure", "status": "ok",
                        "seconds": 1.25, "num_scenarios": 4}],
            counts={"lp-cache.hits": 3, "lp-cache.misses": 2, "lp-cache.stores": 2,
                    "stage-cache.hits": 5, "stage-cache.misses": 4,
                    "stage-cache.stores": 4},
            backend="scipy-highs", fast=True)
        for key in ("schema_version", "generated_at", "git", "package_version",
                    "python", "platform", "dependencies", "solver_backend",
                    "artifacts", "lp_cache", "stage_cache", "new_lp_solves"):
            assert key in prov, key
        assert prov["new_lp_solves"] == 2
        assert prov["git"]["sha"]          # real repo: a SHA, never empty
        assert prov["dependencies"]["scipy"] != "absent"

    def test_worker_counters_reach_the_provenance(self, tmp_path, monkeypatch):
        """Worker processes send their counter deltas back: a cold fig4
        report on two workers counts its LP solves and fill rounds, and a
        warm re-run on the same cache directory solves no LP."""
        from repro.engine import reset_engine
        from repro.experiments import reset_plan_cache

        def fresh_process():
            reset_engine()
            reset_plan_cache()
            obs.reset()

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        try:
            fresh_process()
            cold = generate_report(out_dir=str(tmp_path / "cold"), fast=True,
                                   only=["fig4"], workers=2)
            assert cold.errors == []
            assert cold.provenance["new_lp_solves"] > 0
            assert cold.provenance["stage_cache"]["misses"] > 0
            assert obs.snapshot()["sim.fill_rounds"] > 0
            fresh_process()
            warm = generate_report(out_dir=str(tmp_path / "warm"), fast=True,
                                   only=["fig4"], workers=2)
            assert warm.provenance["new_lp_solves"] == 0
            assert warm.provenance["stage_cache"]["hits"] > 0
        finally:
            fresh_process()

    def test_markdown_rendering_is_grep_stable(self):
        prov = collect_provenance(
            artifacts=[{"spec_id": "table1", "kind": "table", "status": "ok",
                        "seconds": 0.5, "num_scenarios": 2}],
            counts={"stage-cache.hits": 2, "stage-cache.disk_hits": 2},
            backend="scipy-highs")
        text = format_provenance(prov)
        assert "git SHA" in text
        assert "new LP solves: 0" in text          # the CI warm-cache gate
        assert "| table1 | table | ok |" in text


class TestRenderFallback:
    def _spec_result(self):
        table = make_table("t", "A table", ["x", "y"], [[1, 2.0]])
        plot = Plot(name="demo_plot", title="Demo", x_label="x", y_label="y",
                    x=[1.0, 2.0], series={"s": [1.0, 2.0]})
        return SpecResult(spec_id="demo", kind="figure", title="Demo spec",
                          description="d", tables=[table], plots=[plot])

    def test_csv_fallback_when_matplotlib_absent(self, tmp_path, monkeypatch):
        from repro.report import render

        def _no_mpl():
            raise ImportError("matplotlib intentionally absent")

        monkeypatch.setattr(render, "_import_pyplot", _no_mpl)
        art = render_spec(self._spec_result(), str(tmp_path))
        assert art.figure_backend == "fallback"
        assert "matplotlib unavailable" in art.section
        assert not list(tmp_path.glob("*.png"))
        csv_path = tmp_path / "demo__t.csv"
        assert csv_path.read_text().splitlines() == ["x,y", "1,2.0"]
        assert "A table" in art.section

    def test_tables_always_embedded(self, tmp_path):
        art = render_spec(self._spec_result(), str(tmp_path))
        assert "```text" in art.section
        assert format_table(["x", "y"], [[1, 2.0]], title="A table") in art.section


class TestGoldenTables:
    """The refactored benchmarks must reproduce the hand-rolled PR-3 tables."""

    def test_fig3_bipartite_byte_identical(self):
        # Hand-rolled construction, verbatim from the pre-registry benchmark.
        fabric = a100_ml_fabric()

        class _Fake:
            def __init__(self, buf, tp):
                self.buffer_bytes = buf
                self.throughput = tp

        spec = "bipartite:left=4,right=4"
        ts = Plan(Scenario(topology=spec, fabric="ml", scheme="tsmcf",
                           buffers=SMALL_BUFFERS)).run()
        flow_value = ts.concurrent_flow
        bound = steady_state_throughput(ts.schedule.topology.num_nodes,
                                        flow_value, fabric)
        results = {
            "Upper Bound": [_Fake(b, bound) for b in SMALL_BUFFERS],
            "tsMCF/G": ts.sim_results,
        }
        taccl = Plan(Scenario(topology=spec, fabric="ml", scheme="taccl",
                              buffers=SMALL_BUFFERS)).run()
        results["TACCL/G"] = taccl.sim_results
        expected = format_throughput_sweep(
            results, title=f"Fig. 3 (Complete Bipartite, N={ts.num_terminals}): "
                           "throughput GB/s vs buffer size")

        data = run_panel(FIG3, FIG3.panel("bipartite"), buffers=SMALL_BUFFERS)
        assert data.tables[0].text == expected

    def test_fig4_twisted_byte_identical(self):
        fabric = cerio_hpc_fabric()

        class _Bound:
            def __init__(self, buf, tp):
                self.buffer_bytes = buf
                self.throughput = tp

        spec = "twisted:dim=3"
        schemes = {"MCF-extP/C": "mcf-extp", "EwSP/C": "ewsp", "SSSP/C": "sssp"}
        results = {}
        optimal_flow = None
        for label, scheme in schemes.items():
            done = Plan(Scenario(topology=spec, scheme=scheme, fabric="hpc",
                                 max_denominator=16,
                                 buffers=SMALL_BUFFERS)).run()
            if label == "MCF-extP/C":
                optimal_flow = done.concurrent_flow
            results[label] = done.sim_results
        topo = from_spec(spec)
        bound = steady_state_throughput(topo.num_nodes, optimal_flow, fabric)
        results = {"Upper Bound": [_Bound(b, bound) for b in SMALL_BUFFERS],
                   **results}
        expected = format_throughput_sweep(
            results, title=f"Fig. 4 (3D Twisted Hypercube, N={topo.num_nodes}): "
                           "throughput GB/s vs buffer size")

        data = run_panel(FIG4, FIG4.panel("twisted"), buffers=SMALL_BUFFERS)
        assert data.tables[0].text == expected

    def test_table1_byte_identical(self):
        hpc = cerio_hpc_fabric()
        ml = a100_ml_fabric()
        rows = [
            ["Schedules", "Path-based", "Link-based"],
            ["Topology focus", "Bisection bandwidth", "Node bandwidth"],
            ["Flow control", "Cut-through", "Store-and-forward"],
            ["NIC forwarding", str(hpc.nic_forwarding), str(ml.nic_forwarding)],
            ["Link bandwidth (GB/s)", f"{hpc.link_bandwidth / 1e9:.3f}",
             f"{ml.link_bandwidth / 1e9:.3f}"],
            ["Injection BW (GB/s)",
             f"{(hpc.injection_bandwidth or 0) / 1e9:.3f}",
             "= d*b" if ml.injection_bandwidth is None
             else f"{ml.injection_bandwidth / 1e9:.3f}"],
            ["Forwarding BW (GB/s)",
             f"{(hpc.forwarding_bandwidth or 0) / 1e9:.3f}", "= injection"],
            ["Per-step latency (us)", f"{hpc.per_step_latency * 1e6:.1f}",
             f"{ml.per_step_latency * 1e6:.1f}"],
        ]
        expected_static = format_table(
            ["Property", "HPC (Cerio-like)", "ML accelerator (A100-like)"], rows,
            title="Table 1: fabric models used by the simulator")
        assert TABLE1.static_table().text == expected_static

        buf = 2 ** 26
        full = Plan(Scenario(topology="torus:dims=3x3", scheme="mcf-extp",
                             fabric="hpc", buffers=(buf,))).run()
        capped = Plan(Scenario(topology="torus:dims=3x3", scheme="mcf-extp",
                               fabric="hpc:forwarding_gbps=100",
                               buffers=(buf,))).run()
        expected_effect = format_table(
            ["fabric", "throughput GB/s"],
            [["forwarding 300 Gbps", full.sim_results[0].throughput / 1e9],
             ["forwarding 100 Gbps", capped.sim_results[0].throughput / 1e9]],
            title="Forwarding-bandwidth effect (same MCF-extP schedule, "
                  "3x3 torus, 64 MiB)")
        data = run_panel(TABLE1, TABLE1.panel("forwarding"))
        assert data.tables[-1].text == expected_effect


class TestReportCLI:
    def test_report_fast_subset_writes_stamped_index(self, tmp_path, capsys):
        out = str(tmp_path / "report")
        assert main(["report", "--fast", "--only", "table1", "--out", out]) == 0
        captured = capsys.readouterr()
        assert "table1" in captured.out
        assert "lp-cache:" in captured.err and "new LP solves:" in captured.err
        index = (tmp_path / "report" / "index.md").read_text()
        assert "git SHA" in index
        assert "new LP solves:" in index
        assert "| table1 | table | ok |" in index       # per-artifact timing row
        assert "Table 1: fabric models used by the simulator" in index

    def test_report_rejects_unknown_artifact(self, tmp_path):
        with pytest.raises(ValueError):
            main(["report", "--only", "fig99", "--out", str(tmp_path)])

    def test_report_list(self, capsys):
        assert main(["report", "--list"]) == 0
        out = capsys.readouterr().out
        for spec_id in REGISTRY:
            assert spec_id in out


class TestTable:
    def test_throughput_table_rows_mirror_text(self):
        from repro.report.aggregate import Point, throughput_table

        series = {"A": [Point(1024.0, 2e9), Point(2048.0, 4e9)]}
        table = throughput_table("p", "T", series)
        assert isinstance(table, Table)
        assert table.headers == ["buffer_bytes", "A"]
        assert table.rows == [[1024, 2.0], [2048, 4.0]]
        assert "1.0KiB" in table.text and "2.0KiB" in table.text
