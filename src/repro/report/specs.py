"""Declarative registry of the paper's figures and tables.

Each :class:`ArtifactSpec` declares one artifact of conf_hpdc_BasuZFPKK24
(fig3, fig4, fig7, fig10, table1) as *data*: a scenario grid (executed through
:func:`repro.experiments.run_sweep`, so stage caching, ``--jobs`` and
``--resume`` come for free) plus an aggregation from sweep records to
:class:`~repro.report.aggregate.Table`/:class:`~repro.report.aggregate.Plot`
artifacts.

The Fig. 3 / Fig. 4 / Table 1 benchmarks are thin wrappers over the same
specs via :func:`run_panel` — identical scenario definitions and byte-identical
table text — so benchmarks, CI and ``repro report`` can never drift apart.

``fast=True`` selects reduced grids (fewer panels, sizes and buffer points)
sized for CI smoke runs; the full grids match the benchmarks' default
(``REPRO_BENCH_SCALE=small``) configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis import format_table
from ..baselines import ILP_BOUNDED_PARAMS
from ..core import lower_bound_time_regular
from ..experiments import Plan, Scenario, ScenarioResult, result_from_plan
from ..simulator import a100_ml_fabric, cerio_hpc_fabric, steady_state_throughput
from ..topology import from_spec
from .aggregate import (
    Plot,
    Point,
    SpecResult,
    Table,
    make_table,
    throughput_series,
    throughput_table,
)

__all__ = ["SeriesSpec", "PanelSpec", "PanelData", "ArtifactSpec",
           "ThroughputFigureSpec", "run_panel", "REGISTRY", "available_specs",
           "get_spec", "FIG3", "FIG4", "FIG7", "FIG10", "FIG_CLUSTER",
           "FIG_ROBUSTNESS", "TABLE1"]

#: Fixed categorical series colors (validated light-mode palette) — assigned
#: by *label* from each spec's canonical label order, never by position in a
#: panel, so a panel that omits a series does not repaint the survivors.
CATEGORICAL = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
               "#e87ba4", "#008300", "#4a3aa7", "#e34948")
#: Reference lines (theoretical bounds) wear neutral ink, not a series hue.
BOUND_COLOR = "#52514e"

#: Full-grid buffer sweep (matches ``benchmarks/conftest.py`` at small scale)
#: and the reduced --fast sweep.
FULL_BUFFERS = (2 ** 15, 2 ** 19, 2 ** 23, 2 ** 27)
FAST_BUFFERS = (2 ** 15, 2 ** 23)


@dataclass
class SeriesSpec:
    """One column of a panel: a display label bound to a scheme (+ knobs)."""

    label: str
    scheme: str
    scheme_params: Mapping[str, object] = field(default_factory=dict)
    fabric: Optional[str] = None          # overrides the spec's default fabric


@dataclass
class PanelSpec:
    """One panel of a figure: a topology plus the series drawn on it."""

    key: str                              # short id, e.g. "bipartite"
    name: str                             # display name, e.g. "Complete Bipartite"
    topology: str                         # topology spec string
    series: Tuple[SeriesSpec, ...]
    host_bandwidth: Optional[float] = None


@dataclass
class PanelData:
    """Everything :func:`run_panel` produced for one panel (benchmark-facing)."""

    panel: PanelSpec
    results: Dict[str, ScenarioResult]    # label -> executed scenario
    series: Dict[str, List[Point]]        # label -> simulated points (+ bounds)
    tables: List[Table]
    plots: List[Plot]


# --------------------------------------------------------------------------- #
# Spec base
# --------------------------------------------------------------------------- #
class ArtifactSpec:
    """Base class: a paper artifact as scenarios plus an aggregation.

    Subclasses define :meth:`panels` and :meth:`aggregate_panel`;
    :meth:`scenarios` / :meth:`aggregate` derive the flat sweep interface the
    report driver uses.  Scenario ``name`` fields encode
    ``<spec_id>/<panel>/<label>`` so sweep results map back to panels without
    re-hashing (names are cosmetic: they never enter the scenario key).
    """

    spec_id: str = ""
    kind: str = "figure"                  # "figure" | "table"
    title: str = ""
    description: str = ""
    through: str = "simulate"             # last Plan stage the scenarios run
    timed_through: str = "synthesize"     # stage run under the benchmark timer
    headline: str = ""                    # label the benchmark times
    label_order: Tuple[str, ...] = ()     # canonical label -> color assignment
    fabric: str = "hpc"
    max_denominator: int = 64

    # ------------------------------------------------------------------ #
    def buffers(self, fast: bool = False) -> Tuple[int, ...]:
        """Buffer sweep for the simulate stage (empty for synthesis-only specs)."""
        return FAST_BUFFERS if fast else FULL_BUFFERS

    def panels(self, fast: bool = False, scale: str = "small") -> Tuple[PanelSpec, ...]:
        """The spec's panels; ``fast`` trims to the CI subset."""
        raise NotImplementedError

    def panel(self, key: str, scale: str = "small") -> PanelSpec:
        """Look up one panel by key (benchmark entry point)."""
        for panel in self.panels(fast=False, scale=scale):
            if panel.key == key:
                return panel
        raise KeyError(f"{self.spec_id}: unknown panel {key!r}")

    def scenario_name(self, panel: PanelSpec, label: str) -> str:
        """The ``name`` stamped on a panel series' scenario."""
        return f"{self.spec_id}/{panel.key}/{label}"

    def panel_fields(self, panel: PanelSpec) -> Dict[str, object]:
        """Scenario fields one panel adds to its series' scenarios (none here)."""
        return {}

    def scenario(self, panel: PanelSpec, series: SeriesSpec,
                 buffers: Sequence[float]) -> Scenario:
        """Materialize one panel series as a declarative scenario."""
        return Scenario(
            topology=panel.topology,
            fabric=series.fabric or self.fabric,
            scheme=series.scheme,
            scheme_params=dict(series.scheme_params),
            host_bandwidth=panel.host_bandwidth,
            max_denominator=self.max_denominator,
            buffers=tuple(buffers),
            name=self.scenario_name(panel, series.label),
            **self.panel_fields(panel),
        )

    def scenarios(self, fast: bool = False) -> List[Scenario]:
        """The spec's full scenario list (the grid ``run_sweep`` executes)."""
        buffers = self.buffers(fast)
        return [self.scenario(panel, series, buffers)
                for panel in self.panels(fast)
                for series in panel.series]

    # ------------------------------------------------------------------ #
    def aggregate_panel(self, panel: PanelSpec,
                        results_by_label: Mapping[str, ScenarioResult],
                        ) -> Tuple[List[Table], List[Plot], Dict[str, List[Point]]]:
        """Turn one panel's executed scenarios into tables/plots/series."""
        raise NotImplementedError

    def aggregate(self, results: Sequence[ScenarioResult],
                  fast: bool = False, scale: str = "small") -> SpecResult:
        """Turn a completed sweep of ``panels(fast, scale)`` into a :class:`SpecResult`."""
        out = SpecResult(spec_id=self.spec_id, kind=self.kind, title=self.title,
                         description=self.description)
        out.num_scenarios = len(results)
        out.num_resumed = sum(1 for r in results if r.resumed)
        for res in results:
            for status in res.stage_cache.values():
                out.stage_cache[status] = out.stage_cache.get(status, 0) + 1
        by_name = {r.scenario.name: r for r in results}
        for panel in self.panels(fast, scale):
            label_results: Dict[str, ScenarioResult] = {}
            failed = False
            for series in panel.series:
                res = by_name.get(self.scenario_name(panel, series.label))
                if res is None or res.status != "ok":
                    out.errors.append(
                        f"{self.scenario_name(panel, series.label)}: "
                        + (res.error or "unknown error" if res else "missing result"))
                    failed = True
                    continue
                label_results[series.label] = res
            if failed:
                continue
            tables, plots, _ = self.aggregate_panel(panel, label_results)
            out.tables.extend(tables)
            out.plots.extend(plots)
        return out

    # ------------------------------------------------------------------ #
    def series_color(self, label: str) -> str:
        """Fixed categorical color for a series label (bounds wear neutral ink)."""
        if label not in self.label_order:
            return BOUND_COLOR
        return CATEGORICAL[self.label_order.index(label) % len(CATEGORICAL)]

    def _throughput_plot(self, panel: PanelSpec, title: str,
                         series: Mapping[str, List[Point]]) -> Plot:
        buffers = next(iter(series.values()), [])
        return Plot(
            name=f"{self.spec_id}_{panel.key}",
            title=title,
            x_label="buffer size (bytes)",
            y_label="throughput (GB/s)",
            x=[p.buffer_bytes for p in buffers],
            series={label: [p.throughput / 1e9 for p in points]
                    for label, points in series.items()},
            colors={label: self.series_color(label) for label in series},
            logx=True,
        )


def run_panel(spec: ArtifactSpec, panel: PanelSpec,
              buffers: Optional[Sequence[float]] = None,
              timer=None, cache=None) -> PanelData:
    """Execute one panel through the staged Plan pipeline (benchmark path).

    ``timer`` (if given) is called as ``timer(fn)`` exactly once, wrapping the
    headline series' partial run through ``spec.timed_through`` — the hook the
    benchmarks point at ``benchmark.pedantic``.  ``cache`` overrides the
    process-wide stage cache (benchmarks pass a local one so a disabled global
    cache still demonstrates stage sharing).  Tables are byte-identical to the
    report's rendering of the same panel.
    """
    if buffers is None:
        buffers = spec.buffers(fast=False)
    results: Dict[str, ScenarioResult] = {}
    for series in panel.series:
        scenario = spec.scenario(panel, series, buffers)
        plan = Plan(scenario, cache=cache)
        if timer is not None and series.label == spec.headline:
            timer(lambda: plan.run(through=spec.timed_through))
        results[series.label] = result_from_plan(
            scenario, plan.run(through=spec.through), through=spec.through,
            key=plan.keys["simulate"])
    tables, plots, series_map = spec.aggregate_panel(panel, results)
    return PanelData(panel=panel, results=results, series=series_map,
                     tables=tables, plots=plots)


# --------------------------------------------------------------------------- #
# Fig. 3 / Fig. 4 — throughput-vs-buffer figures
# --------------------------------------------------------------------------- #
class ThroughputFigureSpec(ArtifactSpec):
    """Shared shape of Fig. 3/4: per-panel buffer sweeps plus an upper bound."""

    def _bound_and_title(self, panel: PanelSpec,
                         metrics: Mapping[str, object]) -> Tuple[float, str]:
        raise NotImplementedError

    def aggregate_panel(self, panel, results_by_label):
        head = results_by_label[self.headline]
        bound, title = self._bound_and_title(panel, head.metrics)
        series: Dict[str, List[Point]] = {}
        head_points = [Point(p.buffer_bytes, bound)
                       for p in throughput_series(head.metrics)]
        series["Upper Bound"] = head_points
        for s in panel.series:
            series[s.label] = throughput_series(results_by_label[s.label].metrics)
        table = throughput_table(panel.key, title, series)
        plot = self._throughput_plot(panel, title, series)
        return [table], [plot], series


class _Fig3Spec(ThroughputFigureSpec):
    """Fig. 3: link-based all-to-all schedules on the ML (A100-like) fabric."""

    spec_id = "fig3"
    title = "Fig. 3: throughput of link-based all-to-all schedules"
    description = ("tsMCF vs the TACCL-like surrogate and the theoretical "
                   "upper bound (N-1)*f*b on the store-and-forward ML fabric; "
                   "the torus panel adds the paper's host-injection bottleneck.")
    fabric = "ml"
    headline = "tsMCF/G"
    label_order = ("tsMCF/G", "TACCL/G")

    def panels(self, fast: bool = False, scale: str = "small"):
        both = (SeriesSpec("tsMCF/G", "tsmcf"), SeriesSpec("TACCL/G", "taccl"))
        panels = [PanelSpec("bipartite", "Complete Bipartite",
                            "bipartite:left=4,right=4", both)]
        if fast:
            return tuple(panels)
        panels.append(PanelSpec("hypercube", "3D Hypercube", "hypercube:dim=3", both))
        panels.append(PanelSpec("twisted", "3D Twisted Hypercube", "twisted:dim=3", both))
        dims = "3x3x3" if scale == "paper" else "3x3"
        spec = f"torus:dims={dims}"
        # §5.1 ratio: 100 Gbps injection vs degree * 25 Gbps NIC bandwidth.
        host_bandwidth = from_spec(spec).degree() * 2.0 / 3.0
        panels.append(PanelSpec("torus", f"Torus {dims} (host bottleneck)", spec,
                                (SeriesSpec("tsMCF/G", "tsmcf"),),
                                host_bandwidth=host_bandwidth))
        return tuple(panels)

    def _bound_and_title(self, panel, metrics):
        # The bound (like the simulated series) is expressed over the graph the
        # schedule runs on — the augmented graph when a host bottleneck applies.
        n_graph = int(metrics.get("num_graph_nodes", metrics.get("num_nodes", 0)))
        bound = steady_state_throughput(n_graph, float(metrics["concurrent_flow"]),
                                        a100_ml_fabric())
        title = (f"Fig. 3 ({panel.name}, N={metrics['num_nodes']}): "
                 "throughput GB/s vs buffer size")
        return bound, title


class _Fig4Spec(ThroughputFigureSpec):
    """Fig. 4: path-based (routed) schedules on the cut-through HPC fabric."""

    spec_id = "fig4"
    title = "Fig. 4: throughput of path-based all-to-all schedules"
    description = ("MCF-extP vs ILP-disjoint, EwSP, SSSP, DOR and the native "
                   "single-path baseline on the Cerio-like fabric, whose "
                   "forwarding bandwidth exceeds injection bandwidth.")
    fabric = "hpc"
    headline = "MCF-extP/C"
    max_denominator = 16
    label_order = ("MCF-extP/C", "ILP-disjoint/C", "EwSP/C", "SSSP/C",
                   "DOR/C", "NCCL-native/G", "OMPI-native/C")

    def panels(self, fast: bool = False, scale: str = "small"):
        if fast:
            return (PanelSpec("bipartite", "Complete Bipartite",
                              "bipartite:left=4,right=4",
                              (SeriesSpec("MCF-extP/C", "mcf-extp"),
                               SeriesSpec("EwSP/C", "ewsp"),
                               SeriesSpec("NCCL-native/G", "native"))),)
        dims = "3x3x3" if scale == "paper" else "3x3"
        return (
            PanelSpec("bipartite", "Complete Bipartite", "bipartite:left=4,right=4",
                      (SeriesSpec("MCF-extP/C", "mcf-extp"),
                       SeriesSpec("ILP-disjoint/C", "ilp-disjoint"),
                       SeriesSpec("EwSP/C", "ewsp"),
                       SeriesSpec("NCCL-native/G", "native"))),
            PanelSpec("hypercube", "3D Hypercube", "hypercube:dim=3",
                      (SeriesSpec("MCF-extP/C", "mcf-extp"),
                       SeriesSpec("ILP-disjoint/C", "ilp-disjoint"),
                       SeriesSpec("EwSP/C", "ewsp"),
                       SeriesSpec("SSSP/C", "sssp"))),
            PanelSpec("twisted", "3D Twisted Hypercube", "twisted:dim=3",
                      (SeriesSpec("MCF-extP/C", "mcf-extp"),
                       SeriesSpec("EwSP/C", "ewsp"),
                       SeriesSpec("SSSP/C", "sssp"))),
            PanelSpec("torus", f"Torus {dims}", f"torus:dims={dims}",
                      (SeriesSpec("MCF-extP/C", "mcf-extp"),
                       SeriesSpec("ILP-disjoint/C", "ilp-disjoint", ILP_BOUNDED_PARAMS),
                       SeriesSpec("DOR/C", "dor"),
                       SeriesSpec("SSSP/C", "sssp"),
                       SeriesSpec("EwSP/C", "ewsp"),
                       SeriesSpec("OMPI-native/C", "native"))),
        )

    def _bound_and_title(self, panel, metrics):
        num_nodes = from_spec(panel.topology).num_nodes
        bound = steady_state_throughput(num_nodes, float(metrics["concurrent_flow"]),
                                        cerio_hpc_fabric())
        title = (f"Fig. 4 ({panel.name}, N={num_nodes}): "
                 "throughput GB/s vs buffer size")
        return bound, title


# --------------------------------------------------------------------------- #
# Table 1 — fabric models + forwarding-bandwidth effect
# --------------------------------------------------------------------------- #
class _Table1Spec(ArtifactSpec):
    """Table 1: HPC vs ML fabric models, plus the forwarding-BW effect."""

    spec_id = "table1"
    kind = "table"
    title = "Table 1: HPC vs ML accelerator fabric models"
    description = ("The qualitative comparison of Table 1 as concrete fabric "
                   "parameters, quantified by simulating one MCF-extP schedule "
                   "under two forwarding-bandwidth settings.")
    headline = "forwarding 300 Gbps"
    timed_through = "lower"
    label_order = ("forwarding 300 Gbps", "forwarding 100 Gbps")
    _BUF = 2 ** 26

    def buffers(self, fast: bool = False):
        return (self._BUF,)

    def panels(self, fast: bool = False, scale: str = "small"):
        return (PanelSpec(
            "forwarding", "Forwarding-bandwidth effect", "torus:dims=3x3",
            (SeriesSpec("forwarding 300 Gbps", "mcf-extp", fabric="hpc"),
             SeriesSpec("forwarding 100 Gbps", "mcf-extp",
                        fabric="hpc:forwarding_gbps=100"))),)

    @staticmethod
    def static_table() -> Table:
        """The fabric-parameter comparison (no scenarios: pure model data)."""
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
        return make_table("fabrics", "Table 1: fabric models used by the simulator",
                          ["Property", "HPC (Cerio-like)", "ML accelerator (A100-like)"],
                          rows)

    def aggregate_panel(self, panel, results_by_label):
        series: Dict[str, List[Point]] = {}
        rows = []
        buf = float(self._BUF)
        for s in panel.series:
            # One simulated point per scenario; read the buffer that actually
            # ran so a caller-supplied buffers override aggregates correctly.
            points = throughput_series(results_by_label[s.label].metrics)
            series[s.label] = points[:1]
            buf = points[0].buffer_bytes
            rows.append([s.label, points[0].throughput / 1e9])
        label = (f"{int(buf // 2 ** 20)} MiB" if buf % 2 ** 20 == 0
                 else f"{int(buf)} B")
        effect = make_table(
            "forwarding_effect",
            "Forwarding-bandwidth effect (same MCF-extP schedule, "
            f"3x3 torus, {label})",
            ["fabric", "throughput GB/s"], rows)
        return [self.static_table(), effect], [], series


# --------------------------------------------------------------------------- #
# Fig. 7 — schedule-generation runtime (synthesize-only scenarios)
# --------------------------------------------------------------------------- #
class _Fig7Spec(ArtifactSpec):
    """Fig. 7 companion: synthesis runtime vs N through the scenario layer."""

    spec_id = "fig7"
    title = "Fig. 7: schedule-generation runtime on GenKautz graphs"
    description = ("Synthesis wall-clock versus network size (degree-4 "
                   "generalized Kautz) for the decomposed MCF-extP pipeline "
                   "and the TACCL-like surrogate; cached stages report their "
                   "stage-cache status instead of pretending to be solves.")
    through = "synthesize"
    headline = "MCF-extP"
    label_order = ("MCF-extP", "TACCL-like")
    _SCHEMES = (("MCF-extP", "mcf-extp"), ("TACCL-like", "taccl"))

    def buffers(self, fast: bool = False):
        return ()

    def sizes(self, fast: bool = False) -> Tuple[int, ...]:
        """GenKautz sizes swept (reduced from the paper's 1000-node sweep)."""
        return (12,) if fast else (12, 20, 32)

    def panels(self, fast: bool = False, scale: str = "small"):
        return tuple(
            PanelSpec(f"n{n}", f"GenKautz N={n}", f"genkautz:d=4,n={n}",
                      tuple(SeriesSpec(label, scheme)
                            for label, scheme in self._SCHEMES))
            for n in self.sizes(fast))

    def aggregate_panel(self, panel, results_by_label):
        rows = []
        series: Dict[str, List[Point]] = {}
        for s in panel.series:
            res = results_by_label[s.label]
            timings = res.timings
            rows.append([
                s.label,
                from_spec(panel.topology).num_nodes,
                f"{float(timings.get('synthesize_seconds', 0.0)):.3f}",
                f"{float(timings.get('assemble_seconds', 0.0)):.3f}",
                f"{float(timings.get('solve_seconds', 0.0)):.3f}",
                res.stage_cache.get("synthesize", "-"),
                "-" if res.metrics.get("concurrent_flow") is None
                else f"{float(res.metrics['concurrent_flow']):.6f}",
            ])
            series[s.label] = [Point(0.0, float(timings.get("synthesize_seconds", 0.0)))]
        table = make_table(
            panel.key,
            f"Fig. 7 ({panel.name}): synthesis runtime (degree-4 GenKautz)",
            ["algorithm", "N", "synthesize (s)", "assemble (s)", "solve (s)",
             "stage cache", "F"], rows)
        return [table], [], series

    def aggregate(self, results, fast: bool = False, scale: str = "small") -> SpecResult:
        out = super().aggregate(results, fast, scale)
        if out.errors:
            return out
        # One cross-panel plot: runtime vs N per algorithm (log y).
        sizes = list(self.sizes(fast))
        by_name = {r.scenario.name: r for r in results}
        series = {}
        for label, _scheme in self._SCHEMES:
            ys = []
            for panel in self.panels(fast, scale):
                res = by_name[self.scenario_name(panel, label)]
                ys.append(float(res.timings.get("synthesize_seconds", 0.0)))
            series[label] = ys
        out.plots.append(Plot(
            name="fig7_runtime", title=self.title,
            x_label="network size N", y_label="synthesis time (s)",
            x=[float(n) for n in sizes], series=series,
            colors={label: self.series_color(label) for label in series},
            logy=True))
        return out


# --------------------------------------------------------------------------- #
# Fig. 10 — topology families vs the Theorem 1 lower bound
# --------------------------------------------------------------------------- #
class _Fig10Spec(ArtifactSpec):
    """Fig. 10: all-to-all time of topology families vs the lower bound."""

    spec_id = "fig10"
    title = "Fig. 10: topology comparison vs the Theorem 1 lower bound"
    description = ("Left: degree-4 GenKautz all-to-all time (1/F from the "
                   "optimal MCF) vs the Theorem 1 lower bound over N.  Right: "
                   "topology families (GenKautz, 2D torus, Xpander, random "
                   "regular) normalized by the bound at matched sizes.")
    # Every value is 1/F, so the scenarios solve the certified master LP
    # alone (mcf-objective): no child LPs, no path extraction.
    through = "synthesize"
    headline = "GenKautz"
    label_order = ("GenKautz", "2D Torus", "Xpander", "Random Regular")
    _DEGREE = 4

    def buffers(self, fast: bool = False):
        return ()

    def left_sizes(self, fast: bool = False, scale: str = "small") -> Tuple[int, ...]:
        """Left-panel GenKautz sizes (``scale="paper"``: the paper's sweep)."""
        if fast:
            return (16,)
        return (25, 64, 121, 256, 400) if scale == "paper" else (16, 36, 64)

    def right_sizes(self, fast: bool = False, scale: str = "small") -> Tuple[int, ...]:
        """Right-panel family sizes (squares, so the 2D torus exists)."""
        if fast:
            return (25,)
        return (25, 100, 225, 400) if scale == "paper" else (25, 64)

    def _family_specs(self, n: int) -> List[Tuple[str, str]]:
        d = self._DEGREE
        families = [("GenKautz", f"genkautz:d={d},n={n}")]
        side = int(round(n ** 0.5))
        if side * side == n:
            families.append(("2D Torus", f"torus:dims={side}x{side}"))
        if n % (d + 1) == 0:
            families.append(("Xpander", f"xpander:d={d},lift={n // (d + 1)}"))
        families.append(("Random Regular", f"rrg:d={d},n={n},seed=0"))
        return families

    def panels(self, fast: bool = False, scale: str = "small"):
        panels = [PanelSpec(f"left-n{n}", f"GenKautz N={n}",
                            f"genkautz:d={self._DEGREE},n={n}",
                            (SeriesSpec("GenKautz", "mcf-objective"),))
                  for n in self.left_sizes(fast, scale)]
        for n in self.right_sizes(fast, scale):
            for family, spec in self._family_specs(n):
                panels.append(PanelSpec(f"right-n{n}-{family}", f"{family} N={n}",
                                        spec, (SeriesSpec(family, "mcf-objective"),)))
        return tuple(panels)

    def aggregate_panel(self, panel, results_by_label):
        # Per-panel artifacts are assembled into the two figure tables in
        # aggregate(); individual panels contribute rows only.
        return [], [], {}

    def aggregate(self, results, fast: bool = False, scale: str = "small") -> SpecResult:
        out = super().aggregate(results, fast, scale)
        if out.errors:
            return out
        by_name = {r.scenario.name: r for r in results}
        panels = {panel.key: panel for panel in self.panels(fast, scale)}

        def time_of(panel: PanelSpec, label: str) -> float:
            res = by_name[self.scenario_name(panel, label)]
            return 1.0 / float(res.metrics["concurrent_flow"])

        left_rows = []
        for n in self.left_sizes(fast, scale):
            panel = panels[f"left-n{n}"]
            t = time_of(panel, "GenKautz")
            bound = lower_bound_time_regular(self._DEGREE, n)
            left_rows.append([n, t, bound, t / bound])
        out.tables.append(make_table(
            "left", f"Fig. 10 (left): GenKautz degree {self._DEGREE} "
                    "vs Theorem 1 lower bound",
            ["N", "GenKautz all-to-all time", "lower bound", "ratio"], left_rows))
        out.plots.append(Plot(
            name="fig10_left", title="GenKautz vs Theorem 1 lower bound",
            x_label="network size N", y_label="all-to-all time",
            x=[float(r[0]) for r in left_rows],
            series={"GenKautz": [r[1] for r in left_rows],
                    "Lower bound": [r[2] for r in left_rows]},
            colors={"GenKautz": self.series_color("GenKautz"),
                    "Lower bound": BOUND_COLOR}))

        right_rows = []
        for n in self.right_sizes(fast, scale):
            bound = lower_bound_time_regular(self._DEGREE, n)
            for family, _spec in self._family_specs(n):
                panel = panels[f"right-n{n}-{family}"]
                t = time_of(panel, family)
                num_nodes = from_spec(panel.topology).num_nodes
                right_rows.append([family, num_nodes, t, t / bound])
        if right_rows:
            out.tables.append(make_table(
                "right", f"Fig. 10 (right): topology families at degree {self._DEGREE}",
                ["family", "N", "all-to-all time", "normalized by lower bound"],
                right_rows))
        return out


# --------------------------------------------------------------------------- #
# fig_cluster — multi-job slowdown vs offered load (cluster co-simulation)
# --------------------------------------------------------------------------- #
class _FigClusterSpec(ArtifactSpec):
    """Cluster co-simulation: per-job slowdown versus Poisson offered load.

    One panel per arrival rate, all sharing a single synthesized MCF-extP
    schedule (the cluster trace enters the simulate stage key only).  The
    aggregate is a slowdown-vs-load curve: p50/p99 job slowdown against the
    Poisson arrival rate, plus a table carrying makespan and time-weighted
    fabric utilization per load point.
    """

    spec_id = "fig_cluster"
    title = "Cluster co-simulation: job slowdown vs offered load"
    description = ("Six-job Poisson traces (packed placement) co-simulated "
                   "over one MCF-extP hypercube schedule at increasing "
                   "arrival rates; per-job slowdown is measured against the "
                   "same job running alone on the fabric (docs/cluster.md).")
    headline = "packed"
    label_order = ("packed",)
    _TOPOLOGY = "hypercube:dim=3"
    _JOBS = 6
    _BUF = 2 ** 20

    def buffers(self, fast: bool = False):
        return (self._BUF,)

    def rates(self, fast: bool = False) -> Tuple[int, ...]:
        """Poisson arrival rates (jobs/second) swept as panels."""
        return (500, 8000) if fast else (500, 2000, 8000, 32000)

    def panel_fields(self, panel: PanelSpec) -> Dict[str, object]:
        """Panel scenarios carry the panel's cluster trace spec."""
        rate = int(panel.key[len("rate"):])
        return {"cluster": f"cluster:jobs={self._JOBS}:arrival=poisson~{rate}"
                           ":placement=packed:seed=0"}

    def panels(self, fast: bool = False, scale: str = "small"):
        return tuple(
            PanelSpec(f"rate{rate}", f"Poisson {rate}/s", self._TOPOLOGY,
                      (SeriesSpec("packed", "mcf-extp"),))
            for rate in self.rates(fast))

    def aggregate_panel(self, panel, results_by_label):
        # Panels contribute rows to the cross-panel load curve built in
        # aggregate(); no per-panel artifacts.
        return [], [], {}

    def aggregate(self, results, fast: bool = False, scale: str = "small") -> SpecResult:
        out = super().aggregate(results, fast, scale)
        if out.errors:
            return out
        by_name = {r.scenario.name: r for r in results}
        rows = []
        rates: List[float] = []
        p50s: List[float] = []
        p99s: List[float] = []
        for panel in self.panels(fast, scale):
            res = by_name[self.scenario_name(panel, "packed")]
            metrics = res.metrics
            rate = int(panel.key[len("rate"):])
            rates.append(float(rate))
            p50s.append(float(metrics["job_slowdown_p50"]))
            p99s.append(float(metrics["job_slowdown_p99"]))
            rows.append([
                rate,
                int(metrics["cluster_jobs"]),
                f"{float(metrics['makespan_seconds']):.6f}",
                f"{float(metrics['job_slowdown_p50']):.3f}",
                f"{float(metrics['job_slowdown_p99']):.3f}",
                f"{float(metrics['fabric_utilization']):.3f}",
            ])
        out.tables.append(make_table(
            "cluster", f"Cluster co-simulation ({self._JOBS} Poisson jobs, "
                       f"packed, {self._TOPOLOGY}, MCF-extP)",
            ["arrival rate (jobs/s)", "jobs", "makespan (s)", "slowdown p50",
             "slowdown p99", "fabric utilization"], rows))
        out.plots.append(Plot(
            name="fig_cluster_slowdown", title=self.title,
            x_label="offered load (job arrivals/s)",
            y_label="job slowdown (vs isolated run)",
            x=rates,
            series={"slowdown p50": p50s, "slowdown p99": p99s},
            colors={"slowdown p50": self.series_color("packed"),
                    "slowdown p99": CATEGORICAL[1]},
            logx=True))
        return out


# --------------------------------------------------------------------------- #
# fig_robustness — completion-time degradation under dynamic fabric failures
# --------------------------------------------------------------------------- #
class _FigRobustnessSpec(ArtifactSpec):
    """Robustness: completion-time degradation under timed link failures.

    One panel per fault schedule, all sharing a single synthesized MCF-extP
    schedule (the fault spec enters the simulate stage key only, like the
    cluster trace).  Two sweeps: failure *count* (k disjoint links failed
    mid-collective) and failure *timing* (one link failed early / mid / late).
    The aggregate is a degradation table plus slowdown-vs-count and
    slowdown-vs-timing curves.
    """

    spec_id = "fig_robustness"
    title = "Robustness: completion-time degradation under fabric failures"
    description = ("Timed link failures injected into one MCF-extP hypercube "
                   "collective with online BFS rerouting (docs/robustness.md); "
                   "slowdown is measured against the same schedule on the "
                   "healthy fabric.  Sweeps failure count (disjoint links "
                   "failed mid-run) and failure timing (one link, varying "
                   "epoch).")
    headline = "faulted"
    label_order = ("faulted",)
    _TOPOLOGY = "hypercube:dim=3"
    _BUF = 2 ** 20
    #: Disjoint hypercube edges failed in order by the count sweep — a
    #: partial perfect matching, so the survivor graph stays connected.
    _LINKS = ("0~1", "2~3", "4~5")
    _AT_US = 40                           # count-sweep failure time

    def buffers(self, fast: bool = False):
        return (self._BUF,)

    def counts(self, fast: bool = False) -> Tuple[int, ...]:
        """Failure counts swept (0 = healthy baseline, slowdown 1)."""
        return (0, 1, 2) if fast else (0, 1, 2, 3)

    def timings_us(self, fast: bool = False) -> Tuple[int, ...]:
        """Failure times (microseconds) swept for the single-link panel."""
        return (80,) if fast else (20, 80, 140)

    def _fault_spec(self, key: str) -> str:
        if key.startswith("count"):
            k = int(key[len("count"):])
            if k == 0:
                return "faults:up@0"      # trivial: byte-identical healthy run
            links = "|".join(self._LINKS[:k])
            return f"faults:down={links}@{self._AT_US}us"
        t = int(key[len("at"):-len("us")])
        return f"faults:down={self._LINKS[0]}@{t}us"

    def panels(self, fast: bool = False, scale: str = "small"):
        keys = [f"count{k}" for k in self.counts(fast)]
        keys += [f"at{t}us" for t in self.timings_us(fast)]
        return tuple(
            PanelSpec(key, self._fault_spec(key), self._TOPOLOGY,
                      (SeriesSpec("faulted", "mcf-extp"),))
            for key in keys)

    def panel_fields(self, panel: PanelSpec) -> Dict[str, object]:
        """Panel scenarios carry the panel's fault spec."""
        return {"faults": self._fault_spec(panel.key)}

    def aggregate_panel(self, panel, results_by_label):
        # Panels contribute rows to the cross-panel degradation table built
        # in aggregate(); no per-panel artifacts.
        return [], [], {}

    def aggregate(self, results, fast: bool = False, scale: str = "small") -> SpecResult:
        out = super().aggregate(results, fast, scale)
        if out.errors:
            return out
        by_name = {r.scenario.name: r for r in results}
        rows = []

        def metrics_of(key: str) -> Mapping[str, object]:
            panel = self.panel(key)
            res = by_name[self.scenario_name(panel, "faulted")]
            metrics = res.metrics
            rows.append([
                key,
                self._fault_spec(key),
                f"{float(metrics['robustness_slowdown']):.4f}",
                int(metrics["reroute_count"]),
                int(metrics["fault_events"]),
                int(metrics["stranded_bytes"]),
            ])
            return metrics

        count_xs = [float(k) for k in self.counts(fast)]
        count_ys = [float(metrics_of(f"count{k}")["robustness_slowdown"])
                    for k in self.counts(fast)]
        time_xs = [float(t) for t in self.timings_us(fast)]
        time_ys = [float(metrics_of(f"at{t}us")["robustness_slowdown"])
                   for t in self.timings_us(fast)]
        out.tables.append(make_table(
            "robustness", f"Robustness ({self._TOPOLOGY}, MCF-extP, "
                          f"{self._BUF // 2 ** 10} KiB): slowdown under "
                          "timed link failures",
            ["panel", "faults", "slowdown", "reroutes", "fabric events",
             "stranded B"], rows))
        out.plots.append(Plot(
            name="fig_robustness_count",
            title="Slowdown vs failure count "
                  f"(disjoint links down at t={self._AT_US}us)",
            x_label="links failed", y_label="completion-time slowdown",
            x=count_xs, series={"faulted": count_ys},
            colors={"faulted": self.series_color("faulted")}))
        out.plots.append(Plot(
            name="fig_robustness_timing",
            title=f"Slowdown vs failure timing (link {self._LINKS[0]} down)",
            x_label="failure time (us)", y_label="completion-time slowdown",
            x=time_xs, series={"faulted": time_ys},
            colors={"faulted": self.series_color("faulted")}))
        return out


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
FIG3 = _Fig3Spec()
FIG4 = _Fig4Spec()
FIG7 = _Fig7Spec()
FIG10 = _Fig10Spec()
FIG_CLUSTER = _FigClusterSpec()
FIG_ROBUSTNESS = _FigRobustnessSpec()
TABLE1 = _Table1Spec()

#: Artifact id -> spec, in report order.
REGISTRY: Dict[str, ArtifactSpec] = {
    spec.spec_id: spec
    for spec in (FIG3, FIG4, FIG7, FIG10, FIG_CLUSTER, FIG_ROBUSTNESS, TABLE1)}


def available_specs() -> List[str]:
    """Registered artifact ids, in report order."""
    return list(REGISTRY)


def get_spec(spec_id: str) -> ArtifactSpec:
    """Look up a spec by id, with a helpful error."""
    try:
        return REGISTRY[spec_id]
    except KeyError:
        raise KeyError(f"unknown artifact {spec_id!r}; "
                       f"available: {', '.join(REGISTRY)}") from None


def describe_registry() -> str:
    """One-line-per-artifact listing (the ``repro report --list`` output)."""
    rows = [[spec.spec_id, spec.kind, spec.title] for spec in REGISTRY.values()]
    return format_table(["id", "kind", "title"], rows,
                        title="Registered paper artifacts")
