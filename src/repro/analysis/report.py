"""Plain-text table/series formatting for CLI, report and benchmark output.

The CLI subcommands, ``repro report`` and the benchmark harness print the
same rows/series the paper's figures report; these helpers render them as
aligned text tables, plus the ``[stats]`` footer the subcommands print to
stderr.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

__all__ = ["format_table", "format_series", "format_throughput_sweep",
           "format_engine_footer", "human_bytes"]


def format_engine_footer(engine_stats: Mapping[str, object],
                         stage_stats: Mapping[str, object],
                         extra: str = "",
                         sim_stats: Optional[Mapping[str, object]] = None) -> str:
    """One-line LP/stage-cache/simulator accounting footer.

    The single source of the ``[stats] ...`` line printed (to stderr) by
    ``repro compare``, ``repro synthesize``, ``repro sweep``,
    ``repro simulate`` and ``repro report`` — one format string instead of
    one per call site, so the footers can never drift apart.  ``engine_stats`` is
    ``Engine.stats()`` (cache counters plus backend name); ``stage_stats``
    is the plan cache's :meth:`~repro.engine.cache.SolutionCache.stats`;
    ``sim_stats`` is :func:`repro.simulator.engine_counters` (fill rounds
    and completion events processed by the fluid engine), so sweep/report
    runs expose simulation cost the same way they expose LP cost.
    """
    line = (f"[stats] lp-cache: {engine_stats['hits']} hits / "
            f"{engine_stats['misses']} misses "
            f"({engine_stats['disk_hits']} from disk) "
            f"backend={engine_stats['backend']}; "
            f"stage-cache: {stage_stats['hits']} hits / "
            f"{stage_stats['misses']} misses")
    if sim_stats is not None:
        line += (f"; sim: {sim_stats['fill_rounds']} fill rounds / "
                 f"{sim_stats['events']} events")
        fill_s = float(sim_stats.get("fill_seconds", 0.0))
        if fill_s:
            line += f" [{fill_s:.3f}s fill]"
        if sim_stats.get("fabric_events"):
            # Dynamic-failure accounting (repro.faults): only shown when a
            # fault runner actually mutated a fabric this process.
            line += (f"; faults: {sim_stats['fabric_events']} fabric events "
                     f"/ {sim_stats.get('reroutes', 0)} reroutes")
            compile_s = float(sim_stats.get("compile_seconds", 0.0))
            reroute_s = float(sim_stats.get("reroute_seconds", 0.0))
            if compile_s or reroute_s:
                line += (f" [{compile_s:.3f}s compile, "
                         f"{reroute_s:.3f}s reroute]")
        delta_ops = (sim_stats.get("delta_hits", 0)
                     or sim_stats.get("delta_rebuilds", 0))
        if delta_ops:
            # Incremental-engine accounting (repro.perf.delta).
            line += (f"; delta: {sim_stats.get('delta_hits', 0)} hits / "
                     f"{sim_stats.get('delta_rebuilds', 0)} rebuilds, "
                     f"route-cache: {sim_stats.get('route_cache_hits', 0)} "
                     f"hits / {sim_stats.get('route_cache_misses', 0)} misses")
    return line + (f"; {extra}" if extra else "")


def human_bytes(num_bytes: float) -> str:
    """Human-readable byte count (powers of two, like the figure axes)."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            return f"{value:.0f}{unit}" if value >= 10 else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}TiB"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def format_series(x_label: str, xs: Sequence[object],
                  series: Mapping[str, Sequence[float]],
                  title: Optional[str] = None) -> str:
    """Render several y-series against a shared x-axis (one figure line each)."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i] for name in series])
    return format_table(headers, rows, title=title)


def format_throughput_sweep(results_by_scheme: Mapping[str, Sequence],
                            title: Optional[str] = None,
                            unit: float = 1e9) -> str:
    """Render throughput sweeps (CollectiveResult lists) as a Fig. 3/4 style table.

    ``unit`` converts bytes/s to the displayed unit (default GB/s).
    """
    schemes = list(results_by_scheme.keys())
    if not schemes:
        return title or ""
    buffers = [r.buffer_bytes for r in results_by_scheme[schemes[0]]]
    series = {}
    for name, results in results_by_scheme.items():
        series[name] = [r.throughput / unit for r in results]
    xs = [human_bytes(b) for b in buffers]
    return format_series("buffer", xs, series, title=title)
