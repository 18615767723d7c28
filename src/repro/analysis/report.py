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


def format_engine_footer(counts: Mapping[str, float], backend: str,
                         extra: str = "") -> str:
    """One-line LP/stage-cache/simulator accounting footer.

    The single source of the ``[stats] ...`` line printed (to stderr) by
    ``repro compare``, ``repro synthesize``, ``repro sweep``,
    ``repro simulate`` and ``repro report`` — one format string instead of
    one per call site, so the footers can never drift apart.  ``counts`` is
    a :func:`repro.obs.snapshot` (absent names read as 0) and ``backend``
    the LP backend's name, so sweep/report runs expose simulation cost the
    same way they expose LP cost.
    """
    def c(name: str) -> float:
        return counts.get(name, 0)

    line = (f"[stats] lp-cache: {c('lp-cache.hits')} hits / "
            f"{c('lp-cache.misses')} misses backend={backend}; "
            f"stage-cache: {c('stage-cache.hits')} hits / "
            f"{c('stage-cache.misses')} misses; "
            f"sim: {c('sim.fill_rounds')} fill rounds / {c('sim.events')} events")
    if c("sim.fill_seconds"):
        line += f" [{c('sim.fill_seconds'):.3f}s fill]"
    if c("faults.fault_events"):
        # Dynamic-failure accounting (repro.faults): only shown when a
        # fault runner actually mutated a fabric this process.
        line += (f"; faults: {c('faults.fault_events')} fabric events "
                 f"/ {c('faults.reroutes')} reroutes")
        if c("faults.compile_seconds") or c("faults.reroute_seconds"):
            line += (f" [{c('faults.compile_seconds'):.3f}s compile, "
                     f"{c('faults.reroute_seconds'):.3f}s reroute]")
    if c("faults.route_cache_hits") or c("faults.route_cache_misses"):
        line += (f"; route-cache: {c('faults.route_cache_hits')} hits / "
                 f"{c('faults.route_cache_misses')} misses")
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
