"""Rendering backends for report artifacts: CSV/Markdown always, PNG/HTML optional.

Every artifact is guaranteed a CSV file per table and a Markdown section
embedding the exact text tables the benchmarks print (the byte-identical
receipts).  When matplotlib is importable, figures additionally render as PNG
line charts; when the ``markdown`` package is importable, ``index.md`` is also
compiled to ``index.html``.  Both imports are gated through module-level
helpers so tests can simulate their absence with a monkeypatch.

Chart discipline (applies only to the optional PNG backend): one axis per
chart, series colors fixed per entity by the spec (never cycled per panel),
thin 2px lines with visible markers, a legend whenever two or more series
share the plot, and a recessive grid.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .aggregate import Plot, SpecResult, Table

__all__ = ["RenderedArtifact", "render_spec", "render_index", "write_table_csv"]


# --------------------------------------------------------------------------- #
# Optional backends (monkeypatch targets in tests)
# --------------------------------------------------------------------------- #
def _import_pyplot():
    """Import matplotlib's Agg-backed pyplot; raises ImportError when absent."""
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    return plt


def _import_markdown():
    """Import the ``markdown`` package; raises ImportError when absent."""
    import markdown

    return markdown


@dataclass
class RenderedArtifact:
    """Files and index section produced for one artifact."""

    spec_id: str
    section: str                      # markdown section for index.md
    files: List[str] = field(default_factory=list)
    figure_backend: str = "none"      # "matplotlib" | "fallback" | "none"


# --------------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------------- #
def write_table_csv(table: Table, path: str) -> str:
    """Write a table's structured rows as CSV; returns the path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.headers)
        writer.writerows(table.rows)
    return path


# --------------------------------------------------------------------------- #
# Figures
# --------------------------------------------------------------------------- #
def _render_plot_png(plot: Plot, path: str) -> str:
    plt = _import_pyplot()
    fig, ax = plt.subplots(figsize=(6.4, 4.0), dpi=120)
    for label, ys in plot.series.items():
        color = plot.colors.get(label)
        bound_like = label.lower().endswith("bound")
        ax.plot(plot.x, ys, label=label, color=color, linewidth=2.0,
                linestyle="--" if bound_like else "-",
                marker=None if bound_like else "o", markersize=5)
    if plot.logx:
        ax.set_xscale("log", base=2)
    if plot.logy:
        ax.set_yscale("log")
    ax.set_title(plot.title, fontsize=10)
    ax.set_xlabel(plot.x_label)
    ax.set_ylabel(plot.y_label)
    ax.grid(True, alpha=0.25, linewidth=0.5)
    for spine in ("top", "right"):
        ax.spines[spine].set_visible(False)
    if len(plot.series) >= 2:
        ax.legend(frameon=False, fontsize=8)
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)
    return path


# --------------------------------------------------------------------------- #
# Per-spec rendering
# --------------------------------------------------------------------------- #
def render_spec(result: SpecResult, out_dir: str) -> RenderedArtifact:
    """Render one artifact into ``out_dir`` and build its index section.

    Always writes one CSV per table; attempts a PNG per plot via matplotlib,
    falling back (with an explicit note) to the CSV/Markdown content when the
    import fails.  The exact benchmark text tables are embedded in fenced
    blocks so the report carries byte-identical receipts.
    """
    art = RenderedArtifact(spec_id=result.spec_id, section="")
    lines: List[str] = [f"## {result.spec_id} — {result.title}", ""]
    if result.description:
        lines.append(result.description)
        lines.append("")
    if result.errors:
        lines.append(f"**Status: error** ({len(result.errors)} failed scenario(s))")
        lines.append("")
        for err in result.errors:
            lines.append(f"- `{err}`")
        lines.append("")

    png_paths: List[str] = []
    if result.plots:
        try:
            for plot in result.plots:
                path = os.path.join(out_dir, f"{plot.name}.png")
                png_paths.append(_render_plot_png(plot, path))
            art.figure_backend = "matplotlib"
        except ImportError:
            art.figure_backend = "fallback"
            png_paths = []
            lines.append("_Figures: matplotlib unavailable — the tables and "
                         "CSV data below are the canonical fallback._")
            lines.append("")
    for path in png_paths:
        name = os.path.basename(path)
        lines.append(f"![{name}]({name})")
        art.files.append(path)
    if png_paths:
        lines.append("")

    for table in result.tables:
        lines.append("```text")
        lines.append(table.text)
        lines.append("```")
        csv_name = f"{result.spec_id}__{table.name}.csv"
        csv_path = write_table_csv(table, os.path.join(out_dir, csv_name))
        art.files.append(csv_path)
        lines.append(f"Data: [{csv_name}]({csv_name})")
        lines.append("")

    art.section = "\n".join(lines).rstrip() + "\n"
    return art


# --------------------------------------------------------------------------- #
# Index assembly
# --------------------------------------------------------------------------- #
def render_index(rendered: Sequence[RenderedArtifact], provenance_md: str,
                 out_dir: str, title: str = "Reproduction report",
                 intro: Optional[str] = None) -> List[str]:
    """Assemble ``index.md`` (and ``index.html`` when ``markdown`` is importable).

    Returns the list of index files written.
    """
    parts: List[str] = [f"# {title}", ""]
    if intro:
        parts.append(intro)
        parts.append("")
    for art in rendered:
        parts.append(art.section)
    parts.append(provenance_md)
    text = "\n".join(parts).rstrip() + "\n"

    written: List[str] = []
    index_md = os.path.join(out_dir, "index.md")
    with open(index_md, "w") as fh:
        fh.write(text)
    written.append(index_md)

    try:
        markdown = _import_markdown()
    except ImportError:
        return written
    body = markdown.markdown(text, extensions=["tables", "fenced_code"])
    html = ("<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
            f"<title>{title}</title>"
            "<style>body{font-family:sans-serif;max-width:60rem;margin:2rem auto;"
            "padding:0 1rem;color:#0b0b0b;background:#fcfcfb}"
            "pre{background:#f4f4f2;padding:0.75rem;overflow-x:auto}"
            "table{border-collapse:collapse}td,th{border:1px solid #d8d7d2;"
            "padding:0.25rem 0.6rem}</style></head><body>"
            f"{body}</body></html>")
    index_html = os.path.join(out_dir, "index.html")
    with open(index_html, "w") as fh:
        fh.write(html)
    written.append(index_html)
    return written
