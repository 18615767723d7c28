"""Reproduction-report subsystem: one command from scenario grids to artifacts.

This subpackage owns the paper's deliverables.  A registry of figure/table
specs (:mod:`~repro.report.specs`) declares each artifact of
conf_hpdc_BasuZFPKK24 as a scenario grid plus an aggregation plus a renderer;
:func:`generate_report` executes any subset through the existing
:func:`repro.experiments.run_sweep` pipeline (stage caching, worker
processes and ``--resume`` included), renders figures with a guaranteed CSV/Markdown
fallback (:mod:`~repro.report.render`), and stamps the result with git SHA,
versions, per-artifact wall-clock and cache counters
(:mod:`~repro.report.provenance`).

The Fig. 3 / Fig. 4 / Table 1 benchmarks wrap the same specs via
:func:`~repro.report.specs.run_panel`, so benchmark output, CI smoke runs and
``repro report`` can never drift apart.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..experiments import run_sweep
from .aggregate import Plot, Point, SpecResult, Table
from .provenance import collect_provenance, format_provenance
from .render import RenderedArtifact, render_index, render_spec
from .specs import (
    REGISTRY,
    ArtifactSpec,
    PanelData,
    available_specs,
    describe_registry,
    get_spec,
    run_panel,
)

__all__ = [
    "ArtifactSpec",
    "PanelData",
    "Plot",
    "Point",
    "REGISTRY",
    "RenderedArtifact",
    "ReportSummary",
    "SpecResult",
    "Table",
    "available_specs",
    "collect_provenance",
    "describe_registry",
    "format_provenance",
    "generate_report",
    "get_spec",
    "render_index",
    "render_spec",
    "run_panel",
]


@dataclass
class ReportSummary:
    """Outcome of one :func:`generate_report` run."""

    out_dir: str
    index_files: List[str] = field(default_factory=list)
    spec_results: List[SpecResult] = field(default_factory=list)
    rendered: List[RenderedArtifact] = field(default_factory=list)
    provenance: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def index_path(self) -> str:
        """Path of the rendered ``index.md``."""
        return self.index_files[0] if self.index_files else ""


def generate_report(out_dir: str = "report",
                    only: Optional[Sequence[str]] = None,
                    fast: bool = False,
                    resume: bool = False,
                    workers: int = 1) -> ReportSummary:
    """Run artifact specs and render the provenance-stamped report.

    Parameters
    ----------
    out_dir:
        Report directory; created if missing.  Figures/CSVs land next to
        ``index.md``; each spec's sweep JSONL streams under ``data/``.
    only:
        Artifact ids to run, rendered in the order given; ``None`` runs the
        full registry in registry order.
    fast:
        Use the reduced CI grids.
    resume:
        Reuse completed records from a previous run's ``data/*.jsonl``
        (per-scenario resume, same semantics as ``repro sweep --resume``).
        Without it each spec's JSONL is started fresh.
    workers:
        Worker processes per artifact sweep (``repro sweep --jobs``
        semantics: one task per scenario, each synthesize key solved
        once, the workers' cache and simulator counters summed into the
        provenance); 1 runs in-process.
    """
    from ..engine import get_engine

    specs = [get_spec(spec_id) for spec_id in (only or available_specs())]
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)

    summary = ReportSummary(out_dir=out_dir)
    for spec in specs:
        jsonl = os.path.join(data_dir, f"{spec.spec_id}.jsonl")
        if not resume and os.path.exists(jsonl):
            os.remove(jsonl)
        start = time.perf_counter()
        results = run_sweep(spec.scenarios(fast), out_path=jsonl,
                            resume=resume, through=spec.through,
                            workers=workers)
        spec_result = spec.aggregate(results, fast=fast)
        spec_result.seconds = time.perf_counter() - start
        summary.spec_results.append(spec_result)
        summary.rendered.append(render_spec(spec_result, out_dir))
        summary.errors.extend(spec_result.errors)

    summary.provenance = collect_provenance(
        artifacts=[{
            "spec_id": sr.spec_id, "kind": sr.kind, "status": sr.status,
            "seconds": sr.seconds, "num_scenarios": sr.num_scenarios,
        } for sr in summary.spec_results],
        counts=obs.snapshot(),
        backend=get_engine().backend_name,
        fast=fast,
    )
    intro = ("Artifacts of *Efficient all-to-all Collective Communication "
             "Schedules for Direct-connect Topologies* (HPDC 2024), "
             "regenerated through the declarative scenario pipeline. "
             "Raw sweep records stream under [`data/`](data/).")
    summary.index_files = render_index(summary.rendered,
                                       format_provenance(summary.provenance),
                                       out_dir, intro=intro)
    return summary
