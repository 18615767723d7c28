"""Provenance stamping for reproduction reports.

A report without receipts is a screenshot.  :func:`collect_provenance`
gathers everything needed to say *what produced these numbers*: git SHA (and
dirty flag), package and dependency versions, the LP backend, per-artifact
wall-clock, and the LP/stage-cache counters of :mod:`repro.obs` — the last
of which is how a warm-cache re-run proves it solved **zero** new LPs.

Nothing here imports matplotlib or markdown; provenance must be collectable
in the most minimal environment the report can run in.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from datetime import datetime, timezone
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["collect_provenance", "format_provenance", "git_revision"]

#: Bump when the provenance mapping layout changes.
PROVENANCE_SCHEMA = 1


def git_revision(cwd: Optional[str] = None) -> Dict[str, object]:
    """Current git SHA and dirty flag, degrading gracefully outside a repo."""
    def _run(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = _run("rev-parse", "HEAD")
    status = _run("status", "--porcelain") if sha else None
    return {"sha": sha or "unknown", "dirty": bool(status)}


def _dependency_versions() -> Dict[str, str]:
    versions: Dict[str, str] = {}
    for name in ("numpy", "scipy", "networkx"):
        try:
            module = __import__(name)
            versions[name] = str(getattr(module, "__version__", "unknown"))
        except ImportError:  # pragma: no cover - all three are core deps
            versions[name] = "absent"
    return versions


def collect_provenance(artifacts: Sequence[Mapping[str, object]],
                       counts: Mapping[str, float],
                       backend: str,
                       fast: bool = False,
                       cwd: Optional[str] = None) -> Dict[str, object]:
    """Assemble the provenance mapping stamped into ``report/index.md``.

    ``artifacts`` is one mapping per rendered artifact with at least
    ``spec_id``, ``kind``, ``status``, ``seconds`` and ``num_scenarios``.
    ``counts`` is a :func:`repro.obs.snapshot` and ``backend`` the LP
    backend's name; ``lp-cache.misses`` *is* the number of LPs this process
    and its workers actually solved ("new LP solves").
    """
    def cache(name: str) -> Dict[str, int]:
        return {k: int(counts.get(f"{name}.{k}", 0))
                for k in ("hits", "misses", "disk_hits", "stores")}

    return {
        "schema_version": PROVENANCE_SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git": git_revision(cwd),
        "package_version": _package_version(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "dependencies": _dependency_versions(),
        "solver_backend": str(backend),
        "fast": bool(fast),
        "command": " ".join(sys.argv) if sys.argv else "",
        "artifacts": [dict(a) for a in artifacts],
        "lp_cache": cache("lp-cache"),
        "stage_cache": cache("stage-cache"),
        "new_lp_solves": int(counts.get("lp-cache.misses", 0)),
    }


def format_provenance(prov: Mapping[str, object]) -> str:
    """Render a provenance mapping as the report's Markdown section.

    The ``new LP solves: N`` line is deliberately grep-stable: CI asserts a
    warm-cache re-run prints ``new LP solves: 0``.
    """
    git = prov.get("git", {})
    deps = prov.get("dependencies", {})
    lp = prov.get("lp_cache", {})
    stage = prov.get("stage_cache", {})
    lines: List[str] = ["## Provenance", ""]
    sha = git.get("sha", "unknown")
    lines.append(f"- git SHA: `{sha}`{' (dirty)' if git.get('dirty') else ''}")
    lines.append(f"- package: repro {prov.get('package_version', 'unknown')}"
                 f"{' (fast grids)' if prov.get('fast') else ''}")
    lines.append(f"- python {prov.get('python')} on {prov.get('platform')}")
    lines.append("- dependencies: "
                 + ", ".join(f"{name} {version}" for name, version in deps.items()))
    lines.append(f"- solver backend: {prov.get('solver_backend')} "
                 f"(scipy {deps.get('scipy', 'unknown')})")
    lines.append(f"- generated: {prov.get('generated_at')}")
    lines.append(f"- lp-cache: {lp.get('hits', 0)} hits / {lp.get('misses', 0)} misses")
    lines.append(f"- stage-cache: {stage.get('hits', 0)} hits / "
                 f"{stage.get('misses', 0)} misses")
    lines.append(f"- new LP solves: {prov.get('new_lp_solves', 0)}")
    lines.append("")
    lines.append("| artifact | kind | status | wall-clock (s) | scenarios |")
    lines.append("| --- | --- | --- | ---: | ---: |")
    for art in prov.get("artifacts", []):
        lines.append(f"| {art.get('spec_id')} | {art.get('kind')} "
                     f"| {art.get('status')} | {float(art.get('seconds', 0.0)):.3f} "
                     f"| {art.get('num_scenarios', 0)} |")
    return "\n".join(lines)


def _package_version() -> str:
    from .. import __version__

    return __version__
