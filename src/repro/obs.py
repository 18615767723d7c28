"""Process-wide work counters: the one source of every work count.

The LP and stage caches, the fluid simulator and the fault runner add to
named counters here; the ``[stats]`` footer
(:func:`repro.analysis.format_engine_footer`) and the report provenance
(:func:`repro.report.collect_provenance`) read one :func:`snapshot`.  Names
are the footer's labels:

* ``lp-cache.*`` and ``stage-cache.*`` — ``hits``, ``misses`` and
  ``stores`` of the two :class:`~repro.engine.cache.SolutionCache`
  instances, plus the stage cache's ``disk_hits`` (the LP cache has no
  disk tier);
* ``sim.*`` — ``fill_rounds`` and ``fill_seconds`` of every max-min fill,
  ``events`` of every :class:`~repro.simulator.engine.FluidRun`, and
  ``fill_hits``, the fills a static program took from its fill memo
  (their rounds still count in ``fill_rounds``; the footer does not show
  the hits);
* ``faults.*`` — fabric epochs, reroutes, their time split and the
  route-cache tallies of :mod:`repro.faults.runner`.

Counts cross a process boundary one way: a pool task runs as
:func:`counted`, which returns what the call added in the worker, and the
parent passes that delta to :func:`add`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Mapping, Tuple, TypeVar

__all__ = ["add", "counted", "reset", "snapshot"]

T = TypeVar("T")

_counts: Dict[str, float] = {}
_lock = threading.Lock()


def add(mapping: Mapping[str, float]) -> None:
    """Add each value of ``mapping`` to the counter of that name."""
    with _lock:
        for name, value in mapping.items():
            _counts[name] = _counts.get(name, 0) + value


def snapshot() -> Dict[str, float]:
    """A copy of every counter; a name never added reads as absent."""
    with _lock:
        return dict(_counts)


def reset() -> None:
    """Drop every counter."""
    with _lock:
        _counts.clear()


def counted(fn: Callable[..., T], *args) -> Tuple[T, Dict[str, float]]:
    """``(fn(*args), delta)``: ``delta`` holds the counters the call changed
    in this process, by how much."""
    before = snapshot()
    result = fn(*args)
    delta = {name: value - before.get(name, 0)
             for name, value in snapshot().items()
             if value != before.get(name, 0)}
    return result, delta
