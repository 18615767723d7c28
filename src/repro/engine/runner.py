"""Shared parallel execution for sweeps, child LPs and benchmarks.

The seed code buried a ``ProcessPoolExecutor`` inside
:mod:`repro.core.mcf_decomposed`; every other multi-run site (scheme
comparisons, throughput sweeps, benchmark loops) ran serially.
:class:`ParallelRunner` lifts that logic into one order-preserving map with
three execution modes:

* ``serial``  — plain loop, deterministic and debugger friendly;
* ``thread``  — ``ThreadPoolExecutor``; right for LP solves (HiGHS releases
  the GIL) and for closures, and the workers share the engine's in-memory
  solution cache;
* ``process`` — ``ProcessPoolExecutor``; right for picklable module-level
  workers such as the decomposed-MCF child solver.

``mode="auto"`` picks ``serial`` for ``jobs <= 1`` and ``thread`` otherwise.
Results always come back in input order, so parallel runs are byte-identical
to serial ones for deterministic work.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, TypeVar

__all__ = ["ParallelRunner"]

T = TypeVar("T")
R = TypeVar("R")

_MODES = ("auto", "serial", "thread", "process")


class ParallelRunner:
    """Order-preserving parallel map over a list of items."""

    def __init__(self, jobs: int = 1, mode: str = "auto") -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.jobs = max(1, int(jobs))
        if mode == "auto":
            mode = "serial" if self.jobs <= 1 else "thread"
        self.mode = mode

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order.

        Exceptions propagate to the caller; wrap ``fn`` if per-item error
        capture is wanted (see :func:`repro.experiments.run_scenarios`).
        """
        items = list(items)
        if self.mode == "serial" or self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self.mode == "thread":
            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                return list(pool.map(fn, items))
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            return list(pool.map(fn, items))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelRunner(jobs={self.jobs}, mode={self.mode!r})"

