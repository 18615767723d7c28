"""Content-addressed artifact cache (in-memory + optional on-disk).

The primary tenant is the engine's LP solution store: keys are the
:meth:`~repro.engine.problem.MCFProblem.cache_key` digests, so two callers
that pose the same problem — same topology content, formulation and
parameters — share one solve no matter how the topology object was
constructed.  The in-memory tier is always on (when the cache is enabled);
the on-disk tier activates when a directory is configured and persists
payloads across processes via pickle files written atomically.

The cache is payload-agnostic: :mod:`repro.experiments` reuses it (named
``stage-cache``, with its own ``payload_type``) as the per-stage artifact
tier of the declarative :class:`~repro.experiments.Plan` pipeline.  Payloads
exposing a ``portable(tol=...)`` method (the :class:`LPSolution` compaction
protocol) are compacted before storage; anything else is stored as-is.

Lookups and stores count under the cache's ``name`` in :mod:`repro.obs`
(``lp-cache.hits``, ``stage-cache.misses``, ...); the memory tier is
guarded by a lock, so threads of any caller can share one cache.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from typing import Dict, Optional, TYPE_CHECKING

from .. import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.solver import LPSolution

__all__ = ["SolutionCache"]


class SolutionCache:
    """Two-tier (memory, disk) cache of content-addressed payloads.

    Defaults to :class:`LPSolution` payloads (the engine's solution store);
    pass ``payload_type``/``name`` to cache other pickle-able artifacts.
    ``name`` prefixes the cache's :mod:`repro.obs` counters (``hits``,
    ``misses``, ``stores`` and ``disk_hits``; a disk hit is a hit too) and
    names its disk files ``<key>.<name>.pkl``.
    """

    def __init__(self, cache_dir: Optional[str] = None, enabled: bool = True,
                 max_entries: int = 4096, name: str = "lp-cache",
                 payload_type: Optional[type] = None) -> None:
        self.enabled = enabled
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        self.name = name
        self._payload_type = payload_type  # None -> LPSolution (lazy import)
        self._memory: Dict[str, "LPSolution"] = {}
        self._lock = threading.Lock()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional["LPSolution"]:
        """Look up ``key``; counts a hit or a miss."""
        if not self.enabled:
            return None
        with self._lock:
            solution = self._memory.get(key)
        if solution is not None:
            self._count("hits")
            return solution
        solution = self._disk_get(key)
        if solution is None:
            self._count("misses")
            return None
        with self._lock:
            self._insert(key, solution)
        self._count("hits", "disk_hits")
        return solution

    def put(self, key: str, solution: "LPSolution") -> None:
        """Store a solution under ``key`` in both tiers.

        The stored copy is :meth:`LPSolution.portable`: the raw
        OptimizeResult is stripped (it is large, solver-internal, and never
        read back from the cache) and each variable block is stored as flat
        (index, value) ndarrays of its above-``FLOW_TOL`` entries — every
        consumer thresholds at ``FLOW_TOL`` anyway, while MCF solutions are
        overwhelmingly zeros, so this cuts the footprint by orders of
        magnitude at paper scale.
        """
        if not self.enabled:
            return
        if hasattr(solution, "portable"):
            from ..constants import FLOW_TOL

            portable = solution.portable(tol=FLOW_TOL)
        else:
            portable = solution
        with self._lock:
            self._insert(key, portable)
        self._count("stores")
        self._disk_put(key, portable)

    def _insert(self, key: str, solution: "LPSolution") -> None:
        """Insert into the memory tier, evicting the oldest entry when full.

        Caller must hold the lock.  Both fresh stores and disk-hit promotions
        go through here so ``max_entries`` bounds the tier either way.
        """
        if key not in self._memory and len(self._memory) >= self.max_entries:
            # Drop the oldest entry (dict preserves insertion order).
            # Overwrites don't grow the dict, so they never evict.
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = solution

    def clear(self) -> None:
        """Drop the in-memory tier (disk files and counters remain)."""
        with self._lock:
            self._memory.clear()

    @property
    def size(self) -> int:
        """Number of in-memory entries."""
        return len(self._memory)

    # ------------------------------------------------------------------ #
    def _count(self, *kinds: str) -> None:
        obs.add({f"{self.name}.{kind}": 1 for kind in kinds})

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.{self.name}.pkl")

    def _expected_type(self) -> type:
        if self._payload_type is None:
            from ..core.solver import LPSolution

            return LPSolution
        return self._payload_type

    def _disk_get(self, key: str) -> Optional["LPSolution"]:
        if not self.cache_dir:
            return None
        try:
            with open(self._path(key), "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - a corrupt entry must read as a miss,
            # and pickle surfaces corruption as almost any exception type.
            return None
        if not isinstance(payload, self._expected_type()):
            return None
        return payload

    def _disk_put(self, key: str, solution: "LPSolution") -> None:
        """Persist an (already raw-stripped) solution; atomic rename so
        concurrent readers never see a torn file."""
        if not self.cache_dir:
            return
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(solution, fh)
            os.replace(tmp, self._path(key))
        except OSError:  # pragma: no cover - disk tier is best effort
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
