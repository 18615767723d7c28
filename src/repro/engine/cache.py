"""Content-addressed artifact cache (in-memory + optional on-disk).

The primary tenant is the engine's LP solution store: keys are the
:meth:`~repro.engine.problem.MCFProblem.cache_key` digests, so two callers
that pose the same problem — same topology content, formulation and
parameters — share one solve no matter how the topology object was
constructed.  The in-memory tier is always on (when the cache is enabled);
the on-disk tier activates when a directory is configured and persists
payloads across processes via pickle files written atomically.

The cache is payload-agnostic: :mod:`repro.experiments` reuses it (with a
different ``suffix``/``payload_type``) as the per-stage artifact tier of the
declarative :class:`~repro.experiments.Plan` pipeline.  Payloads exposing a
``portable(tol=...)`` method (the :class:`LPSolution` compaction protocol)
are compacted before storage; anything else is stored as-is.

The counters are updated under a lock, so threads of any caller can share
one cache; :meth:`SolutionCache.credit` adds the counts a sweep worker
process reports back.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from typing import Dict, Mapping, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.solver import LPSolution

__all__ = ["SolutionCache"]


class SolutionCache:
    """Two-tier (memory, disk) cache of content-addressed payloads.

    Defaults to :class:`LPSolution` payloads (the engine's solution store);
    pass ``payload_type``/``suffix`` to cache other pickle-able artifacts.

    Attributes
    ----------
    hits / misses:
        Lookup counters (a disk hit counts as a hit and is additionally
        tallied in ``disk_hits``).  Surfaced through ``FlowSolution.meta``
        and asserted on by the cache tests.
    """

    def __init__(self, cache_dir: Optional[str] = None, enabled: bool = True,
                 max_entries: int = 4096, suffix: str = ".lps.pkl",
                 payload_type: Optional[type] = None) -> None:
        self.enabled = enabled
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        self.suffix = suffix
        self._payload_type = payload_type  # None -> LPSolution (lazy import)
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.stores = 0
        self._memory: Dict[str, "LPSolution"] = {}
        self._lock = threading.Lock()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional["LPSolution"]:
        """Look up ``key``; updates hit/miss counters."""
        if not self.enabled:
            return None
        with self._lock:
            solution = self._memory.get(key)
            if solution is not None:
                self.hits += 1
                return solution
        solution = self._disk_get(key)
        with self._lock:
            if solution is not None:
                self.hits += 1
                self.disk_hits += 1
                self._insert(key, solution)
            else:
                self.misses += 1
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
            self.stores += 1
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
        """Drop the in-memory tier and reset counters (disk files remain)."""
        with self._lock:
            self._memory.clear()
            self.hits = self.misses = self.disk_hits = self.stores = 0

    def credit(self, counts: Mapping[str, int]) -> None:
        """Add counter deltas (``stats()`` keys) from another process."""
        with self._lock:
            self.hits += int(counts.get("hits", 0))
            self.misses += int(counts.get("misses", 0))
            self.disk_hits += int(counts.get("disk_hits", 0))
            self.stores += int(counts.get("stores", 0))

    @property
    def size(self) -> int:
        """Number of in-memory entries."""
        return len(self._memory)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for reports and assertions."""
        return {"hits": self.hits, "misses": self.misses,
                "disk_hits": self.disk_hits, "stores": self.stores,
                "size": self.size}

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}{self.suffix}")

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
