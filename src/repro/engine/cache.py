"""Content-addressed artifact cache (in-memory + optional on-disk).

Two tenants share this class.  The engine's LP solution store is memory
only: its keys are digests of the assembled LPs
(:func:`~repro.engine.core.solution_key`), so two callers that pose the
same LP share one solve no matter how they built it.  The
:mod:`repro.experiments` stage cache (named ``stage-cache``) is the one
tenant with a disk tier: given a directory, it persists payloads across
processes as pickle files written atomically, so a warm re-run in a new
process solves no LP at all.

Lookups and stores count under the cache's ``name`` in :mod:`repro.obs`
(``lp-cache.hits``, ``stage-cache.misses``, ...); the memory tier is
guarded by a lock, so threads of any caller can share one cache.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from typing import Dict, Optional

from .. import obs

__all__ = ["SolutionCache"]


class SolutionCache:
    """Two-tier (memory, disk) cache of content-addressed payloads.

    ``name`` prefixes the cache's :mod:`repro.obs` counters (``hits``,
    ``misses``, ``stores`` and ``disk_hits``; a disk hit is a hit too) and
    names its disk files ``<key>.<name>.pkl``.  Without a ``cache_dir`` the
    cache is memory only.
    """

    def __init__(self, cache_dir: Optional[str] = None, enabled: bool = True,
                 max_entries: int = 4096, name: str = "lp-cache") -> None:
        self.enabled = enabled
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        self.name = name
        self._memory: Dict[str, object] = {}
        self._lock = threading.Lock()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[object]:
        """Look up ``key``; counts a hit or a miss."""
        if not self.enabled:
            return None
        with self._lock:
            payload = self._memory.get(key)
        if payload is not None:
            self._count("hits")
            return payload
        payload = self._disk_get(key)
        if payload is None:
            self._count("misses")
            return None
        with self._lock:
            self._insert(key, payload)
        self._count("hits", "disk_hits")
        return payload

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has an entry in either tier; counts nothing.

        A membership test, not a lookup: the memory tier, then one ``stat``
        of the disk file.  Nothing is loaded, so an existing but corrupt
        entry is "in" the cache and still reads as a miss in :meth:`get`.
        """
        if not self.enabled:
            return False
        with self._lock:
            if key in self._memory:
                return True
        return bool(self.cache_dir) and os.path.exists(self._path(key))

    def put(self, key: str, payload: object) -> None:
        """Store ``payload`` under ``key`` in both tiers, as given.

        A payload the disk tier cannot pickle raises, and is stored in
        neither tier.
        """
        if not self.enabled:
            return
        self._disk_put(key, payload)
        with self._lock:
            self._insert(key, payload)
        self._count("stores")

    def _insert(self, key: str, payload: object) -> None:
        """Insert into the memory tier, evicting the oldest entry when full.

        Caller must hold the lock.  Both fresh stores and disk-hit promotions
        go through here so ``max_entries`` bounds the tier either way.
        """
        if key not in self._memory and len(self._memory) >= self.max_entries:
            # Drop the oldest entry (dict preserves insertion order).
            # Overwrites don't grow the dict, so they never evict.
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = payload

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

    def _disk_get(self, key: str) -> Optional[object]:
        if not self.cache_dir:
            return None
        try:
            with open(self._path(key), "rb") as fh:
                return pickle.load(fh)
        except Exception:  # noqa: BLE001 - a missing or corrupt entry reads
            # as a miss, and pickle surfaces corruption as almost any type.
            return None

    def _disk_put(self, key: str, payload: object) -> None:
        """Persist ``payload``; atomic rename so concurrent readers never
        see a torn file.  The temp file goes on every failure; I/O errors
        are swallowed (the disk tier is best effort), pickling errors raise."""
        if not self.cache_dir:
            return
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh)
            os.replace(tmp, self._path(key))
            tmp = None
        except OSError:  # pragma: no cover - disk tier is best effort
            pass
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
