"""Reusable prepared state for faulted runs: hoisted arrays + route caches.

Every call to :func:`~repro.faults.runner.run_faulted` used to rebuild the
same per-flow arrays (planned routes, completion-latency delays, shard
sizes) and re-derive every reroute from scratch.  A
:class:`PreparedFaultContext` binds one ``(schedule, fabric)`` pair and
hoists all of that so buffer sweeps (:func:`~repro.faults.runner.
run_faulted_sweep`), fault-grid sweeps and the adversarial search
(:func:`~repro.faults.adversarial.worst_case_failures`) pay it once:

* ``orig_paths`` / ``delays`` / :meth:`PreparedFaultContext.sizes_for` —
  the hoisted per-flow arrays (sizes are memoized per buffer point with
  bit-identical floats: ``fraction * shard`` exactly as the runner
  computed them inline);
* :meth:`PreparedFaultContext.delta_program` — the schedule's flow set
  compiled once into a :class:`~repro.perf.delta.DeltaProgram` arena,
  cloned per run so each evaluation mutates its own copy;
* :class:`RerouteCache` — BFS repair memoized by ``(canonical down-set,
  planned path)``, shared across every run that reuses the context.

Certification is not memoized: completions change the live route set at
almost every epoch, so a memo keyed on it rarely hits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..perf.delta import DeltaProgram
from ..simulator.fabric import FabricModel
from .reroute import effective_path, surviving_adjacency

__all__ = ["PreparedFaultContext", "RerouteCache"]

Link = Tuple[int, int]
Path = Tuple[int, ...]


class RerouteCache:
    """Memoized route repair for one topology.

    Keys are canonical: the down set arrives as the epoch fabric's sorted
    ``down_links`` tuple, so repeated epochs, flapping timelines and every
    candidate of an adversarial search that lands on the same fabric state
    hit the same entries.  Lookups report hit/miss; the fault runner
    tallies them per run as ``route_cache_*``.
    """

    def __init__(self, topology) -> None:
        self.topology = topology
        self._adjacency: Dict[Tuple[Link, ...], Dict[int, List[int]]] = {}
        self._paths: Dict[Tuple[Tuple[Link, ...], Path], Optional[Path]] = {}

    def adjacency(self, down_key: Tuple[Link, ...],
                  down: Set[Link]) -> Dict[int, List[int]]:
        """The surviving adjacency for one down set, built at most once."""
        adj = self._adjacency.get(down_key)
        if adj is None:
            adj = self._adjacency[down_key] = surviving_adjacency(self.topology, down)
        return adj

    def effective(self, down_key: Tuple[Link, ...], down: Set[Link],
                  original: Path) -> Tuple[Optional[Path], bool]:
        """The route in force for one planned path under one down set.

        Returns ``(path_or_None, cache_hit)``; the path is exactly what
        :func:`~repro.faults.reroute.effective_path` computes (original if
        clear, BFS repair, or ``None`` when disconnected).
        """
        key = (down_key, original)
        if key in self._paths:
            return self._paths[key], True
        path = effective_path(original, down, self.adjacency(down_key, down))
        self._paths[key] = path
        return path, False


class PreparedFaultContext:
    """Hoisted per-flow arrays + shared caches for one (schedule, fabric).

    Build one and pass it to every :func:`~repro.faults.runner.run_faulted`
    call that shares the schedule and base fabric — the sweep and
    adversarial drivers do this automatically.  Its caches take no lock:
    share one context only within one thread.
    """

    def __init__(self, schedule, fabric: Optional[FabricModel] = None) -> None:
        self.schedule = schedule
        self.fabric = fabric or FabricModel()
        self.topology = schedule.topology
        self.edges = tuple(self.topology.edges)
        self.num_nodes = int(self.topology.num_nodes)
        self.orig_paths: List[Path] = [tuple(a.route)
                                       for a in schedule.assignments]
        self.num_flows = len(self.orig_paths)
        # Per-flow shard fractions: bytes(shard) == fraction * shard with
        # fraction == bytes(1.0), so sizes_for() reproduces the runner's
        # inline computation bit-for-bit at any buffer point.
        self._fractions = [a.chunk.bytes(1.0) for a in schedule.assignments]
        self.delays = np.array([self.fabric.per_message_overhead
                                + (len(p) - 1) * self.fabric.per_hop_latency
                                for p in self.orig_paths])
        self.reroute_cache = RerouteCache(self.topology)
        self._sizes: Dict[float, np.ndarray] = {}
        self._template = DeltaProgram(self.topology, self.fabric,
                                      self.orig_paths, self._fractions)

    def sizes_for(self, buffer_bytes: float) -> np.ndarray:
        """Per-flow byte sizes at one buffer point (memoized, read-only)."""
        key = float(buffer_bytes)
        sizes = self._sizes.get(key)
        if sizes is None:
            shard = key / self.num_nodes
            sizes = self._sizes[key] = np.array([f * shard for f in self._fractions])
        return sizes

    def delta_program(self) -> DeltaProgram:
        """A fresh :class:`DeltaProgram` clone of the compiled template."""
        return self._template.clone()
