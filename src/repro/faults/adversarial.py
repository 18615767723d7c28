"""Adversarial fault placement: worst-case k-link failure sets.

Given a synthesized schedule, which *k* physical links should an adversary
fail — and when — to slow it down the most?  :func:`worst_case_failures`
searches failure sets against one schedule + buffer point:

* **candidates** — physical (bidirectional) links ranked by the byte load
  the schedule puts on them, heaviest first, capped at ``candidates`` to
  bound the search;
* **exhaustive** mode evaluates every k-subset of the candidates (exact,
  cost C(candidates, k)); **greedy** grows the set one link at a time,
  keeping the worst extension (k evaluations per round — the classic
  submodular-style surrogate, not exact but near-linear);
* each candidate set is evaluated by a full faulted run
  (:func:`~repro.faults.runner.run_faulted`) with both directions of every
  chosen link downed at ``at`` (a fraction of the zero-fault completion
  time, default mid-run); a set that disconnects endpoints scores
  ``inf`` — disconnection *is* the worst case;
* ties break deterministically: by slowdown descending, then candidate
  rank ascending, so equal-loss sets resolve to the one failing the
  heaviest-loaded links.  ``seed`` is reserved for randomized candidate
  sampling and is recorded in the result.

The search batches its shared work.  One
:class:`~repro.faults.context.PreparedFaultContext` hoists the per-flow
arrays, the compiled arena template and the reroute caches for every
candidate; the healthy pre-strike prefix — identical for every candidate,
which only diverges at ``at`` — is run once
(:func:`~repro.faults.runner.capture_fault_prefix`) and each evaluation
resumes from a clone of it.  The evaluations are fill-bound, so they run
in lockstep in one process (:func:`~repro.faults.runner.run_faulted_lockstep`):
every candidate of a batch (all sets in exhaustive mode, one greedy round's
extensions) resumes from the prefix and fires its strike, then each step
fills the pending requests of a group of candidates in one stacked fill.
The results equal one-after-another evaluations bit for bit.

The search is cached.  Its result is a deterministic function of what it
reads, so :func:`worst_case_failures` stores it in the stage cache
(:func:`~repro.experiments.get_plan_cache`, the one cache with a disk tier)
and a second run of the same search, in this process or in a new one with
the same ``REPRO_CACHE_DIR``, reads it back instead of re-running it.  The
key (:func:`search_key`) is a sha256, salted with the package version, over
the topology (:func:`~repro.experiments.scenario.topology_key`: everything it
holds), every route assignment in order (endpoints, chunk bounds, route and
layer), the fabric the search runs on
(:func:`~repro.experiments.scenario.fabric_key`: its content, minus its
cosmetic name) and the arguments ``buffer_bytes``, ``k``, ``at``,
``candidates``, ``mode`` and ``seed``.  Changing any of them, or upgrading
the package, misses.  Arguments are validated before the lookup, so a bad
``k``, ``mode`` or ``at`` raises even when a matching entry exists;
``configure_plan_cache(enabled=False)`` turns the cache off.

The returned :class:`AdversarialResult` carries the worst set, its
slowdown, and the full sorted evaluation table (the ``repro robustness``
CLI prints it; the ``fig_robustness`` artifact plots the degradation curve
against failure count).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..experiments.plan import get_plan_cache
from ..experiments.scenario import fabric_key, salted, topology_key
from ..schedule.ir import RoutedSchedule
from ..simulator.collective import run_routed_collective
from ..simulator.fabric import FabricModel
from .context import PreparedFaultContext
from .runner import capture_fault_prefix, run_faulted_lockstep
from .spec import FaultEvent, FaultSpec

__all__ = ["AdversarialResult", "ranked_physical_links", "search_key",
           "worst_case_failures"]

Link = Tuple[int, int]


@dataclass
class AdversarialResult:
    """Outcome of a worst-case failure search against one schedule."""

    k: int
    at_seconds: float
    baseline_seconds: float
    worst_links: Tuple[Link, ...]          # physical links, (min, max) form
    worst_slowdown: float
    worst_stranded: bool
    evaluations: List[Dict[str, object]] = field(default_factory=list)
    mode: str = "exhaustive"
    seed: int = 0

    def worst_spec(self) -> FaultSpec:
        """The fault spec reproducing the worst case found."""
        return _failure_spec(self.worst_links, self.at_seconds, self.seed)


def ranked_physical_links(schedule: RoutedSchedule,
                          buffer_bytes: float) -> List[Tuple[Link, float]]:
    """Physical links by schedule byte load, heaviest first.

    Both directions of a physical link pool into one entry keyed by the
    ``(min, max)`` node pair — an adversary cutting a cable takes out both
    directions.  Ties break on the link id, so the ranking (and therefore
    greedy/exhaustive tie-breaks downstream) is fully deterministic.
    """
    n = schedule.topology.num_nodes
    shard = buffer_bytes / n
    load: Dict[Link, float] = {}
    for a in schedule.assignments:
        size = a.chunk.bytes(shard)
        for u, v in zip(a.route[:-1], a.route[1:]):
            key = (min(u, v), max(u, v))
            load[key] = load.get(key, 0.0) + size
    return sorted(load.items(), key=lambda kv: (-kv[1], kv[0]))


def _failure_spec(links: Sequence[Link], at: float, seed: int) -> FaultSpec:
    events = tuple(FaultEvent(time=at, kind="down", links=((u, v), (v, u)))
                   for u, v in links)
    return FaultSpec(events=events, seed=seed)


def _evaluation(links: Tuple[Link, ...], result,
                baseline: float) -> Dict[str, object]:
    """One row of the evaluation table: a failure set's faulted run."""
    stranded = result.completion_time == float("inf")
    slowdown = (float("inf") if stranded
                else result.completion_time / baseline)
    return {"links": links, "slowdown": slowdown, "stranded": stranded,
            "completion_seconds": result.completion_time,
            "reroute_count": result.meta["reroute_count"],
            "stranded_bytes": result.meta["stranded_bytes"]}


def search_key(schedule: RoutedSchedule, fabric: FabricModel,
               buffer_bytes: float, k: int, at: float, candidates: int,
               mode: str, seed: int) -> str:
    """Stage-cache key of one adversarial search.

    A sha256 over everything the search reads (see the module docstring),
    salted the way :func:`~repro.experiments.stage_artifact_key` is.
    ``fabric`` is the fabric the search runs on, not the argument it was
    given.
    """
    payload = repr((
        "adversarial",
        topology_key(schedule.topology),
        tuple((a.chunk.source, a.chunk.destination, a.chunk.lo, a.chunk.hi,
               tuple(a.route), a.layer) for a in schedule.assignments),
        fabric_key(fabric),
        float(buffer_bytes), k, float(at), candidates, mode, seed))
    return salted(hashlib.sha256(payload.encode("utf-8")).hexdigest())


def worst_case_failures(schedule: RoutedSchedule, buffer_bytes: float,
                        k: int = 1,
                        fabric: Optional[FabricModel] = None,
                        at: Union[float, str] = 0.5,
                        candidates: int = 12,
                        mode: str = "auto",
                        seed: int = 0,
                        context: Optional[PreparedFaultContext] = None,
                        ) -> AdversarialResult:
    """Search the worst k-physical-link failure set against a schedule.

    ``at`` is the failure instant as a fraction of the zero-fault
    completion time (0 < at < 1; the default 0.5 strikes mid-run, when
    rerouting hurts most).  ``mode`` is ``exhaustive``, ``greedy`` or
    ``auto`` (exhaustive while C(candidates, k) stays under ~500 sets,
    greedy beyond).  ``context`` shares a prepared fault context built elsewhere
    (e.g. by a sweep over ``k``); by default one is built here.

    The result is read from the stage cache when the same search ran
    before (:func:`search_key`), and stored there otherwise; a cached
    result is shared, so treat it as read-only.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode not in ("auto", "exhaustive", "greedy"):
        raise ValueError(f"mode must be auto/exhaustive/greedy, got {mode!r}")
    at = float(at)
    if not 0.0 < at < 1.0:
        raise ValueError(f"at must be a fraction in (0, 1), got {at}")

    if context is not None:
        if context.schedule is not schedule:
            raise ValueError("context was prepared for a different schedule")
        if fabric is not None and fabric != context.fabric:
            raise ValueError("context was prepared for a different fabric")
        fabric = context.fabric
    fabric = fabric or FabricModel()

    cache = get_plan_cache()
    key = search_key(schedule, fabric, buffer_bytes, k, at, candidates, mode, seed)
    cached = cache.get(key)
    if cached is not None:
        return cached
    if context is None:
        context = PreparedFaultContext(schedule, fabric)

    baseline = run_routed_collective(schedule, buffer_bytes, fabric=fabric,
                                     validate=False).completion_time
    at_seconds = at * baseline
    ranked = ranked_physical_links(schedule, buffer_bytes)[:max(candidates, k)]
    pool = [link for link, _ in ranked]
    rank = {link: i for i, link in enumerate(pool)}
    if len(pool) < k:
        raise ValueError(
            f"schedule only loads {len(pool)} physical links; cannot fail {k}")

    # Every candidate evolves identically until the strike instant: run that
    # healthy prefix once and resume each evaluation from a clone of it.
    prefix = None
    if at_seconds > 0:
        prefix = capture_fault_prefix(
            context, buffer_bytes, at_seconds,
            vc=_failure_spec((), at_seconds, seed).vc)

    def evaluate(link_sets: List[Tuple[Link, ...]]) -> List[Dict[str, object]]:
        results = run_faulted_lockstep(
            context, buffer_bytes,
            [_failure_spec(links, at_seconds, seed) for links in link_sets],
            baseline, prefix)
        return [_evaluation(links, result, baseline)
                for links, result in zip(link_sets, results)]

    def sort_key(ev: Dict[str, object]) -> Tuple[float, Tuple[int, ...]]:
        # Slowdown descending (stranded = -inf sorts first), then the
        # heaviest-loaded (lowest-rank) links.
        return (-ev["slowdown"], tuple(rank[link] for link in ev["links"]))

    if mode == "auto":
        exhaustive_sets = 1
        for i in range(k):
            exhaustive_sets = exhaustive_sets * (len(pool) - i) // (i + 1)
        mode = "exhaustive" if exhaustive_sets <= 500 else "greedy"

    evaluations: List[Dict[str, object]] = []
    if mode == "exhaustive":
        evaluations.extend(evaluate(list(itertools.combinations(pool, k))))
    else:
        chosen: Tuple[Link, ...] = ()
        for _ in range(k):
            round_evals = evaluate([chosen + (link,)
                                    for link in pool if link not in chosen])
            round_evals.sort(key=sort_key)
            evaluations.extend(round_evals)
            chosen = round_evals[0]["links"]

    evaluations.sort(key=sort_key)
    full = [ev for ev in evaluations if len(ev["links"]) == k]
    worst = full[0]
    result = AdversarialResult(
        k=k,
        at_seconds=at_seconds,
        baseline_seconds=baseline,
        worst_links=tuple(worst["links"]),
        worst_slowdown=worst["slowdown"],
        worst_stranded=bool(worst["stranded"]),
        evaluations=evaluations,
        mode=mode,
        seed=seed,
    )
    cache.put(key, result)
    return result
