"""Multiprocess sweep executor: a process pool, one task per scenario.

:func:`run_sweep_workers` (``run_sweep(workers=N)``) first serves, in the
parent, every scenario whose deepest requested stage-cache entry exists:
such a scenario is one cache read, cheaper than a task, so a sweep that
hits everywhere starts no pool at all.  The misses go through two pool
passes.  The first runs one *leader* per synthesize stage key; a leader
whose key is shared stops before simulate and sends its plan result back,
whose artifacts the parent puts in its stage cache.  The second forks a
fresh pool, which inherits that cache, for the *followers* and the stopped
leaders: each schedule is solved once per sweep, and every simulation
(buffers, overlaps, traces) spreads over the workers.  The parent is the
only writer.  Each task runs as :func:`repro.obs.counted`, and the parent
adds the counters it changed to its own, so the ``[stats]`` footer and
report provenance count the workers' work.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from . import sweep
from .plan import Plan, PlanResult, get_plan_cache
from .scenario import STAGES, Scenario, salted

__all__ = ["merge_shards", "run_sweep_workers"]

#: Record sections on *how* a run executed; canonical comparisons drop them.
VOLATILE_RECORD_FIELDS = ("timings", "engine", "stage_cache")


def merge_shards(out_path: str) -> int:
    """Compact a sweep JSONL file in place; returns the records written.

    Torn lines are skipped; records are deduped by scenario hash (``ok``
    beats ``error``, a deeper ``through`` beats a shallower one, otherwise
    the last one appended wins, so a re-run into the same file keeps its own
    records), sorted by hash and written atomically.  Records with an empty
    key (a spec that failed to hash) are all kept, ahead of the keyed ones.
    The name dates from per-worker shards; the e2e tracer wraps it by name.
    """
    def rank(rec: Dict[str, object]) -> Tuple[bool, int]:
        through = rec.get("through")
        return rec.get("status") == "ok", STAGES.index(through) if through in STAGES else -1

    by_key: Dict[str, Dict[str, object]] = {}
    unkeyed: List[str] = []
    for rec in sweep.load_results(out_path):
        key = str(rec.get("key") or "")
        if not key:
            unkeyed.append(json.dumps(rec, sort_keys=True))
        elif key not in by_key or rank(rec) >= rank(by_key[key]):
            by_key[key] = rec
    lines = sorted(unkeyed) + [json.dumps(by_key[k], sort_keys=True)
                               for k in sorted(by_key)]
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)),
                               suffix=".jsonl.tmp")
    with os.fdopen(fd, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
    os.replace(tmp, out_path)
    return len(lines)


def _run_one(scenario: Scenario, keys: Dict[str, str], through: str, share: bool,
             prior: Optional[PlanResult]) -> Tuple[Dict[str, object], object]:
    """Worker task: one scenario's record, and its plan result if ``share``."""
    result = sweep._execute(scenario, through, None, 1, prior, keys)
    return result.to_record(), result.plan if share else None


def run_sweep_workers(scenarios: Sequence[Scenario],
                      out_path: Optional[str] = None,
                      workers: int = 2, resume: bool = False,
                      through: str = "simulate"):
    """Execute a sweep across worker processes; returns the result list.

    Semantics match :func:`~repro.experiments.sweep.run_sweep`: one result
    per scenario in input order, resume by scenario hash, per-scenario error
    capture.  ``out_path`` ends up hash-sorted and deduped, so it matches a
    serial run's output apart from the :data:`VOLATILE_RECORD_FIELDS`.

    A scenario whose ``through`` entry is in the parent's stage cache
    (a membership test that counts nothing) runs in the parent, reading
    that entry as a worker would; only the rest reach a pool.  An entry
    that exists but is corrupt reads as a miss there, and the parent
    recomputes the scenario itself.

    Workers are forked: the e2e tracer relies on them inheriting its
    wrappers, and the second pass on them inheriting the stage cache.  If a
    worker dies the pool breaks, losing the scenarios then running (at most
    one per worker); the parent compacts what it already wrote and raises
    ``RuntimeError``; ``resume=True`` then runs only what is missing.
    """
    scenarios = list(scenarios)
    done = (sweep.completed_records([out_path], through=through)
            if resume and out_path and os.path.exists(out_path) else {})

    cache = get_plan_cache()
    resumed: Dict[int, Dict[str, object]] = {}
    keys: Dict[int, Optional[Dict[str, str]]] = {}
    leader_of: Dict[str, int] = {}
    cached: List[int] = []  # served in the parent
    leaders, followers = [], []  # (index, plan result to continue from)
    for i, scenario in enumerate(scenarios):
        try:
            keys[i] = scenario.stage_keys()
            key, group = keys[i]["simulate"], keys[i]["synthesize"]
        except Exception:  # noqa: BLE001 - recorded as an error record
            keys[i], key, group = None, "", None
        if key in done:
            resumed[i] = done[key]
        elif group is not None and salted(keys[i][through]) in cache:
            cached.append(i)
        elif group is None or leader_of.setdefault(group, i) == i:
            leaders.append((i, None))
        else:
            followers.append((i, None))
    sharing = {leader_of[keys[i]["synthesize"]] for i, _ in followers}
    stop = STAGES[min(STAGES.index(through), STAGES.index("validate"))]

    fresh: Dict[int, Dict[str, object]] = {}
    broken = False
    with (sweep._open_append(out_path) if out_path else nullcontext()) as out_fh:
        def write(i: int, record: Dict[str, object]) -> None:
            fresh[i] = record
            if out_fh is not None:
                out_fh.write(json.dumps(record, sort_keys=True) + "\n")
                out_fh.flush()

        for i in cached:
            write(i, sweep._execute(scenarios[i], through, None, 1,
                                    keys=keys[i]).to_record())
        # Pass one appends the leaders it stopped early to ``followers``.
        for batch in (leaders, followers):
            if broken or not batch:
                continue
            with ProcessPoolExecutor(
                    max_workers=min(max(1, int(workers)), len(batch)),
                    mp_context=multiprocessing.get_context("fork")) as pool:
                futures = {pool.submit(obs.counted, _run_one, scenarios[i], keys[i],
                                       stop if i in sharing else through,
                                       i in sharing, prior): i
                           for i, prior in batch}
                for future in as_completed(futures):
                    try:
                        (record, plan), delta = future.result()
                    except BrokenProcessPool:
                        broken = True
                        break
                    i = futures[future]
                    obs.add(delta)
                    if plan is not None:
                        Plan(scenarios[i], keys=keys[i], result=plan).publish()
                        if stop != through:
                            sharing.discard(i)
                            followers.append((i, plan))
                            continue
                    write(i, record)
    kept = merge_shards(out_path) if out_path else 0
    if broken:
        raise RuntimeError("a sweep worker process died; " + (
            f"{kept} record(s) kept in {out_path} — re-run with resume=True "
            "to complete the sweep" if out_path else
            "the sweep has no output file, so no record was kept and there "
            "is nothing to resume — run it again"))
    return [sweep.ScenarioResult.from_record(s, resumed.get(i) or fresh[i],
                                             resumed=i in resumed)
            for i, s in enumerate(scenarios)]
