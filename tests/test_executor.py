"""Tests for the work-stealing multiprocess sweep executor.

Covers the work-stealing queue, deterministic shard merge, the shared
artifact plane (both backends, including cleanup after crashes), and the
headline executor guarantees: worker output canonically identical to the
serial and threaded paths, and a killed worker losing nothing that a
``resume=True`` re-run cannot finish without duplicate records.
"""

import dataclasses
import json
import os
import threading
import types

import pytest

from repro.analysis import format_engine_footer
from repro.experiments import (
    ExecutorStats,
    SharedArtifactPlane,
    SweepGrid,
    completed_records,
    last_executor_stats,
    load_results,
    merge_shards,
    run_sweep,
    run_sweep_workers,
    scenario_schema_version,
    sweep_stats,
)
from repro.experiments.executor import (
    VOLATILE_RECORD_FIELDS,
    claim_index,
    hot_stage_keys,
    partition_ranges,
    shard_dir_for,
)


def _grid12() -> SweepGrid:
    """12 fast scenarios: 3 topologies x 2 schemes x 2 overlap settings."""
    return SweepGrid(
        base={"fabric": "hpc", "buffers": [2 ** 20], "max_denominator": 16},
        axes={"topology": ["hypercube:dim=2", "bipartite:left=3,right=3",
                           "torus:dims=3x3"],
              "scheme": ["ewsp", "sssp"],
              "overlap": ["1", "2"]})


def _canonical(path):
    """Records with volatile execution accounting dropped, sorted by hash."""
    records = []
    for rec in load_results(path):
        rec = {k: v for k, v in rec.items() if k not in VOLATILE_RECORD_FIELDS}
        records.append(rec)
    return sorted(records, key=lambda r: str(r.get("key", "")))


def _write_shard(shard_dir, name, records, torn=False):
    os.makedirs(shard_dir, exist_ok=True)
    path = os.path.join(shard_dir, name)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        if torn:
            fh.write('{"key": "torn-')
    return path


def _rec(key, status="ok", through="simulate", **extra):
    rec = {"key": key, "status": status, "through": through,
           "schema_version": scenario_schema_version(),
           "scenario": {}, "metrics": {"f": 1.0}}
    rec.update(extra)
    return rec


class TestWorkStealingQueue:
    def test_partition_ranges_cover_exactly(self):
        for items, workers in [(12, 2), (12, 5), (3, 4), (0, 3), (7, 1)]:
            ranges = partition_ranges(items, workers)
            assert len(ranges) == workers
            flat = [i for lo, hi in ranges for i in range(lo, hi)]
            assert flat == list(range(items))

    def _queue(self, ranges_flat):
        return (list(ranges_flat), threading.Lock(),
                types.SimpleNamespace(value=0))

    def test_owner_pops_head_before_stealing(self):
        ranges, lock, steals = self._queue([0, 2, 2, 4])
        assert claim_index(0, ranges, lock, steals) == (0, False)
        assert claim_index(0, ranges, lock, steals) == (1, False)
        assert steals.value == 0

    def test_dry_worker_steals_from_tail_of_busiest(self):
        # Worker 0 is dry; worker 1 has one item, worker 2 has three.
        ranges, lock, steals = self._queue([0, 0, 0, 1, 1, 4])
        index, stolen = claim_index(0, ranges, lock, steals)
        assert (index, stolen) == (3, True)  # tail of the busiest victim
        assert steals.value == 1
        assert ranges[5] == 3  # victim's tail shrank; its head is untouched

    def test_drained_queue_returns_none(self):
        ranges, lock, steals = self._queue([2, 2, 4, 4])
        assert claim_index(0, ranges, lock, steals) is None
        assert claim_index(1, ranges, lock, steals) is None

    def test_every_index_claimed_exactly_once(self):
        ranges, lock, steals = self._queue(
            [lo for pair in partition_ranges(10, 3) for lo in pair])
        claimed = []
        worker = 0
        while True:
            claim = claim_index(worker, ranges, lock, steals)
            if claim is None:
                break
            claimed.append(claim[0])
            worker = (worker + 1) % 3
        assert sorted(claimed) == list(range(10))


class TestMergeShards:
    def test_merge_is_deterministic_and_idempotent(self, tmp_path):
        out = str(tmp_path / "sweep.jsonl")
        shards = shard_dir_for(out)
        _write_shard(shards, "worker-0.jsonl", [_rec("b"), _rec("a")])
        _write_shard(shards, "worker-1.jsonl", [_rec("c")], torn=True)
        assert merge_shards(out, shards) == 3
        first = open(out).read()
        assert merge_shards(out, shards) == 3  # existing output re-merged
        assert open(out).read() == first
        keys = [rec["key"] for rec in load_results(out)]
        assert keys == ["a", "b", "c"]  # hash-sorted; torn line skipped

    def test_merge_independent_of_shard_assignment(self, tmp_path):
        records = [_rec(k) for k in ("d", "a", "c", "b")]
        outputs = []
        for split in [(1, "x"), (2, "y"), (4, "z")]:
            n, tag = split
            out = str(tmp_path / f"sweep-{tag}.jsonl")
            shards = shard_dir_for(out)
            for i in range(n):
                _write_shard(shards, f"worker-{i}.jsonl", records[i::n])
            merge_shards(out, shards)
            outputs.append(open(out).read())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_ok_beats_error_and_deeper_through_wins(self, tmp_path):
        out = str(tmp_path / "sweep.jsonl")
        shards = shard_dir_for(out)
        _write_shard(shards, "worker-0.jsonl", [
            _rec("a", status="error", error="boom"),
            _rec("b", through="synthesize", marker="shallow"),
        ])
        _write_shard(shards, "worker-1.jsonl", [
            _rec("a", marker="good"),
            _rec("b", through="simulate", marker="deep"),
        ])
        merge_shards(out, shards)
        by_key = {rec["key"]: rec for rec in load_results(out)}
        assert by_key["a"]["status"] == "ok"
        assert by_key["b"]["marker"] == "deep"

    def test_unkeyed_records_all_kept(self, tmp_path):
        out = str(tmp_path / "sweep.jsonl")
        shards = shard_dir_for(out)
        _write_shard(shards, "worker-0.jsonl",
                     [_rec("", status="error", error="x"),
                      _rec("", status="error", error="y"), _rec("a")])
        assert merge_shards(out, shards) == 3


class TestSharedArtifactPlane:
    @pytest.mark.parametrize("backend", ["shm", "mmap"])
    def test_publish_get_roundtrip(self, backend, tmp_path):
        plane = SharedArtifactPlane(backend=backend,
                                    root=str(tmp_path / "plane"),
                                    publishable={"hot"})
        try:
            assert plane.get("hot") is None  # miss before publish
            assert plane.publish("hot", b"payload-bytes")
            assert plane.get("hot") == b"payload-bytes"
            assert plane.counters() == {"hits": 1, "misses": 1, "publishes": 1}
        finally:
            plane.cleanup()

    @pytest.mark.parametrize("backend", ["shm", "mmap"])
    def test_first_writer_wins_and_cold_keys_ignored(self, backend, tmp_path):
        plane = SharedArtifactPlane(backend=backend,
                                    root=str(tmp_path / "plane"),
                                    publishable={"hot"})
        try:
            assert plane.publish("hot", b"first")
            assert not plane.publish("hot", b"second")
            assert plane.get("hot") == b"first"
            assert not plane.publish("cold", b"ignored")
            assert plane.get("cold") is None
            assert plane.counters()["misses"] == 0  # cold keys don't count
        finally:
            plane.cleanup()

    @pytest.mark.parametrize("backend", ["shm", "mmap"])
    def test_cleanup_removes_segments_and_is_idempotent(self, backend, tmp_path):
        plane = SharedArtifactPlane(backend=backend,
                                    root=str(tmp_path / "plane"),
                                    publishable={"hot", "never-published"})
        plane.publish("hot", b"payload")
        plane.cleanup()
        assert plane._read("hot") is None
        if backend == "mmap":
            assert not os.path.isdir(plane.root)
        plane.cleanup()  # second cleanup is a no-op, not an error

    def test_cleanup_after_publisher_crash(self, tmp_path):
        # The publisher never runs cleanup (simulating SIGKILL); a second
        # plane object with the same run id — what the parent holds — must
        # find the orphan segment by its deterministic name and remove it.
        writer = SharedArtifactPlane(run_id="crashtest", backend="shm",
                                     publishable={"hot"})
        writer.publish("hot", b"orphan")
        del writer
        parent = SharedArtifactPlane(run_id="crashtest", backend="shm",
                                     publishable={"hot"})
        assert parent._read("hot") == b"orphan"
        parent.cleanup()
        assert parent._read("hot") is None

    def test_hot_stage_keys_require_two_scenarios(self):
        grid = SweepGrid(base={"topology": "hypercube:dim=2",
                               "scheme": "ewsp", "buffers": [2 ** 20]},
                         axes={"overlap": ["1", "2"]})
        hot = hot_stage_keys(grid.scenarios())
        # synthesize/lower/validate keys ignore overlap -> shared (hot);
        # the simulate keys differ per overlap -> cold.
        scenario = grid.scenarios()[0]
        assert scenario.stage_key("synthesize") in hot
        assert scenario.stage_key("simulate") not in hot


class TestRunSweepWorkers:
    def test_workers_match_serial_and_threads_canonically(self, tmp_path):
        scenarios = _grid12().scenarios()
        serial = str(tmp_path / "serial.jsonl")
        threaded = str(tmp_path / "threads.jsonl")
        sharded = str(tmp_path / "workers.jsonl")
        run_sweep(scenarios, out_path=serial)
        run_sweep(scenarios, out_path=threaded, jobs=2)
        results, stats = run_sweep_workers(scenarios, out_path=sharded,
                                           workers=2)
        assert _canonical(serial) == _canonical(threaded) == _canonical(sharded)
        assert len(results) == 12
        assert [r.scenario for r in results] == scenarios  # input order kept
        assert all(r.status == "ok" for r in results)
        assert stats.workers == 2 and sum(stats.completed) == 12
        assert not os.path.isdir(shard_dir_for(sharded))  # shards merged away
        assert last_executor_stats() is stats

    def test_run_sweep_workers_arg_delegates(self, tmp_path):
        scenarios = _grid12().scenarios()[:2]
        out = str(tmp_path / "via-run-sweep.jsonl")
        results = run_sweep(scenarios, out_path=out, workers=2)
        assert [r.status for r in results] == ["ok", "ok"]
        assert last_executor_stats().workers == 2

    def test_survivor_steals_dead_workers_slice(self, tmp_path):
        # Killing one of two workers must not lose its unclaimed scenarios:
        # work stealing doubles as crash redistribution, so the survivor
        # drains the whole queue even though the sweep still reports failure.
        scenarios = _grid12().scenarios()
        out = str(tmp_path / "crash.jsonl")
        with pytest.raises(RuntimeError, match="resume=True"):
            run_sweep_workers(scenarios, out_path=out, workers=2,
                              fault_injection={"worker": 0, "after": 2})
        stats = last_executor_stats()
        assert stats.failed_workers == [0]
        assert stats.completed[0] == 2  # flushed before the kill
        keys = [rec["key"] for rec in load_results(out)]
        assert len(keys) == 12 and len(set(keys)) == 12
        assert os.path.isdir(shard_dir_for(out))  # shards kept for forensics

        # The crash left a torn trailing line in worker 0's shard; resume
        # heals it, confirms nothing is missing and touches no scenario.
        results, stats = run_sweep_workers(scenarios, out_path=out, workers=2,
                                           resume=True)
        assert stats.failed_workers == [] and sum(stats.completed) == 0
        assert all(r.resumed and r.status == "ok" for r in results)

    def test_killed_worker_then_resume_completes_without_duplicates(
            self, tmp_path):
        # With a single worker there is no survivor to steal the rest, so the
        # crash really leaves the sweep incomplete — the case resume exists for.
        scenarios = _grid12().scenarios()
        out = str(tmp_path / "crash.jsonl")
        with pytest.raises(RuntimeError, match="resume=True"):
            run_sweep_workers(scenarios, out_path=out, workers=1,
                              fault_injection={"worker": 0, "after": 2})
        partial = load_results(out)
        assert 0 < len(partial) < 12  # merged what was flushed, nothing more

        results, stats = run_sweep_workers(scenarios, out_path=out, workers=2,
                                           resume=True)
        assert stats.failed_workers == []
        final = load_results(out)
        keys = [rec["key"] for rec in final]
        assert len(final) == 12
        assert len(set(keys)) == 12  # zero duplicate records after merge
        assert keys == sorted(keys)
        assert sum(1 for r in results if r.resumed) == len(partial)
        assert all(r.status == "ok" for r in results)

    def test_resume_is_a_no_op_when_complete(self, tmp_path):
        scenarios = _grid12().scenarios()[:4]
        out = str(tmp_path / "done.jsonl")
        run_sweep_workers(scenarios, out_path=out, workers=2)
        before = open(out).read()
        results, stats = run_sweep_workers(scenarios, out_path=out, workers=2,
                                           resume=True)
        assert open(out).read() == before
        assert sum(stats.completed) == 0
        assert all(r.resumed for r in results)

    def test_error_scenarios_recorded_not_raised(self, tmp_path):
        good = _grid12().scenarios()[0]
        # DOR is undefined on a bipartite graph: the scheme raises at run time.
        bad = dataclasses.replace(good, topology="bipartite:left=3,right=3",
                                  scheme="dor")
        results, _stats = run_sweep_workers(
            [good, bad], out_path=str(tmp_path / "err.jsonl"), workers=2)
        assert [r.status for r in results] == ["ok", "error"]
        assert "DOR requires" in (results[1].error or "")


class TestExecutorStatsSurface:
    def test_sweep_stats_includes_executor_counters(self, tmp_path):
        scenarios = _grid12().scenarios()[:4]
        results, stats = run_sweep_workers(
            scenarios, out_path=str(tmp_path / "s.jsonl"), workers=2)
        totals = sweep_stats(results, executor=stats)
        assert totals["workers"] == 2
        assert sum(totals["per_worker_completed"]) == 4
        assert totals["scenarios_per_sec"] > 0
        assert {"steals", "shared_hits", "shared_misses"} <= set(totals)

    def test_footer_renders_executor_section(self):
        stats = ExecutorStats(workers=2, completed=[3, 1], steals=1,
                              shared_hits=5, shared_misses=2,
                              elapsed_seconds=2.0)
        line = format_engine_footer(
            {"hits": 0, "misses": 0, "disk_hits": 0, "backend": "x"},
            {"hits": 0, "misses": 0}, executor_stats=stats.to_dict())
        assert "exec: 2 workers (3/1 per worker)" in line
        assert "1 steals" in line
        assert "shared-artifacts 5 hits / 2 misses" in line
        assert "2.00 scen/s" in line


class TestSharedReaderHelpers:
    def test_load_results_caches_by_signature(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps(_rec("a")) + "\n")
        first = load_results(path)
        assert load_results(path) == first  # served from cache
        with open(path, "a") as fh:
            fh.write(json.dumps(_rec("b")) + "\n")
        assert len(load_results(path)) == 2  # size change invalidates

    def test_load_results_returns_fresh_lists(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps(_rec("a")) + "\n")
        load_results(path).clear()  # caller mutation must not poison cache
        assert len(load_results(path)) == 1

    def test_completed_records_dedupes_and_filters(self, tmp_path):
        a = _write_shard(str(tmp_path), "worker-0.jsonl", [
            _rec("x", through="synthesize"),
            _rec("y", status="error", error="boom"),
        ])
        b = _write_shard(str(tmp_path), "worker-1.jsonl", [
            _rec("x", through="simulate"), _rec("y"),
        ])
        done = completed_records([a, b], through="simulate")
        assert done["x"]["through"] == "simulate"  # shallow run filtered out
        assert done["y"]["status"] == "ok"  # ok displaces the error record
        with_errors = completed_records([a], through="simulate", ok_only=False)
        assert with_errors["y"]["status"] == "error"
