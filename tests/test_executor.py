"""Tests for the multiprocess sweep executor.

Covers the one-file compaction (:func:`merge_shards`) and the executor's
guarantees: worker output canonically identical to the serial path, one
synthesize per shared key with the simulations still spread over the
workers, cached scenarios served in the parent (a fully warm sweep starts
no pool), and a killed worker losing only the scenario it was running,
which a ``resume=True`` re-run finishes without duplicate records.
"""

import dataclasses
import json
import os
import signal
import time
from pathlib import Path

import pytest

import repro.experiments.executor as executor_module
import repro.experiments.sweep as sweep_module
from repro import obs
from repro.engine import reset_engine
from repro.experiments import (
    SweepGrid,
    completed_records,
    load_results,
    merge_shards,
    reset_plan_cache,
    run_sweep,
    run_sweep_workers,
    scenario_schema_version,
)
from repro.experiments.executor import VOLATILE_RECORD_FIELDS
from repro.experiments.plan import stage_artifact_key


def _grid12() -> SweepGrid:
    """12 fast scenarios: 3 topologies x 2 schemes x 2 overlap settings.

    Overlap enters only the simulate stage key, so the grid has 6 distinct
    synthesize keys, each shared by two consecutive scenarios.
    """
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


def _write_jsonl(path, records, torn=False):
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


def _kill_workers_after(monkeypatch, calls):
    """Make every forked worker SIGKILL itself before scenario ``calls + 1``.

    The counter is copied into each worker at fork time, so the limit is
    per worker; the parent process is never killed.
    """
    parent = os.getpid()
    real = sweep_module._execute
    seen = [0]

    def execute(*args, **kwargs):
        if os.getpid() != parent:
            seen[0] += 1
            if seen[0] > calls:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "_execute", execute)


def _record_calls(monkeypatch, scenarios, calls):
    """Touch ``<pid>-<scenario index>-<through>`` in ``calls`` for every
    scenario run, in the parent or a worker, then run it."""
    real = sweep_module._execute

    def execute(scenario, through, *args, **kwargs):
        index = scenarios.index(scenario)
        (calls / f"{os.getpid()}-{index}-{through}").touch()
        time.sleep(0.05)  # long enough that one worker cannot take all
        return real(scenario, through, *args, **kwargs)

    monkeypatch.setattr(sweep_module, "_execute", execute)


def _no_pool(*args, **kwargs):
    raise AssertionError("the sweep started a process pool")


@pytest.fixture
def cold_plan_cache(monkeypatch):
    """Workers fork from this process and the parent keeps the schedules the
    first pass hands back, so start (and leave) its stage cache empty.
    A scenario already in the parent's cache would also never reach a
    worker: the parent serves it itself."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    reset_plan_cache()
    yield
    reset_plan_cache()


@pytest.fixture
def disk_plan_cache(tmp_path, monkeypatch):
    """A stage cache with a disk tier under ``tmp_path``; yields its directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_plan_cache()
    yield tmp_path / "cache" / "stages"
    reset_plan_cache()


class TestMergeShards:
    def test_merge_is_deterministic_and_idempotent(self, tmp_path):
        out = _write_jsonl(str(tmp_path / "sweep.jsonl"),
                           [_rec("b"), _rec("a"), _rec("c")], torn=True)
        assert merge_shards(out) == 3
        first = Path(out).read_text()
        assert merge_shards(out) == 3
        assert Path(out).read_text() == first
        keys = [rec["key"] for rec in load_results(out)]
        assert keys == ["a", "b", "c"]  # hash-sorted; torn line skipped

    def test_merge_independent_of_shard_assignment(self, tmp_path):
        # Workers finish in any order, so the parent appends the same records
        # in any order; the compacted file must not depend on it.
        records = [_rec(k) for k in ("d", "a", "c", "b")]
        outputs = []
        for tag, order in [("x", records), ("y", records[::-1]),
                           ("z", records[1::2] + records[::2])]:
            out = _write_jsonl(str(tmp_path / f"sweep-{tag}.jsonl"), order)
            merge_shards(out)
            outputs.append(Path(out).read_text())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_ok_beats_error_and_deeper_through_wins(self, tmp_path):
        out = _write_jsonl(str(tmp_path / "sweep.jsonl"), [
            _rec("a", status="error", error="boom"),
            _rec("b", through="synthesize", marker="shallow"),
            _rec("a", marker="good"),
            _rec("b", through="simulate", marker="deep"),
        ])
        merge_shards(out)
        by_key = {rec["key"]: rec for rec in load_results(out)}
        assert by_key["a"]["status"] == "ok"
        assert by_key["b"]["marker"] == "deep"

    def test_rank_tie_keeps_last_appended(self, tmp_path):
        # A non-resumed re-run appends to the same file; the file must keep
        # the records that run returned, not the stale ones.
        out = _write_jsonl(str(tmp_path / "sweep.jsonl"),
                           [_rec("a", marker="old"), _rec("a", marker="new")])
        merge_shards(out)
        assert [rec["marker"] for rec in load_results(out)] == ["new"]

    def test_unkeyed_records_all_kept(self, tmp_path):
        out = _write_jsonl(str(tmp_path / "sweep.jsonl"),
                           [_rec("", status="error", error="x"),
                            _rec("", status="error", error="y"), _rec("a")])
        assert merge_shards(out) == 3


class TestRunSweepWorkers:
    def test_workers_match_serial_and_threads_canonically(self, tmp_path):
        # The thread leg is gone with the thread executor; the name stays.
        scenarios = _grid12().scenarios()
        serial = str(tmp_path / "serial.jsonl")
        workers = str(tmp_path / "workers.jsonl")
        run_sweep(scenarios, out_path=serial)
        reset_plan_cache()  # or the serial leg's entries keep every task home
        results = run_sweep_workers(scenarios, out_path=workers, workers=2)
        assert _canonical(serial) == _canonical(workers)
        assert len(results) == 12
        assert [r.scenario for r in results] == scenarios  # input order kept
        assert all(r.status == "ok" for r in results)
        keys = [rec["key"] for rec in load_results(workers)]
        assert keys == sorted(keys)

    def test_run_sweep_workers_arg_delegates(self, tmp_path):
        scenarios = _grid12().scenarios()[:2]
        out = str(tmp_path / "via-run-sweep.jsonl")
        results = run_sweep(scenarios, out_path=out, workers=2)
        assert [r.status for r in results] == ["ok", "ok"]
        assert len(load_results(out)) == 2

    def test_each_synthesize_key_solved_once(self, tmp_path, cold_plan_cache):
        # Leaders hand their schedules to the parent, whose stage cache the
        # followers' pool inherits: 6 misses for 6 keys, whatever the
        # scheduling.
        out = str(tmp_path / "once.jsonl")
        run_sweep(_grid12().scenarios(), out_path=out, workers=2)
        records = load_results(out)
        assert len(records) == 12
        assert sum(rec["stage_cache"]["synthesize"] == "miss"
                   for rec in records) == 6

    def test_killed_worker_then_resume_completes_without_duplicates(
            self, tmp_path, monkeypatch, cold_plan_cache):
        scenarios = _grid12().scenarios()
        out = str(tmp_path / "crash.jsonl")
        with monkeypatch.context() as patch:
            # The first pass only synthesizes the 6 shared keys and writes
            # no record; the second pass's one worker completes 8 scenarios
            # and dies on the ninth.
            _kill_workers_after(patch, 8)
            with pytest.raises(RuntimeError, match="resume=True"):
                run_sweep_workers(scenarios, out_path=out, workers=1)
        partial = load_results(out)
        assert len(partial) == 8  # kept what the parent wrote, nothing more
        with open(out, "a") as fh:
            fh.write('{"key": "torn-')  # what a killed writer leaves behind

        results = run_sweep_workers(scenarios, out_path=out, workers=2,
                                    resume=True)
        final = load_results(out)
        keys = [rec["key"] for rec in final]
        assert len(final) == 12
        assert len(set(keys)) == 12  # zero duplicate records after the merge
        assert keys == sorted(keys)
        assert sum(1 for r in results if r.resumed) == len(partial)
        assert all(r.status == "ok" for r in results)

    def test_crash_among_shared_key_scenarios_keeps_finished_ones(
            self, tmp_path, monkeypatch, cold_plan_cache):
        # Six scenarios sharing one schedule: the first pass only solves it,
        # the second runs all six simulations one task each, so a worker that
        # dies after two of them leaves exactly those two records behind.
        base = _grid12().scenarios()[0]
        scenarios = [dataclasses.replace(base, buffers=(2 ** k,))
                     for k in range(16, 22)]
        assert len({s.stage_key("synthesize") for s in scenarios}) == 1
        out = str(tmp_path / "shared-crash.jsonl")
        with monkeypatch.context() as patch:
            _kill_workers_after(patch, 2)
            with pytest.raises(RuntimeError, match="resume=True"):
                run_sweep_workers(scenarios, out_path=out, workers=1)
        assert len(load_results(out)) == 2
        results = run_sweep_workers(scenarios, out_path=out, workers=2,
                                    resume=True)
        assert sum(r.resumed for r in results) == 2
        assert len(load_results(out)) == 6
        assert all(r.status == "ok" for r in results)

    def test_dead_worker_without_an_output_file_says_nothing_was_kept(
            self, monkeypatch, cold_plan_cache):
        scenarios = _grid12().scenarios()[:2]
        _kill_workers_after(monkeypatch, 0)
        with pytest.raises(RuntimeError, match="no output file") as info:
            run_sweep_workers(scenarios, workers=1)
        assert "None" not in str(info.value)
        assert "resume=True" not in str(info.value)

    def test_shared_key_simulations_spread_over_workers(self, tmp_path,
                                                         cold_plan_cache):
        # The first pass only solves the one shared schedule; all eight
        # simulations, the leader's included, run in the second pass, one
        # task each, so both of its workers get some.
        base = _grid12().scenarios()[0]
        scenarios = [dataclasses.replace(base, buffers=(2 ** k,))
                     for k in range(16, 24)]
        calls = tmp_path / "calls"
        calls.mkdir()
        with pytest.MonkeyPatch.context() as patch:
            _record_calls(patch, scenarios, calls)
            results = run_sweep_workers(scenarios, workers=2)
        seen = [name.split("-") for name in os.listdir(calls)]
        first = {pid for pid, _, through in seen if through == "validate"}
        second = {pid for pid, _, through in seen if through == "simulate"}
        assert len(first) == 1 and len(second) == 2 and not first & second
        assert sum(through == "simulate" for _, _, through in seen) == 8
        assert str(os.getpid()) not in first | second
        assert [r.stage_cache["synthesize"] for r in results].count("miss") == 1

    def test_warm_workers_and_a_new_buffer_follower_match_serial(
            self, tmp_path, monkeypatch):
        # A warm worker sweep serves each scenario from its deepest entry.
        # The extra follower shares a schedule but misses simulate: its
        # worker must read a real lowered schedule from the cache.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_plan_cache()
        try:
            scenarios = _grid12().scenarios()[:4]
            run_sweep_workers(scenarios, out_path=str(tmp_path / "cold.jsonl"),
                              workers=2)
            reset_plan_cache()  # read the disk as a new process would
            follower = dataclasses.replace(scenarios[0], buffers=(2 ** 18,))
            warm = str(tmp_path / "warm.jsonl")
            results = run_sweep_workers(scenarios + [follower], out_path=warm,
                                        workers=2)
        finally:
            reset_plan_cache()
        monkeypatch.delenv("REPRO_CACHE_DIR")
        serial = str(tmp_path / "serial.jsonl")
        run_sweep(scenarios + [follower], out_path=serial)
        assert _canonical(warm) == _canonical(serial)
        assert [r.stage_cache for r in results[:4]] == [
            dict.fromkeys(("synthesize", "lower", "validate", "simulate"), "hit")] * 4
        assert results[4].stage_cache == {"synthesize": "hit", "lower": "hit",
                                          "validate": "hit", "simulate": "miss"}

    def test_fully_warm_sweep_starts_no_pool(self, tmp_path, monkeypatch,
                                             disk_plan_cache):
        scenarios = _grid12().scenarios()
        serial = str(tmp_path / "serial.jsonl")
        run_sweep(scenarios, out_path=serial)
        reset_plan_cache()  # read the disk as a new process would
        obs.reset()
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _no_pool)
        warm = str(tmp_path / "warm.jsonl")
        results = run_sweep_workers(scenarios, out_path=warm, workers=2)
        assert _canonical(warm) == _canonical(serial)
        keys = [rec["key"] for rec in load_results(warm)]
        assert keys == sorted(keys)
        assert [r.scenario for r in results] == scenarios
        counts = obs.snapshot()
        assert counts["stage-cache.hits"] == len(scenarios)
        assert counts.get("stage-cache.misses", 0) == 0
        assert all(set(r.stage_cache.values()) == {"hit"} for r in results)

    def test_only_misses_reach_the_pool(self, tmp_path, monkeypatch,
                                        cold_plan_cache):
        # Scenarios 0 and 2 are cached; 1 and 3 share their schedules but
        # miss simulate (another overlap), and 4 misses everywhere.
        scenarios = _grid12().scenarios()[:5]
        run_sweep([scenarios[0], scenarios[2]])
        calls = tmp_path / "calls"
        calls.mkdir()
        out = str(tmp_path / "mixed.jsonl")
        with monkeypatch.context() as patch:
            _record_calls(patch, scenarios, calls)
            results = run_sweep_workers(scenarios, out_path=out, workers=2)
        where = {}
        for name in os.listdir(calls):
            pid, index, through = name.split("-")
            assert through == "simulate"  # no shared key among the misses
            assert int(index) not in where  # each scenario runs once
            where[int(index)] = pid == str(os.getpid())
        assert where == {0: True, 1: False, 2: True, 3: False, 4: False}
        assert [r.stage_cache["synthesize"] for r in results] == [
            "hit", "hit", "hit", "hit", "miss"]
        assert [r.stage_cache["simulate"] for r in results] == [
            "hit", "miss", "hit", "miss", "miss"]
        reset_plan_cache()
        serial = str(tmp_path / "serial.jsonl")
        run_sweep(scenarios, out_path=serial)
        assert _canonical(out) == _canonical(serial)

    def test_corrupt_cached_entry_recomputed_in_the_parent(
            self, tmp_path, monkeypatch, disk_plan_cache):
        scenarios = _grid12().scenarios()[:2]
        cold = str(tmp_path / "cold.jsonl")
        run_sweep_workers(scenarios, out_path=cold, workers=2)
        entry = disk_plan_cache / (
            stage_artifact_key(scenarios[0], "simulate") + ".stage-cache.pkl")
        entry.write_bytes(b"not a pickle")
        reset_plan_cache()
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _no_pool)
        warm = str(tmp_path / "warm.jsonl")
        results = run_sweep_workers(scenarios, out_path=warm, workers=2)
        assert results[0].stage_cache == {"synthesize": "hit", "lower": "hit",
                                          "validate": "hit", "simulate": "miss"}
        assert set(results[1].stage_cache.values()) == {"hit"}
        assert _canonical(warm) == _canonical(cold)

    def test_cold_sweep_counters_unchanged(self, tmp_path, cold_plan_cache):
        # A cold pass pays one stat per scenario and counts nothing for it:
        # the totals are those of a sweep that sends every scenario to the
        # pool.  (ewsp and sssp solve no LP.)
        reset_engine()
        try:
            run_sweep_workers(_grid12().scenarios(),
                              out_path=str(tmp_path / "cold.jsonl"), workers=2)
        finally:
            reset_engine()
        counts = obs.snapshot()
        assert {name: counts.get(f"stage-cache.{name}", 0)
                for name in ("hits", "misses", "stores")} == {
            "hits": 12, "misses": 30, "stores": 48}
        assert counts.get("lp-cache.misses", 0) == 0

    def test_resume_is_a_no_op_when_complete(self, tmp_path):
        scenarios = _grid12().scenarios()[:4]
        out = str(tmp_path / "done.jsonl")
        run_sweep_workers(scenarios, out_path=out, workers=2)
        before = Path(out).read_text()
        results = run_sweep_workers(scenarios, out_path=out, workers=2,
                                    resume=True)
        assert Path(out).read_text() == before
        assert all(r.resumed for r in results)

    def test_error_scenarios_recorded_not_raised(self, tmp_path):
        good = _grid12().scenarios()[0]
        # DOR is undefined on a bipartite graph: the scheme raises at run time.
        bad = dataclasses.replace(good, topology="bipartite:left=3,right=3",
                                  scheme="dor")
        results = run_sweep_workers(
            [good, bad], out_path=str(tmp_path / "err.jsonl"), workers=2)
        assert [r.status for r in results] == ["ok", "error"]
        assert "DOR requires" in (results[1].error or "")


class TestSharedReaderHelpers:
    def test_load_results_sees_same_size_rewrite(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        _write_jsonl(path, [_rec("a")])
        assert [rec["key"] for rec in load_results(path)] == ["a"]
        stat = os.stat(path)
        _write_jsonl(path, [_rec("b")])  # same size; pin the old mtime too
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert [rec["key"] for rec in load_results(path)] == ["b"]

    def test_load_results_returns_fresh_lists(self, tmp_path):
        path = _write_jsonl(str(tmp_path / "r.jsonl"), [_rec("a")])
        load_results(path).clear()
        assert len(load_results(path)) == 1

    def test_completed_records_dedupes_and_filters(self, tmp_path):
        a = _write_jsonl(str(tmp_path / "a.jsonl"), [
            _rec("x", through="synthesize"),
            _rec("y", status="error", error="boom"),
        ])
        b = _write_jsonl(str(tmp_path / "b.jsonl"), [
            _rec("x", through="simulate"), _rec("y"),
        ])
        done = completed_records([a, b], through="simulate")
        assert done["x"]["through"] == "simulate"  # shallow run filtered out
        assert done["y"]["status"] == "ok"  # error records never count
