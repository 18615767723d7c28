#!/usr/bin/env python
"""Validate a sweep JSONL file against the record schema (CI sweep-smoke gate).

Usage: python benchmarks/check_sweep.py results.jsonl [--expect N]
       [--require-sim] [--require-cluster] [--require-faults]
       [--compare OTHER]

Checks every line parses, carries the mandatory record fields with the right
shapes (64-hex key, current schema_version, ok/error status, numeric metrics
and timings), and — with ``--expect`` — that exactly N records exist and all are
``ok``.  ``--require-sim`` (the CI sim-smoke gate) additionally requires each
ok record to carry the simulator cost counters (``sim_fill_rounds``,
``sim_events``) and, for scenarios with ``overlap > 1``, per-collective
completion times with exactly ``overlap`` entries per buffer point.
``--require-cluster`` (the CI cluster-smoke gate) requires each ok record to
carry the multi-job co-simulation metrics (``job_slowdown_p50``,
``makespan_seconds``, ``fabric_utilization``) with sane values.
``--require-faults`` (the CI faults-smoke gate) requires each ok record to
carry the dynamic-failure metrics (``robustness_slowdown``, ``reroute_count``,
``stranded_bytes``, ``fault_events``) with sane values.
``--compare OTHER`` (the CI sweep-parallel gate) requires the two files to be
canonically identical: records sorted by scenario hash, the volatile
execution-accounting sections (``timings``, ``engine``, ``stage_cache`` —
wall clock and cache luck) dropped, everything else equal byte for byte —
how a multiprocess ``--jobs`` sweep is checked against the serial run.
Exit code 0 on success, 1 with a per-line report otherwise.

The record schema is documented in :mod:`repro.experiments.sweep`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

REQUIRED_FIELDS = ("schema_version", "key", "label", "status", "through",
                   "scenario", "metrics", "timings", "engine", "stage_cache",
                   "error")

#: Mirrors repro.experiments.scenario_schema_version() without importing the
#: package (this script runs without PYTHONPATH=src in CI).
SCHEMA_VERSION = 6

#: Mirrors repro.experiments.executor.VOLATILE_RECORD_FIELDS: execution
#: accounting (wall clock, cache luck) that legitimately differs between a
#: serial and a multiprocess run of the same grid.
VOLATILE_RECORD_FIELDS = ("timings", "engine", "stage_cache")


def canonical_records(path: str) -> List[str]:
    """Records of a sweep JSONL, volatile fields dropped, sorted by hash."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing line; the schema pass reports it
            for name in VOLATILE_RECORD_FIELDS:
                rec.pop(name, None)
            records.append(rec)
    records.sort(key=lambda r: str(r.get("key", "")))
    return [json.dumps(rec, sort_keys=True) for rec in records]


def compare_canonical(path_a: str, path_b: str, errors: List[str]) -> None:
    """The --compare gate: canonical equality of two sweep JSONL files."""
    a, b = canonical_records(path_a), canonical_records(path_b)
    if len(a) != len(b):
        errors.append(f"--compare: {path_a} has {len(a)} record(s), "
                      f"{path_b} has {len(b)}")
    for i, (left, right) in enumerate(zip(a, b), start=1):
        if left != right:
            errors.append(f"--compare: canonical record {i} differs:\n"
                          f"  {path_a}: {left}\n  {path_b}: {right}")
            return  # first divergence is enough; the rest is usually noise


def check_record(index: int, line: str, errors: List[str]) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        errors.append(f"line {index}: not valid JSON ({exc})")
        return {}
    missing = [f for f in REQUIRED_FIELDS if f not in rec]
    if missing:
        errors.append(f"line {index}: missing field(s) {missing}")
        return rec
    if rec["schema_version"] != SCHEMA_VERSION:
        errors.append(f"line {index}: schema_version {rec['schema_version']!r} "
                      f"!= {SCHEMA_VERSION}")
    if rec["status"] not in ("ok", "error"):
        errors.append(f"line {index}: bad status {rec['status']!r}")
    if rec["status"] == "ok":
        if not (isinstance(rec["key"], str) and len(rec["key"]) == 64
                and all(c in "0123456789abcdef" for c in rec["key"])):
            errors.append(f"line {index}: key is not a 64-char hex digest")
        if rec["error"] is not None:
            errors.append(f"line {index}: ok record carries an error")
    for section in ("metrics", "timings"):
        values = rec.get(section)
        if not isinstance(values, dict):
            errors.append(f"line {index}: {section} is not an object")
            continue
        for name, value in values.items():
            if not isinstance(value, (int, float, dict)):
                errors.append(f"line {index}: {section}[{name!r}] is not numeric/nested")
    if not isinstance(rec.get("scenario"), dict) or "topology" not in rec.get("scenario", {}):
        errors.append(f"line {index}: scenario object missing topology")
    return rec


def check_sim_metrics(index: int, rec: dict, errors: List[str]) -> None:
    """The --require-sim gate: simulator counters and overlap metrics."""
    if rec.get("status") != "ok":
        return
    metrics = rec.get("metrics", {})
    for counter in ("sim_fill_rounds", "sim_events"):
        value = metrics.get(counter)
        if not isinstance(value, int) or value < 1:
            errors.append(f"line {index}: metrics[{counter!r}] missing or < 1")
    overlap = rec.get("scenario", {}).get("overlap", 1)
    if isinstance(overlap, int) and overlap > 1:
        times = metrics.get("overlap_completion_seconds")
        if not isinstance(times, dict) or not times:
            errors.append(f"line {index}: overlap={overlap} record lacks "
                          "overlap_completion_seconds")
            return
        for buf, values in times.items():
            if not isinstance(values, list) or len(values) != overlap:
                errors.append(f"line {index}: overlap_completion_seconds[{buf}] "
                              f"has {len(values) if isinstance(values, list) else '?'} "
                              f"entries, expected {overlap}")


def check_cluster_metrics(index: int, rec: dict, errors: List[str]) -> None:
    """The --require-cluster gate: multi-job co-simulation metrics."""
    if rec.get("status") != "ok":
        return
    metrics = rec.get("metrics", {})
    for name in ("job_slowdown_p50", "makespan_seconds", "fabric_utilization"):
        value = metrics.get(name)
        if not isinstance(value, (int, float)) or value < 0:
            errors.append(f"line {index}: metrics[{name!r}] missing or negative")
    slowdown = metrics.get("job_slowdown_p50")
    if isinstance(slowdown, (int, float)) and slowdown and slowdown < 1.0 - 1e-6:
        errors.append(f"line {index}: job_slowdown_p50 {slowdown} < 1 "
                      "(a shared fabric cannot beat the isolated run)")
    utilization = metrics.get("fabric_utilization")
    if isinstance(utilization, (int, float)) and utilization > 1.0 + 1e-6:
        errors.append(f"line {index}: fabric_utilization {utilization} > 1")
    jobs = metrics.get("cluster_jobs")
    if not isinstance(jobs, int) or jobs < 1:
        errors.append(f"line {index}: metrics['cluster_jobs'] missing or < 1")


def check_faults_metrics(index: int, rec: dict, errors: List[str]) -> None:
    """The --require-faults gate: dynamic-failure robustness metrics."""
    if rec.get("status") != "ok":
        return
    metrics = rec.get("metrics", {})
    slowdown = metrics.get("robustness_slowdown")
    if not isinstance(slowdown, (int, float)):
        errors.append(f"line {index}: metrics['robustness_slowdown'] missing")
    elif slowdown < 1.0 - 1e-6:
        errors.append(f"line {index}: robustness_slowdown {slowdown} < 1 "
                      "(a degraded fabric cannot beat the healthy run)")
    for name in ("reroute_count", "fault_events"):
        value = metrics.get(name)
        if not isinstance(value, int) or value < 0:
            errors.append(f"line {index}: metrics[{name!r}] missing or negative")
    stranded = metrics.get("stranded_bytes")
    if not isinstance(stranded, (int, float)) or stranded < 0:
        errors.append(f"line {index}: metrics['stranded_bytes'] missing or negative")
    if rec.get("scenario", {}).get("faults") is None:
        errors.append(f"line {index}: record lacks a faults axis in its scenario")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("jsonl", help="sweep results file to validate")
    parser.add_argument("--expect", type=int, default=None,
                        help="require exactly N records, all with status ok")
    parser.add_argument("--require-sim", action="store_true",
                        help="require simulator counters (and per-collective "
                             "times for overlap scenarios) in every ok record")
    parser.add_argument("--require-cluster", action="store_true",
                        help="require multi-job cluster metrics (slowdown, "
                             "makespan, utilization) in every ok record")
    parser.add_argument("--require-faults", action="store_true",
                        help="require dynamic-failure metrics (robustness "
                             "slowdown, reroutes, stranded bytes) in every "
                             "ok record")
    parser.add_argument("--compare", default=None, metavar="OTHER",
                        help="require canonical equality with another sweep "
                             "JSONL (volatile fields dropped, hash-sorted)")
    args = parser.parse_args(argv)

    errors: List[str] = []
    records = []
    with open(args.jsonl) as fh:
        for index, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = check_record(index, line, errors)
            if args.require_sim:
                check_sim_metrics(index, rec, errors)
            if args.require_cluster:
                check_cluster_metrics(index, rec, errors)
            if args.require_faults:
                check_faults_metrics(index, rec, errors)
            records.append(rec)

    if args.compare is not None:
        compare_canonical(args.jsonl, args.compare, errors)

    statuses = [r.get("status") for r in records]
    if args.expect is not None:
        if len(records) != args.expect:
            errors.append(f"expected {args.expect} records, found {len(records)}")
        bad = statuses.count("error")
        if bad:
            errors.append(f"{bad} record(s) have status=error")

    if errors:
        for err in errors:
            print(f"SWEEP SCHEMA: {err}", file=sys.stderr)
        return 1
    print(f"sweep schema ok: {len(records)} record(s), "
          f"{statuses.count('ok')} ok / {statuses.count('error')} error")
    return 0


if __name__ == "__main__":
    sys.exit(main())
