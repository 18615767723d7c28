#!/usr/bin/env python3
"""End-to-end benchmark of the repro pipeline: four user-facing workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload cluster --seed 0 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --runs 5 --out a.json   # every workload
    python3 benchmarks/e2e/run.py --workload sweep --trace 1 --trace-dir /tmp/t

Each run of a workload happens in fresh subprocesses, one after another,
with ``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=MKL_NUM_THREADS=1`` and every
inherited ``REPRO_*`` variable cleared, so the program runs its defaults.
Load comes from one client in a closed loop; only ``sweep`` starts worker
processes (2).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s`` — subprocess start to the first timed call (imports, input
  generation, schedule set-up): the median of :data:`SETUP_SAMPLES` fresh
  subprocesses;
* ``wall_s`` — the cold pass, into an empty ``REPRO_CACHE_DIR``;
* ``warm_s`` — the median warm replay.  Before each replay the program's
  in-memory caches are dropped, so it reads the disk cache the cold pass
  filled, as a second run of the same command would.  Replays run until the
  timed phase has lasted ``--seconds`` and the replays :data:`MIN_WARM_S`
  seconds (at least one, at most :data:`MAX_WARM`), so that a slow spell of
  the machine does not cover all of them;
* ``peak_rss_mb`` — the larger of the process's and its children's peak RSS.

``--trace 1`` reports the per-layer metrics instead: one untraced run for the
tracing overhead, then one traced run whose spans (see ``tracing.py``) land
in ``--trace-dir`` as Chrome trace-event JSON plus a per-layer table.

Outputs are checked on every run (``workloads.py``) and, for seeds with a
file under ``expected/``, compared with the recorded values at 1e-9
relative.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out`` also
writes every run to a results file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / "benchmarks" / "results" / "e2e"
EXPECTED = HERE / "expected"
SETUP_SAMPLES = 3
MIN_WARM_S = 3.0
MAX_WARM = 200
CHILD_TIMEOUT_S = 170
REL_TOL = 1e-9


# --------------------------------------------------------------------------- #
# Child: one subprocess running one role of one workload
# --------------------------------------------------------------------------- #
def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0          # Linux reports KiB


def _expected_path(workload, scale: str) -> Optional[Path]:
    if scale != "full":
        return None
    name = f"{workload.name}-seed{workload.seed}.json" if workload.seeded \
        else f"{workload.name}.json"
    return EXPECTED / name


def _compare_values(values: Dict[str, float], path: Path) -> List[str]:
    expected = json.loads(path.read_text())
    failures = []
    for key in sorted(set(expected) | set(values)):
        want, got = expected.get(key), values.get(key)
        if want is None or got is None or not math.isclose(want, got, rel_tol=REL_TOL):
            failures.append(f"{key}: expected {want}, got {got}")
    return failures


def child_main(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS, drop_memory_tiers

    work = Path(args.work)
    workload = WORKLOADS[args.workload](args.seed, args.scale == "toy", work)
    recorder = None
    if args.role == "trace":
        from tracing import Recorder

        recorder = Recorder(work / "spans")
        recorder.install()
    phase = recorder.phase if recorder else (lambda name: nullcontext())

    with phase("setup"):
        workload.setup()
    result: Dict[str, object] = {"setup_s": time.monotonic() - args.t0}
    if args.role != "setup":
        perf = time.perf_counter
        start = perf()
        with phase("cold"):
            cold = workload.run("cold")
        result["wall_s"] = perf() - start
        failures = workload.input_failures + workload.check(cold)
        reference = workload.fingerprint(cold)
        attempted = workload.ops
        warm_times: List[float] = []
        min_warm_s = 0.0 if args.scale == "toy" else MIN_WARM_S
        with phase("warm"):
            warm_start = perf()
            while len(warm_times) < MAX_WARM and (
                    not warm_times or perf() - start < args.seconds
                    or perf() - warm_start < min_warm_s):
                drop_memory_tiers()
                t0 = perf()
                out = workload.run(f"warm-{len(warm_times)}")
                warm_times.append(perf() - t0)
                failures += workload.check(out)
                if workload.fingerprint(out) != reference:
                    failures.append(f"warm replay {len(warm_times)} differs from the cold pass")
                attempted += workload.ops
        result.update(warm_s=statistics.median(warm_times), peak_rss_mb=_peak_rss_mb())
        values = workload.values(cold)
        expected = _expected_path(workload, args.scale)
        if args.write_expected and expected is not None:
            expected.parent.mkdir(exist_ok=True)
            expected.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
        elif expected is not None and expected.is_file():
            failures += _compare_values(values, expected)
        result.update(attempted=attempted, failures=failures)
    if recorder is not None:
        recorder.uninstall()
        recorder.merge_children()
        result["layers"] = recorder.metrics()
        result["restored"] = recorder.restored()
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}.trace.json"
        path.write_text(json.dumps(recorder.chrome_trace()))
        result["trace_file"] = str(path)
    (work / "result.json").write_text(json.dumps(result))
    return 0


# --------------------------------------------------------------------------- #
# Parent: spawn children, aggregate, print
# --------------------------------------------------------------------------- #
def _child_env(work: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"),
                                                      env.get("PYTHONPATH")) if p),
               # A fresh disk cache per subprocess; temporary files and git's
               # repository search stay in the checkout.
               REPRO_CACHE_DIR=str(work / "cache"), TMPDIR=str(work),
               GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    return env


def _spawn(role: str, workload: str, args: argparse.Namespace) -> Dict[str, object]:
    work = OUT / f"work-{os.getpid()}-{workload}-{role}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scale", args.scale, "--work", str(work), "--trace-dir", str(args.trace_dir)]
    if args.write_expected:
        cmd.append("--write-expected")
    try:
        cmd += ["--t0", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(work), stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        result_file = work / "result.json"
        if code != 0 or not result_file.is_file():
            raise RuntimeError(f"{workload} {role} subprocess failed (exit code {code})")
        return json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload: str, args: argparse.Namespace, spec: dict) -> Dict[str, object]:
    samples = 1 if args.scale == "toy" else SETUP_SAMPLES
    setups = [_spawn("setup", workload, args)["setup_s"] for _ in range(samples - 1)]
    result = _spawn("measure", workload, args)
    setups.append(result["setup_s"])
    values = {"setup_s": statistics.median(setups), "wall_s": result["wall_s"],
              "warm_s": result["warm_s"], "peak_rss_mb": result["peak_rss_mb"]}
    return _run_record(workload, args, result, values, spec["end_to_end"])


def _trace(workload: str, args: argparse.Namespace, spec: dict) -> Dict[str, object]:
    plain = _spawn("measure", workload, args)
    traced = _spawn("trace", workload, args)
    layers = dict(traced["layers"])
    layers["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    from tracing import layer_table

    table = layer_table(layers, units)
    (Path(args.trace_dir) / f"{workload}.layers.txt").write_text(table + "\n")
    print(f"\n== {workload}: where time goes (traced, seed {args.seed})\n{table}",
          file=sys.stderr)
    if not traced["restored"]:
        traced["failures"].append("span wrappers were not restored")
    merged = dict(traced, attempted=plain["attempted"] + traced["attempted"],
                  failures=plain["failures"] + traced["failures"])
    return _run_record(workload, args, merged, layers, spec["per_layer"])


def _run_record(workload: str, args: argparse.Namespace, result: Dict[str, object],
                values: Dict[str, float], declared: List[dict]) -> Dict[str, object]:
    failures = list(result["failures"])
    attempted = int(result["attempted"])
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": bool(args.trace),
        "correct": not failures, "attempted": attempted,
        "failed": min(attempted, len(failures)), "failures": failures[:20],
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in declared},
    }


def _summary(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """One result line: metric medians over runs, prefixed when several workloads ran."""
    workloads = list(dict.fromkeys(run["workload"] for run in runs))
    metrics = {}
    for workload in workloads:
        mine = [run for run in runs if run["workload"] == workload]
        for name, first in mine[0]["metrics"].items():
            key = name if len(workloads) == 1 else f"{workload}:{name}"
            metrics[key] = {"value": statistics.median(r["metrics"][name]["value"] for r in mine),
                            "unit": first["unit"]}
    return {"correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs), "metrics": metrics}


def _print_run(run: Dict[str, object]) -> None:
    status = "ok" if run["correct"] else f"FAILED {run['failed']}/{run['attempted']}"
    print(f"{run['workload']} seed={run['seed']} trace={int(run['trace'])}: {status}")
    for failure in run["failures"]:
        print(f"  check failed: {failure}")
    for name, metric in run["metrics"].items():
        print(f"  {name:<24} {metric['value']:>14.6g} {metric['unit']}")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default) to run each in turn")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the timed phase; warm replays fill it (default 12)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", default=str(OUT / "trace"),
                        help="where traced runs write Chrome traces and layer tables")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (default 1)")
    parser.add_argument("--out", default=str(OUT / "results.json"),
                        help="results file for compare.py")
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for the self-test")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this seed's deterministic outputs under expected/")
    parser.add_argument("--role", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.role:
        return child_main(args)
    from workloads import WORKLOADS

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    runs = []
    try:
        for name in names:
            for _ in range(args.runs):
                run = (_trace if args.trace else _measure)(name, args, spec)
                _print_run(run)
                runs.append(run)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(json.dumps(_summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
