"""Outside-in span recorder for the end-to-end benchmark.

The benchmark times whole runs; this module splits a traced run into the
``repro`` layers without changing the program.  :class:`Recorder` wraps the
public entry points listed in :data:`TARGETS` — in every ``repro`` module
that bound them, and in every module-level registry dict that holds them
(the scheme and formulation registries) — records one span per call, and
puts the originals back on :meth:`Recorder.uninstall`.

A span's *self time* is its duration minus the spans it called, so a layer
metric counts only the time spent in that layer's own code, including code
of its own that no span covers.  Time inside a benchmark phase that no span
covers at all is ``unaccounted_s``.

Sweep workers forked while the recorder is installed inherit the wrappers.
Each worker writes its totals and spans to ``spans-<pid>.json`` in the spool
directory when it exits, and :meth:`Recorder.merge_children` folds them in.
Spans of different processes never subtract from each other, so on the
``sweep`` workload the layers of the two workers add up to more than the
parent's wall clock, which spends it in ``experiments.wait_s``.

:meth:`Recorder.chrome_trace` returns Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Counts = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``path`` is ``"module:function"`` or ``"module:Class.method"``; a method
    is wrapped on the class and on every subclass that overrides it.
    ``seconds`` names the metric that accumulates the span's self time;
    ``None`` records no span, only counters.  ``calls`` names a counter
    bumped once per call, ``counts(args, kwargs, result)`` returns further
    counter increments, and ``inner(result)`` returns seconds the program
    itself measured inside the call — credited to their own metrics and
    carved out of this span's self time — for work too fine-grained to wrap
    per call without the wrapper costing more than the work.
    """

    path: str
    seconds: Optional[str] = None
    calls: Optional[str] = None
    counts: Optional[Counts] = None
    inner: Optional[Callable[[object], Dict[str, float]]] = None


def _fill_rounds(args, kwargs, result) -> Dict[str, float]:
    return {"perf.fill_rounds": float(result[1])}


def _cache_hit(args, kwargs, result) -> Dict[str, float]:
    return {"engine.cache_hits": 1.0} if result is not None else {}


def _event(args, kwargs, result) -> Dict[str, float]:
    return {"simulator.events": 1.0} if result else {}


def _reroutes(args, kwargs, result) -> Dict[str, float]:
    return {"faults.reroutes": float(result.meta.get("reroute_count", 0))}


def _reroute_seconds(result) -> Dict[str, float]:
    return {"faults.reroute_s": float(result.meta.get("reroute_seconds", 0.0))}


def _many(prefix: str, names: str, seconds: str) -> Tuple[Target, ...]:
    return tuple(Target(f"{prefix}{name}", seconds) for name in names.split())


#: Entry points per layer, named after the ``repro`` subpackages.
TARGETS: Tuple[Target, ...] = (
    Target("repro.topology.spec:from_spec", "topology.build_s", "topology.builds"),
    *_many("repro.paths.", "ewsp:ewsp_schedule sssp:sssp_schedule dor:dor_schedule "
           "disjoint:edge_disjoint_path_sets shortest:all_shortest_path_sets", "paths.s"),
    *_many("repro.core.", "path_extraction:solve_mcf_extract_paths "
           "path_extraction:extract_paths mcf_path:solve_path_mcf mcf_link:solve_link_mcf "
           "mcf_decomposed:solve_decomposed_mcf mcf_timestepped:solve_timestepped_mcf "
           "mcf_ts_decomposed:solve_timestepped_mcf_decomposed pipeline:generate_schedule",
           "core.synth_s"),
    *_many("repro.core.", "mcf_link:build_link_mcf mcf_path:build_path_mcf "
           "mcf_timestepped:build_timestepped_mcf mcf_decomposed:build_master_lp "
           "mcf_decomposed:build_child_lp mcf_ts_decomposed:build_ts_master "
           "mcf_ts_decomposed:build_ts_child solver:LPBuilder.to_arrays", "core.assemble_s"),
    *_many("repro.baselines.", "direct:native_alltoall_schedule "
           "direct:direct_pairwise_link_schedule fptas:fptas_max_concurrent_flow "
           "ilp:ilp_disjoint_schedule ilp:ilp_shortest_schedule sccl_like:sccl_like_schedule "
           "taccl_like:taccl_like_schedule", "baselines.s"),
    Target("repro.engine.core:Engine.solve", "engine.solve_s"),
    Target("repro.engine.backends:ScipyHighsBackend.solve", "engine.lp_solve_s",
           "engine.lp_solves"),
    Target("repro.engine.cache:SolutionCache.get", "engine.cache_get_s", "engine.cache_gets",
           counts=_cache_hit),
    Target("repro.engine.cache:SolutionCache.put", "engine.cache_put_s"),
    *_many("repro.schedule.chunking:", "chunk_path_schedule chunk_timestepped_flow",
           "schedule.lower_s"),
    *_many("repro.schedule.validate:", "validate_routed_schedule validate_link_schedule",
           "schedule.validate_s"),
    Target("repro.simulator.engine:compile_flows", "simulator.compile_s", "simulator.compiles"),
    *_many("repro.simulator.", "engine:execute collective:run_routed_collective "
           "collective:run_link_collective collective:throughput_sweep "
           "stepsim:simulate_link_schedule", "simulator.loop_s"),
    Target("repro.simulator.events:EventQueue.step", counts=_event),
    Target("repro.perf.fillkernel:run_fill", "perf.fill_s", "perf.fills", counts=_fill_rounds),
    Target("repro.perf.fillkernel:FillWorkspace.__init__", "perf.workspace_s"),
    *_many("repro.perf.delta:", "DeltaProgram.__init__ DeltaProgram.apply", "perf.delta_s"),
    Target("repro.cluster.runner:run_cluster", "cluster.loop_s"),
    Target("repro.cluster.injector:FlowInjector.inject", "cluster.loop_s", "cluster.injects"),
    Target("repro.faults.runner:run_faulted", "faults.loop_s", counts=_reroutes,
           inner=_reroute_seconds),
    *_many("repro.faults.", "runner:run_faulted_sweep runner:capture_fault_prefix "
           "adversarial:worst_case_failures context:PreparedFaultContext.__init__",
           "faults.loop_s"),
    *_many("repro.experiments.", "sweep:run_sweep sweep:run_scenarios "
           "executor:run_sweep_workers executor:merge_shards plan:Plan.run",
           "experiments.sweep_s"),
    Target("multiprocessing.process:BaseProcess.join", "experiments.wait_s"),
    Target("repro.report.specs:ArtifactSpec.aggregate", "report.aggregate_s"),
    *_many("repro.", "report.render:render_spec report.render:render_index "
           "report.provenance:collect_provenance", "report.render_s"),
)

#: Per-layer metrics computed from the others rather than recorded.
DERIVED = ("engine.cache_hit_ratio", "unaccounted_frac", "trace_overhead_frac")


def recorded_metrics() -> List[str]:
    """Every metric name a traced run can report (recorded or derived)."""
    names = {"unaccounted_s", "trace.spans", "trace.window_s", "engine.cache_hits",
             "simulator.events", "faults.reroute_s", "faults.reroutes",
             "perf.fill_rounds", *DERIVED}
    for target in TARGETS:
        names.update(n for n in (target.seconds, target.calls) if n)
    return sorted(names)


def import_all(package: str = "repro") -> None:
    """Import every module of ``package`` so every binding exists before wrapping."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


class Recorder:
    """Installs span wrappers on :data:`TARGETS` and accumulates layer totals.

    ``spool`` is the directory forked workers write their spans to.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.pid = os.getpid()
        self.epoch = time.perf_counter()
        self.installed = False
        self.totals: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, int, float, float, int]] = []   # pid, target, start, dur, tid
        self.phases: List[Tuple[str, float, float]] = []
        self._patched: List[Tuple[object, object, object, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Install / uninstall
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every target wherever it is bound (imports all of ``repro`` first)."""
        if self.installed:
            raise RuntimeError("recorder already installed")
        import_all()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "repro" or name.startswith("repro."))]
        for index, target in enumerate(TARGETS):
            module_name, _, attr = target.path.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                self._patch_class(getattr(module, class_name), method, index, target)
            else:
                self._patch_function(getattr(module, attr), modules, index, target)
        self.installed = True
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _patch_function(self, original, modules, index: int, target: Target) -> None:
        wrapper = self._wrap(original, index, target)
        for module in modules:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is original:
                    self._set(namespace, name, original, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, original, wrapper)

    def _patch_class(self, cls: type, method: str, index: int, target: Target) -> None:
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:           # reachable twice through multiple inheritance
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(method)
            if callable(original):
                wrapper = self._wrap(original, index, target)
                setattr(klass, method, wrapper)
                self._patched.append((klass, method, original, wrapper))

    def _set(self, mapping: dict, key, original, wrapper) -> None:
        mapping[key] = wrapper
        self._patched.append((mapping, key, original, wrapper))

    def uninstall(self) -> None:
        """Put every original back; wrappers still referenced pass straight through."""
        for owner, key, original, _wrapper in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.installed = False

    def restored(self) -> bool:
        """True when every binding the recorder patched holds its original again."""
        for owner, key, original, _wrapper in self._patched:
            current = owner.get(key) if isinstance(owner, dict) else owner.__dict__.get(key)
            if current is not original:
                return False
        return bool(self._patched)

    def wrapped(self) -> bool:
        """True when every binding the recorder patched holds its wrapper."""
        for owner, key, _original, wrapper in self._patched:
            current = owner.get(key) if isinstance(owner, dict) else owner.__dict__.get(key)
            if current is not wrapper:
                return False
        return bool(self._patched)

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[List[float]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, index: int, target: Target):
        rec = self
        perf = time.perf_counter
        seconds, calls, counts, inner = target.seconds, target.calls, target.counts, target.inner

        if seconds is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if rec.installed:
                    rec._add(calls, counts(args, kwargs, result) if counts else None, None)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.installed:
                return fn(*args, **kwargs)
            stack = rec._stack()
            frame = [0.0]
            stack.append(frame)
            start = perf()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                carved = inner(result) if ok and inner else None
                self_s = dur - frame[0] - (sum(carved.values()) if carved else 0.0)
                with rec._lock:
                    rec.totals[seconds] += self_s
                    rec.spans.append((rec.pid, index, start, dur, threading.get_ident()))
                rec._add(calls, counts(args, kwargs, result) if ok and counts else None, carved)
            return result
        return traced

    def _add(self, calls: Optional[str], counts: Optional[Dict[str, float]],
             carved: Optional[Dict[str, float]]) -> None:
        with self._lock:
            if calls:
                self.totals[calls] += 1.0
            for extra in (counts, carved):
                for name, value in (extra or {}).items():
                    self.totals[name] += value

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A benchmark phase; its time outside every span is ``unaccounted_s``."""
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self.totals["unaccounted_s"] += dur - frame[0]
                self.totals["trace.window_s"] += dur
                self.phases.append((name, start, dur))

    # ------------------------------------------------------------------ #
    # Forked workers
    # ------------------------------------------------------------------ #
    def _after_fork(self) -> None:
        if not self.installed:
            return
        self.pid = os.getpid()
        self.totals = defaultdict(float)
        self.spans = []
        self.phases = []
        self._lock = threading.Lock()
        multiprocessing.util.Finalize(self, self._flush, exitpriority=10)

    def _flush(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        payload = {"pid": self.pid, "totals": dict(self.totals), "spans": self.spans}
        name = f"spans-{self.pid}-{time.monotonic_ns()}.json"   # pids can be reused
        (self.spool / name).write_text(json.dumps(payload))

    def merge_children(self) -> int:
        """Fold the spans of finished workers into this recorder; returns how many."""
        files = sorted(self.spool.glob("spans-*.json")) if self.spool.is_dir() else []
        for path in files:
            payload = json.loads(path.read_text())
            for name, value in payload["totals"].items():
                self.totals[name] += value
            self.spans.extend(tuple(span) for span in payload["spans"])
            path.unlink()
        return len(files)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, float]:
        """Layer totals plus the derived ratios (``trace_overhead_frac`` excluded)."""
        out = {name: float(value) for name, value in self.totals.items()}
        out["trace.spans"] = float(len(self.spans))
        gets = out.get("engine.cache_gets", 0.0)
        out["engine.cache_hit_ratio"] = out.get("engine.cache_hits", 0.0) / gets if gets else 0.0
        window = out.get("trace.window_s", 0.0)
        out["unaccounted_frac"] = out.get("unaccounted_s", 0.0) / window if window else 0.0
        return out

    def chrome_trace(self) -> Dict[str, object]:
        """Spans and phases as Chrome trace-event JSON (``ph: X`` complete events)."""
        tids: Dict[Tuple[int, int], int] = {}
        events = [self._event(f"phase:{name}", "benchmark", start, dur, self.pid, 0)
                  for name, start, dur in self.phases]
        for pid, index, start, dur, tid in self.spans:
            target = TARGETS[index]
            tid_index = tids.setdefault((pid, tid), len(tids))
            events.append(self._event(target.path.partition(":")[2], target.seconds,
                                      start, dur, pid, tid_index))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def _event(self, name: str, category: str, start: float, dur: float,
               pid: int, tid: int) -> Dict[str, object]:
        return {"name": name, "cat": category, "ph": "X",
                "ts": (start - self.epoch) * 1e6, "dur": dur * 1e6,
                "pid": pid, "tid": tid}


def layer_table(metrics: Dict[str, float], units: Dict[str, str]) -> str:
    """The "where time goes" table: each per-layer metric with its share of the window."""
    window = metrics.get("trace.window_s", 0.0)
    lines = [f"{'metric':<24} {'value':>14}  {'unit':<6} {'share':>7}",
             f"{'-' * 24} {'-' * 14}  {'-' * 6} {'-' * 7}"]
    for name, unit in units.items():
        value = metrics.get(name, 0.0)
        share = f"{100 * value / window:6.1f}%" if unit == "s" and window else ""
        lines.append(f"{name:<24} {value:>14.6g}  {unit:<6} {share:>7}")
    return "\n".join(lines)
