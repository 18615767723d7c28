"""Command-line interface for schedule synthesis, simulation and comparison.

Mirrors the tool chain a user of the paper's system would drive:

* ``repro topology``    -- build a topology from a spec and print its properties;
* ``repro synthesize``  -- synthesise an all-to-all schedule (Fig. 1 pipeline)
  and optionally write the lowered XML;
* ``repro simulate``    -- run a synthesised schedule on the simulated fabric
  across a buffer sweep and print the throughput series;
* ``repro compare``     -- compare several schemes on one topology (Fig. 8 style);
* ``repro cluster``     -- co-simulate multi-job traces (compute/comm phases,
  stochastic arrivals, placement policies) sharing one fabric, reporting
  per-job slowdown, makespan and fabric utilization;
* ``repro robustness`` -- inject timed fabric failures with online rerouting
  and search the worst-case k-link failure set;
* ``repro sweep``       -- run a declarative scenario grid (topology x scheme x
  fabric x ...) with streaming JSONL results, resumable by scenario hash;
* ``repro report``      -- regenerate the paper's figures/tables as a
  provenance-stamped report directory (see ``docs/cli.md``).

Topology specs are compact strings such as ``genkautz:d=4,n=24``,
``torus:dims=3x3x3``, ``hypercube:dim=3``, ``bipartite:left=4,right=4``,
``xpander:d=4,lift=5``, ``rrg:d=4,n=20,seed=1``.

Run ``python -m repro.cli --help`` for the full usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, List, Optional, Sequence

from . import obs
from .analysis import format_engine_footer, format_table
from .baselines import ILP_BOUNDED_PARAMS
from .experiments import (
    Plan,
    Scenario,
    SweepGrid,
    available_scenario_schemes,
    run_sweep,
    sweep_stats,
    write_csv,
)
from .routing import lash_sequential_assign
from .schedule import LinkSchedule, RoutedSchedule, compile_to_msccl_xml, compile_to_ompi_xml
from .topology import Topology, from_spec, properties

__all__ = ["build_topology", "main"]


def build_topology(spec: str) -> Topology:
    """Build a topology from a spec string (alias of :func:`repro.topology.from_spec`)."""
    return from_spec(spec)


def _buffer_list(spec: str) -> List[float]:
    return [float(int(x)) for x in spec.split(",") if x]


def _apply_set_args(items, base: dict) -> dict:
    """Fold repeatable ``--set FIELD=VALUE`` flags into a scenario field dict."""
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"malformed --set {item!r} (expected field=value)")
        key, value = item.split("=", 1)
        base[key.strip()] = value.strip()
    return base


def _scenarios(args: argparse.Namespace, axis: str, values: Sequence[Optional[str]],
               **fields) -> List[Scenario]:
    """The scenarios a one-schedule command's flags describe, one per ``values`` entry.

    Each scenario is the positional topology, ``--scheme``, ``--fabric``,
    the command's own ``fields`` and ``axis`` set to its value (a
    ``--trace`` or ``--faults`` spec), with ``--set`` applied last so it
    overrides any of them.
    """
    base = {"scheme": args.scheme, "fabric": args.fabric, **fields}
    if args.topology:
        base["topology"] = args.topology
    scenarios = []
    for value in values:
        data = _apply_set_args(args.set, {**base, axis: value})
        if "topology" not in data:
            raise ValueError("no topology: pass it positionally or via --set topology=...")
        scenarios.append(Scenario.from_dict(data))
    return scenarios


def _run_table(args: argparse.Namespace, scenarios: List[Scenario],
               name: Callable[[Scenario], str], headers: List[str],
               cells: Callable[[dict], list], title: str,
               csv: Optional[str] = None) -> Optional[list]:
    """Run ``scenarios`` through :func:`run_sweep` and print one row per scenario.

    A row is the scenario's ``name``, its status (``ok``, ``resumed`` or
    ``error``) and ``cells(metrics)``; an error row fills the cells with
    ``-`` and its message follows the table.  A died worker prints
    ``error: ...`` and returns ``None``: the records written so far stay
    resumable.  Otherwise the results come back for the footer.
    """
    try:
        results = run_sweep(scenarios, out_path=args.out, resume=args.resume,
                            workers=args.jobs)
    except RuntimeError as exc:
        print(f"error: {exc}")
        return None
    rows, failures = [], []
    for res in results:
        label = name(res.scenario)
        if res.status == "error":
            rows.append([label, "error"] + ["-"] * (len(headers) - 2))
            failures.append(f"error: {label}: {res.error or 'unknown error'}")
        else:
            rows.append([label, "resumed" if res.resumed else "ok", *cells(res.metrics)])
    print(format_table(headers, rows, title=title))
    for line in failures:
        print(line)
    if csv:
        write_csv(results, csv)
        print(f"wrote CSV to {csv}")
    if args.out:
        print(f"streaming results in {args.out}")
    return results


def _totals(noun: str, totals: dict) -> str:
    return (f"{noun}: {totals['ok']} ok / {totals['errors']} error "
            f"({totals['resumed']} resumed)")


def _rounded(value, digits: int):
    return "-" if value is None else round(float(value), digits)


def _fixed(value, digits: int) -> str:
    return "-" if value is None else f"{float(value):.{digits}f}"


def _gbps(metrics: dict) -> str:
    tps = metrics.get("throughput_bytes_per_s") or {}
    return " ".join(f"{tp / 1e9:.2f}" for tp in tps.values()) or "-"


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #
def _cmd_topology(args: argparse.Namespace) -> int:
    topo = build_topology(args.topology)
    stats = properties.summary(topo)
    rows = [[key, value] for key, value in stats.items()]
    print(format_table(["property", "value"], rows, title=f"{topo.name} (N={topo.num_nodes})"))
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    """The Fig. 1 pipeline as one ``auto`` scenario run through ``validate``.

    Synthesis and lowering go through the stage cache, so a repeat run with
    the same ``REPRO_CACHE_DIR`` solves no LP.
    """
    scenario = Scenario(topology=args.topology, scheme="auto", fabric=args.fabric,
                        host_bandwidth=args.host_bandwidth)
    result = Plan(scenario, n_jobs=args.jobs).run("validate")
    schedule, lowered = result.schedule, result.lowered
    if isinstance(lowered, LinkSchedule):
        xml = compile_to_msccl_xml(lowered)
        print(f"tsMCF schedule: {schedule.num_steps} steps, "
              f"total utilization {schedule.total_utilization:.3f} "
              f"(equivalent F = {schedule.equivalent_concurrent_flow():.4f})")
    elif isinstance(lowered, RoutedSchedule):
        routes = [tuple(p.nodes) for plist in schedule.paths.values() for p in plist]
        layers = lash_sequential_assign(routes)
        # The lowered artifact is shared through the stage cache: layer a copy.
        routed = dataclasses.replace(lowered, assignments=[
            dataclasses.replace(a, layer=layers.layer_of.get(a.route, 0))
            for a in lowered.assignments])
        xml = compile_to_ompi_xml(routed)
        print(f"path schedule ({schedule.meta.get('pipeline', 'pmcf')}): "
              f"F = {schedule.concurrent_flow:.4f}, "
              f"{len(routed.assignments)} chunk assignments, "
              f"{layers.num_layers} VC layer(s)")
    else:  # pragma: no cover - defensive
        raise TypeError(f"unexpected lowered schedule type {type(lowered)!r}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(xml)
        print(f"wrote {len(xml)} bytes of XML to {args.output}")
    _print_engine_stats()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Scenario-driven simulation: one scenario through the staged Plan pipeline.

    The scenario comes from the positional topology plus flags, with
    ``--set field=value`` overriding any :class:`~repro.experiments.Scenario`
    field — including the new axes: ``--overlap 2`` runs two copies of the
    collective concurrently, and a degraded fabric rides on the fabric spec
    (``--fabric "hpc:down=0~1"``).  With ``--out`` the run appends one sweep
    JSONL record (resumable with ``--resume``), so ``repro simulate`` output
    composes with the same tooling as ``repro sweep``.
    """
    (scenario,) = _scenarios(args, "faults", [args.faults],
                             buffers=tuple(_buffer_list(args.buffers)),
                             overlap=args.overlap)

    # One scenario: run_sweep gives its worker processes to the child LPs.
    results = run_sweep([scenario], out_path=args.out, resume=args.resume,
                        workers=args.jobs)
    res = results[0]
    if res.status == "error":
        print(f"error: {res.scenario.label()}: {res.error}")
        _print_engine_stats()
        return 1

    throughputs = res.metrics.get("throughput_bytes_per_s") or {}
    completions = res.metrics.get("completion_seconds") or {}
    overlap_times = res.metrics.get("overlap_completion_seconds") or {}
    fault_slowdowns = res.metrics.get("robustness_slowdowns") or {}
    headers = ["buffer bytes", "time (s)", "throughput GB/s"]
    if overlap_times:
        headers.append("per-collective (s)")
    if fault_slowdowns:
        headers.append("slowdown")
    rows = []
    for buf, tp in throughputs.items():
        row = [int(buf), completions.get(buf, ""), tp / 1e9]
        if overlap_times:
            row.append(" ".join(f"{t:.6f}" for t in overlap_times.get(buf, [])))
        if fault_slowdowns:
            row.append(round(float(fault_slowdowns.get(buf, 1.0)), 4))
        rows.append(row)
    status = "resumed" if res.resumed else "ok"
    fabric_label = (scenario.fabric if isinstance(scenario.fabric, str)
                    else scenario.fabric.name)
    title = (f"{scenario.label()} ({fabric_label} fabric, "
             f"overlap={scenario.overlap}) [{status}]")
    print(format_table(headers, rows, title=title))
    if fault_slowdowns:
        print(f"faults: {res.metrics.get('fault_events', 0)} fabric event(s), "
              f"{res.metrics.get('reroute_count', 0)} reroute(s), "
              f"{res.metrics.get('stranded_bytes', 0.0):.0f} stranded bytes")
    if args.out:
        print(f"record appended to {args.out}")
    _print_engine_stats()
    return 0


def _print_engine_stats(extra: str = "") -> None:
    """Cache/solve/simulator accounting footer, printed to stderr.

    stderr so that stdout stays byte-identical across repeated invocations
    (hit counts and wall-clock seconds legitimately differ run to run).
    The format itself lives in :func:`repro.analysis.format_engine_footer`,
    shared by every subcommand that prints the footer; the counts are this
    process's :mod:`repro.obs` counters (workers' included).
    """
    from .engine import get_engine

    print(format_engine_footer(obs.snapshot(), get_engine().backend_name, extra),
          file=sys.stderr)


def _cmd_compare(args: argparse.Namespace) -> int:
    """One scenario per scheme, plus an ``mcf-extp`` reference for "vs MCF".

    The reference shares its synthesize key with any ``mcf-extp`` entry, so
    the sweep solves it once.  "vs MCF" is the scheme's all-to-all time
    times the reference's concurrent flow F (the optimum is 1/F).
    """
    topo = build_topology(args.topology)
    schemes = args.schemes.split(",") if args.schemes else ["mcf-extp", "ewsp", "sssp", "native"]
    buffers = tuple(_buffer_list(args.buffers)) if args.buffers else ()
    base = Scenario(topology=topo, fabric=args.fabric, max_denominator=16)
    scenarios = [dataclasses.replace(
        base, scheme=name, buffers=buffers,
        scheme_params=ILP_BOUNDED_PARAMS if name.startswith("ilp-") else {})
        for name in schemes]
    scenarios.append(dataclasses.replace(base, scheme="mcf-extp"))
    *results, reference = run_sweep(scenarios, workers=args.jobs,
                                    through="simulate" if buffers else "synthesize")
    f_ref = reference.metrics.get("concurrent_flow")
    rows = []
    for name, res in zip(schemes, results):
        if res.error:
            rows.append([name, "error", "-", res.error[:40]])
            continue
        time = float(res.metrics.get("all_to_all_time", float("inf")))
        rows.append([name, time, "-" if f_ref is None else round(time * f_ref, 3),
                     _gbps(res.metrics)])
    print(format_table(["scheme", "all-to-all time", "vs MCF", "throughput GB/s"],
                       rows, title=f"Scheme comparison on {topo.name}"))
    _print_engine_stats()
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Multi-job cluster co-simulation: one scenario per ``--trace``.

    Each trace spec (``cluster:jobs=4:arrival=poisson~2000:placement=packed``)
    becomes one cluster scenario on the given topology/scheme/fabric, executed
    through :func:`~repro.experiments.run_sweep` — so ``--out`` emits
    sweep-compatible JSONL and ``--resume``/``--jobs`` behave exactly as in
    ``repro sweep``.  Traces share the synthesized schedule
    (the trace enters the simulate stage key only).
    """
    traces = args.trace or [
        "cluster:jobs=4:arrival=poisson~2000:placement=packed:seed=0"]
    scenarios = _scenarios(args, "cluster", traces, buffers=(args.buffer,))
    results = _run_table(
        args, scenarios, lambda s: s.cluster,
        ["trace", "status", "jobs", "makespan (s)", "slowdown p50",
         "slowdown p99", "utilization"],
        lambda m: [m.get("cluster_jobs", "-"), _fixed(m.get("makespan_seconds"), 6),
                   _rounded(m.get("job_slowdown_p50"), 3),
                   _rounded(m.get("job_slowdown_p99"), 3),
                   _rounded(m.get("fabric_utilization"), 3)],
        f"Cluster co-simulation on {scenarios[0].topology} ({scenarios[0].scheme})")
    if results is None:
        return 1
    totals = sweep_stats(results)
    _print_engine_stats(_totals("traces", totals))
    return 1 if totals["errors"] else 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    """Schedule robustness under dynamic fabric failures.

    Two modes compose in one invocation: each ``--faults`` spec becomes one
    fault-injection scenario executed through
    :func:`~repro.experiments.run_sweep` (sweep-compatible JSONL via
    ``--out``, resumable, fault specs share the synthesized schedule), and
    ``--adversarial K`` additionally searches the worst-case K-physical-link
    failure set against the schedule
    (:func:`~repro.faults.worst_case_failures`), printing the degradation
    table.  See docs/robustness.md for the fault grammar and knobs.
    """
    results = []
    if args.faults:
        scenarios = _scenarios(args, "faults", args.faults, buffers=(args.buffer,))
        results = _run_table(
            args, scenarios, lambda s: s.faults,
            ["faults", "status", "slowdown", "reroutes", "stranded B", "epochs"],
            lambda m: [_rounded(m.get("robustness_slowdown"), 4),
                       m.get("reroute_count", "-"), _fixed(m.get("stranded_bytes"), 0),
                       m.get("fault_events", "-")],
            f"Fault injection on {scenarios[0].topology} ({scenarios[0].scheme})")
        if results is None:
            return 1

    if args.adversarial:
        from .faults import worst_case_failures

        (scenario,) = _scenarios(args, "faults", [None], buffers=(args.buffer,))
        lowered = Plan(scenario, n_jobs=args.jobs).run("validate").lowered
        adv = worst_case_failures(
            lowered, scenario.buffers[0], k=args.adversarial,
            fabric=scenario.resolved_fabric(), at=args.at,
            candidates=args.candidates, mode=args.mode, seed=args.seed)
        rows = [["|".join(f"{u}~{v}" for u, v in ev["links"]),
                 "stranded" if ev["stranded"] else round(float(ev["slowdown"]), 4),
                 ev["reroute_count"], f"{float(ev['stranded_bytes']):.0f}"]
                for ev in adv.evaluations if len(ev["links"]) == adv.k]
        print(format_table(
            ["failed links", "slowdown", "reroutes", "stranded B"], rows,
            title=f"Worst-case {adv.k}-link failure on {scenario.topology} "
                  f"({adv.mode} over {args.candidates} candidates, "
                  f"at t={adv.at_seconds:.6f}s)"))
        worst = "|".join(f"{u}~{v}" for u, v in adv.worst_links)
        worst_label = ("disconnects the schedule" if adv.worst_stranded
                       else f"slowdown {adv.worst_slowdown:.4f}")
        print(f"worst case: down={worst} -> {worst_label}")

    totals = sweep_stats(results)
    _print_engine_stats(_totals("faults", totals) if results else "")
    return 1 if totals["errors"] else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = {}
    axes = {}
    if args.grid:
        grid = SweepGrid.from_file(args.grid)
        base, axes = dict(grid.base), dict(grid.axes)
    _apply_set_args(args.set, base)
    for item in args.axis or []:
        if "=" not in item:
            raise ValueError(f"malformed --axis {item!r} (expected field=v1;v2;...)")
        key, values = item.split("=", 1)
        # ';' separates axis values because topology specs contain commas.
        axes[key.strip()] = [v for v in values.split(";") if v]
    if not base and not axes:
        raise ValueError("empty sweep: provide --grid and/or --set/--axis fields")
    scenarios = SweepGrid(base=base, axes=axes).scenarios()
    results = _run_table(
        args, scenarios, Scenario.label,
        ["scenario", "status", "F", "all-to-all time", "throughput GB/s"],
        lambda m: [_rounded(m.get("concurrent_flow"), 4),
                   _rounded(m.get("all_to_all_time"), 3), _gbps(m)],
        f"Sweep: {len(scenarios)} scenario(s)", csv=args.csv)
    if results is None:
        return 1
    totals = sweep_stats(results)
    _print_engine_stats(
        f"{_totals('scenarios', totals)}; assemble {totals['assemble_seconds']:.3f}s "
        f"solve {totals['solve_seconds']:.3f}s")
    return 1 if totals["errors"] else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import available_specs, describe_registry, generate_report

    if args.list:
        print(describe_registry())
        return 0
    only = None
    if args.only is not None:
        only = [spec_id.strip() for spec_id in args.only.split(",") if spec_id.strip()]
        if not only:
            raise ValueError(f"--only {args.only!r} names no artifacts; "
                             f"available: {', '.join(available_specs())}")
        unknown = sorted(set(only) - set(available_specs()))
        if unknown:
            raise ValueError(f"unknown artifact(s) {unknown}; "
                             f"available: {', '.join(available_specs())}")
    summary = generate_report(out_dir=args.out, only=only, fast=args.fast,
                              resume=args.resume, workers=args.jobs)
    rows = [[sr.spec_id, sr.kind, sr.status, round(sr.seconds, 3),
             sr.num_scenarios, sr.num_resumed]
            for sr in summary.spec_results]
    print(format_table(["artifact", "kind", "status", "seconds", "scenarios",
                        "resumed"], rows,
                       title=f"Report: {len(summary.spec_results)} artifact(s)"))
    for err in summary.errors:
        print(f"error: {err}")
    print(f"wrote {summary.index_path}"
          + (" (+ index.html)" if len(summary.index_files) > 1 else ""))
    _print_engine_stats(
        f"artifacts: {sum(1 for sr in summary.spec_results if sr.status == 'ok')} ok "
        f"/ {sum(1 for sr in summary.spec_results if sr.status == 'error')} error; "
        f"new LP solves: {summary.provenance.get('new_lp_solves', 0)}")
    return 1 if summary.errors else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="All-to-all collective schedule synthesis for direct-connect topologies")
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topology", help="print properties of a topology spec")
    p_topo.add_argument("topology", help="topology spec, e.g. genkautz:d=4,n=24")
    p_topo.set_defaults(func=_cmd_topology)

    p_syn = sub.add_parser("synthesize", help="synthesise a schedule and emit XML")
    p_syn.add_argument("topology")
    p_syn.add_argument("--fabric", default="hpc",
                       help="fabric spec: hpc, ml, ideal, optionally with "
                            "params, e.g. hpc:forwarding_gbps=100")
    p_syn.add_argument("--host-bandwidth", type=float, default=None,
                       help="host injection bandwidth in link units (triggers Fig. 2 augmentation)")
    p_syn.add_argument("--output", "-o", default=None, help="write the lowered XML here")
    p_syn.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the child LPs")
    p_syn.set_defaults(func=_cmd_synthesize)

    # The four scenario commands share --set/--out/--resume/--jobs; the three
    # that run one schedule also share --scheme/--fabric.
    scenario_flags = argparse.ArgumentParser(add_help=False)
    scenario_flags.add_argument("--set", action="append", metavar="FIELD=VALUE",
                                help="set any scenario field (repeatable), e.g. "
                                     "--set max_denominator=16 --set fabric=ml")
    scenario_flags.add_argument("--out", "-o", default=None,
                                help="JSONL results file (appended to, one "
                                     "record per scenario)")
    scenario_flags.add_argument("--resume", action="store_true",
                                help="skip scenarios whose key already has an "
                                     "ok record in --out")
    scenario_flags.add_argument("--jobs", type=int, default=1,
                                help="worker processes, one task per scenario "
                                     "(a shared schedule is solved once); a "
                                     "single scenario gives them to its child LPs")
    schedule_flags = argparse.ArgumentParser(add_help=False, parents=[scenario_flags])
    schedule_flags.add_argument("--scheme", default="mcf-extp",
                                help="scheme name from: "
                                     f"{', '.join(available_scenario_schemes())} "
                                     "(cluster and robustness need a path-based one)")
    schedule_flags.add_argument("--fabric", default="hpc",
                                help="fabric spec, e.g. hpc, ml:link_gbps=50, "
                                     "hpc:down=0~1, hpc:scale=0~1:0.5")

    p_sim = sub.add_parser(
        "simulate", parents=[schedule_flags],
        help="simulate one scenario on the unified fluid engine",
        description="Run one declarative scenario through the staged Plan "
                    "pipeline and print its throughput series.  Supports the "
                    "overlap axis (--overlap N copies sharing the fabric), "
                    "degraded fabrics on the fabric spec, e.g. "
                    "--fabric 'hpc:down=0~1' or 'hpc:scale=0~1:0.5', and "
                    "dynamic failures via --faults "
                    "'faults:down=0~1@0.5ms:up@1.2ms'.  With --out, appends "
                    "one sweep-compatible JSONL record.")
    p_sim.add_argument("topology", nargs="?", default=None,
                       help="topology spec (or use --set topology=...)")
    p_sim.add_argument("--buffers", default="1048576,16777216,268435456",
                       help="comma-separated per-node buffer sizes in bytes")
    p_sim.add_argument("--overlap", type=int, default=1,
                       help="concurrent copies of the collective sharing the fabric")
    p_sim.add_argument("--faults", default=None, metavar="SPEC",
                       help="timed fabric-event spec for dynamic failures, "
                            "e.g. 'faults:down=0~1@0.5ms:up@1.2ms' "
                            "(see docs/robustness.md)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="compare schemes on a topology")
    p_cmp.add_argument("topology")
    p_cmp.add_argument("--schemes", default=None,
                       help="comma-separated scheme names from: "
                            f"{', '.join(available_scenario_schemes())}")
    p_cmp.add_argument("--buffers", default=None)
    p_cmp.add_argument("--fabric", default="hpc")
    p_cmp.add_argument("--jobs", type=int, default=1,
                       help="worker processes, one scheme each (output is "
                            "identical to serial)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_clu = sub.add_parser(
        "cluster", parents=[schedule_flags],
        help="co-simulate multi-job cluster traces on one fabric",
        description="Run one or more cluster trace specs "
                    "(cluster:jobs=4:arrival=poisson~2000:placement=packed) "
                    "over a synthesized schedule, with every live job's comm "
                    "phases max-min fair sharing the fabric.  Emits "
                    "sweep-compatible JSONL via --out; see docs/cluster.md "
                    "for the trace grammar and metric definitions.")
    p_clu.add_argument("topology", help="topology spec, e.g. hypercube:dim=3")
    p_clu.add_argument("--trace", action="append", metavar="SPEC",
                       help="cluster trace spec (repeatable; one scenario "
                            "each); default: a 4-job Poisson/packed trace")
    p_clu.add_argument("--buffer", type=float, default=float(2**20),
                       help="per-node all-to-all buffer bytes (used when a "
                            "trace has no buffer= field)")
    p_clu.set_defaults(func=_cmd_cluster)

    p_rob = sub.add_parser(
        "robustness", parents=[schedule_flags],
        help="evaluate schedule robustness under dynamic fabric failures",
        description="Run fault-injection scenarios "
                    "(faults:down=0~1@0.5ms:up@1.2ms) over a synthesized "
                    "schedule with online rerouting, and/or search the "
                    "worst-case k-link failure set (--adversarial K).  "
                    "Emits sweep-compatible JSONL via --out; see "
                    "docs/robustness.md for the fault grammar.")
    p_rob.add_argument("topology", help="topology spec, e.g. hypercube:dim=3")
    p_rob.add_argument("--faults", action="append", metavar="SPEC",
                       help="fault spec (repeatable; one scenario each), "
                            "e.g. 'faults:down=0~1@0.2ms:up@1ms:seed=7'")
    p_rob.add_argument("--adversarial", type=int, default=None, metavar="K",
                       help="also search the worst-case K-physical-link "
                            "failure set against the schedule")
    p_rob.add_argument("--buffer", type=float, default=float(2**20),
                       help="per-node all-to-all buffer bytes")
    p_rob.add_argument("--at", type=float, default=0.5,
                       help="adversarial failure instant as a fraction of "
                            "the zero-fault completion time (0 < at < 1)")
    p_rob.add_argument("--candidates", type=int, default=12,
                       help="adversarial candidate pool: heaviest-loaded "
                            "physical links considered")
    p_rob.add_argument("--mode", default="auto",
                       choices=["auto", "exhaustive", "greedy"],
                       help="adversarial search strategy (auto: exhaustive "
                            "while the subset count stays small)")
    p_rob.add_argument("--seed", type=int, default=0,
                       help="seed recorded with the adversarial search")
    p_rob.set_defaults(func=_cmd_robustness)

    p_swp = sub.add_parser(
        "sweep", parents=[scenario_flags],
        help="run a declarative scenario grid with streaming JSONL results",
        description="Expand a scenario grid (base fields x axes) and execute "
                    "every scenario through the staged Plan pipeline.  One "
                    "JSONL record is appended per completed scenario, so a "
                    "killed sweep is resumable with --resume.  Scheme names: "
                    + ", ".join(available_scenario_schemes()))
    p_swp.add_argument("--grid", default=None,
                       help='JSON grid spec file: {"base": {...}, "axes": {...}}')
    p_swp.add_argument("--axis", action="append", metavar="FIELD=V1;V2",
                       help="sweep a scenario field over ';'-separated values "
                            "(repeatable; ';' because topology specs contain "
                            "commas), e.g. --axis 'scheme=mcf-extp;ewsp'")
    p_swp.add_argument("--csv", default=None, help="also write a flat CSV here")
    p_swp.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser(
        "report",
        help="regenerate the paper's figures/tables as a provenance-stamped report",
        description="Run registered artifact specs (fig3, fig4, fig7, fig10, "
                    "table1, ...) through the scenario sweep pipeline and "
                    "render report/index.md with figures (matplotlib when "
                    "available, CSV/Markdown always), per-artifact timings, "
                    "git SHA and cache counters.")
    p_rep.add_argument("--only", default=None,
                       help="comma-separated artifact ids (default: all), "
                            "e.g. --only fig3,table1")
    p_rep.add_argument("--fast", action="store_true",
                       help="reduced grids sized for CI smoke runs")
    p_rep.add_argument("--out", "-o", default="report",
                       help="report output directory (default: report/)")
    p_rep.add_argument("--jobs", type=int, default=1,
                       help="worker processes per artifact sweep "
                            "(as in repro sweep; 1 runs in-process)")
    p_rep.add_argument("--resume", action="store_true",
                       help="reuse completed records from a previous run's "
                            "data/*.jsonl instead of starting fresh")
    p_rep.add_argument("--list", action="store_true",
                       help="list registered artifacts and exit")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
