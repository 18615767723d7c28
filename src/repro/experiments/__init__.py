"""Declarative experiment layer: scenarios, staged plans, grid sweeps.

The paper's Fig. 1 flow (topology -> MCF variant -> schedule IR ->
simulator) expressed as data instead of glue code:

* :class:`Scenario` — one all-to-all experiment (topology x fabric x scheme
  plus chunking/simulation knobs) with canonical, per-stage content hashing;
* :class:`Plan` — executes a scenario as explicit synthesize -> lower ->
  validate -> simulate stages with per-stage artifact caching (memory +
  optional ``$REPRO_CACHE_DIR/stages`` disk tier, reusing the engine's
  :class:`~repro.engine.cache.SolutionCache`);
* :class:`SweepGrid` + :func:`run_sweep` — cartesian scenario grids executed
  in-process with streaming JSONL records, resumable by scenario hash;
* :func:`run_sweep_workers` (or ``run_sweep(workers=N)`` for several
  scenarios) — the same sweep on a pool of worker *processes*, one task per
  scenario; each synthesize key is solved once and its schedule handed to
  the scenarios sharing it, with the parent writing one JSONL file that
  :func:`merge_shards` leaves deduped and sorted by scenario hash.

The ``repro compare``, ``repro synthesize`` and ``repro sweep`` CLI
subcommands and the Fig. 3 / Fig. 4 / Table 1 benchmarks are all thin
layers over this module, so adding a topology x fabric combination is a data
change, not a code change.
"""

from .executor import merge_shards, run_sweep_workers
from .plan import Plan, PlanResult, configure_plan_cache, get_plan_cache, reset_plan_cache
from .scenario import (
    SCHEMES,
    STAGES,
    Scenario,
    available_scenario_schemes,
    resolve_scheme,
    scenario_schema_version,
)
from .sweep import (
    ScenarioResult,
    SweepGrid,
    completed_records,
    load_results,
    metrics_from_plan,
    result_from_plan,
    run_scenarios,
    run_sweep,
    sweep_stats,
    write_csv,
)

__all__ = [
    "Plan",
    "PlanResult",
    "configure_plan_cache",
    "get_plan_cache",
    "reset_plan_cache",
    "SCHEMES",
    "STAGES",
    "Scenario",
    "available_scenario_schemes",
    "resolve_scheme",
    "scenario_schema_version",
    "merge_shards",
    "run_sweep_workers",
    "ScenarioResult",
    "SweepGrid",
    "completed_records",
    "load_results",
    "metrics_from_plan",
    "result_from_plan",
    "run_scenarios",
    "run_sweep",
    "sweep_stats",
    "write_csv",
]
