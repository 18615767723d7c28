"""Fig. 10: topology comparison -- GenKautz vs the lower bound and other families.

Left panel: all-to-all time of degree-4 generalized Kautz graphs versus the
Theorem 1 lower bound, over a sweep of N.

Right panel: all-to-all time (normalized by the lower bound) of GenKautz,
2D tori, Xpander and random regular graphs at degree 4 and matched sizes.

Expected shape: GenKautz tracks the lower bound closely (ratio -> small
constant), expanders (GenKautz, Xpander, random regular) clearly beat the 2D
torus (~2x+ at larger N), and GenKautz is the best or tied-best expander.

Both panels are declared once in :data:`repro.report.specs.FIG10` -- the
spec ``repro report`` renders -- and executed here panel by panel through
:func:`repro.report.specs.run_panel`, then aggregated by the spec into the
figure's two tables.  Each all-to-all time is 1/F from the certified master
LP (the ``mcf-objective`` scheme), exactly what the paper's simulation
reports.  ``REPRO_BENCH_SCALE`` picks the spec's grid: N = 16, 36, 64 left
and 25, 64 right by default; the paper's N = 25, 64, 121, 256, 400 left and
25, 100, 225, 400 right at ``paper`` scale.
"""

from repro.report.specs import FIG10, run_panel


def test_fig10_topologies(benchmark, record, scale):
    def run_grid():
        results = []
        for panel in FIG10.panels(scale=scale):
            results.extend(run_panel(FIG10, panel).results.values())
        return FIG10.aggregate(results, scale=scale)

    out = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    assert not out.errors, out.errors
    tables = {table.name: table for table in out.tables}
    for name in ("left", "right"):
        record("fig10_topologies", tables[name].text)

    left = tables["left"].rows
    for n, t, bound, ratio in left:
        assert t >= bound - 1e-9
        assert ratio <= 2.0
    # The ratio does not blow up with N (near-optimal family).
    assert left[-1][3] <= left[0][3] + 0.5

    per_size = {}
    for family, n, _t, ratio in tables["right"].rows:
        per_size.setdefault(n, {})[family] = ratio
    for n, per_family in per_size.items():
        # Expanders beat the torus whenever the torus exists at this size.
        if "2D Torus" in per_family:
            assert per_family["GenKautz"] < per_family["2D Torus"]
        # GenKautz is the best (or tied-best) expander.
        for other in ("Xpander", "Random Regular"):
            if other in per_family:
                assert per_family["GenKautz"] <= per_family[other] * 1.05
    largest = per_size[max(per_size)]
    if "2D Torus" in largest:
        assert largest["2D Torus"] / largest["GenKautz"] >= 1.3
