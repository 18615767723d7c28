"""Tests for the block-based LP construction API and array-backed solutions.

Covers the guarantees of the block layer:

* a row-at-a-time build (one scalar block per variable, one call per
  constraint) and a batched build of the same LP produce identical
  ``to_arrays`` output (matrices, rhs, bounds, objective);
* vacuous block constraints are dropped, or raise when infeasible;
* array-backed solutions expose per-block views and sparsify for the cache;
* array-backed solutions round-trip through the engine's solution cache
  (memory and disk tiers).
"""

import numpy as np
import pytest

from repro.core.mcf_link import build_link_mcf
from repro.core.solver import LPBuilder, LPSolution
from repro.engine import Engine, SolutionCache, backends
from repro.engine.backends import ScipyHighsBackend
from repro.topology import hypercube


def _solve(lp, maximize=False):
    return ScipyHighsBackend().solve(lp, maximize=maximize)


def _legacy_build():
    """3-variable LP built row at a time: one scalar block per variable."""
    lp = LPBuilder()
    x0 = lp.add_variable_block("x0", 1, lb=0.0, ub=2.0, objective=1.0)[0]
    x1 = lp.add_variable_block("x1", 1, lb=0.5, objective=2.0)[0]
    x2 = lp.add_variable_block("x2", 1, lb=0.0, objective=3.0)[0]
    lp.add_le_block(rows=[0, 0], cols=[x0, x1], vals=[1.0, 1.0], rhs=[4.0])
    lp.add_le_block(rows=[0, 0], cols=[x1, x2], vals=[2.0, -1.0], rhs=[1.0])
    lp.add_eq_block(rows=[0, 0], cols=[x0, x2], vals=[1.0, 1.0], rhs=[2.0])
    return lp


def _block_build():
    """The same LP via one variable block and COO batches."""
    lp = LPBuilder()
    x = lp.add_variable_block("x", 3, lb=[0.0, 0.5, 0.0],
                              ub=[2.0, np.inf, np.inf],
                              objective=[1.0, 2.0, 3.0])
    lp.add_le_block(rows=[0, 0, 1, 1], cols=[x[0], x[1], x[1], x[2]],
                    vals=[1.0, 1.0, 2.0, -1.0], rhs=[4.0, 1.0])
    lp.add_eq_block(rows=[0, 0], cols=[x[0], x[2]], vals=[1.0, 1.0], rhs=[2.0])
    return lp


def _as_comparable(arrays):
    c, a_ub, b_ub, a_eq, b_eq, bounds = arrays
    out = [np.asarray(c), np.asarray(bounds)]
    for a, b in ((a_ub, b_ub), (a_eq, b_eq)):
        if a is None:
            out.extend([None, None, None, None])
        else:
            coo = a.tocoo()
            out.extend([coo.row, coo.col, coo.data, np.asarray(b)])
    return out


class TestBlockLegacyParity:
    """Row-at-a-time builds assemble exactly like batched ones."""

    def test_identical_to_arrays_output(self):
        for got, want in zip(_as_comparable(_block_build().to_arrays()),
                             _as_comparable(_legacy_build().to_arrays())):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_identical_optimum(self):
        a = _solve(_legacy_build(), maximize=True)
        b = _solve(_block_build(), maximize=True)
        assert b.objective == pytest.approx(a.objective)

    def test_mixed_build_matches_pure_builds(self):
        # A scalar block first, then a wider block, with row-at-a-time
        # constraints spanning both — one shared column/row space.
        lp = LPBuilder()
        x0 = lp.add_variable_block("x0", 1, lb=0.0, ub=2.0, objective=1.0)[0]
        x = lp.add_variable_block("rest", 2, lb=[0.5, 0.0],
                                  objective=[2.0, 3.0])
        lp.add_le_block(rows=[0, 0], cols=[x0, x[0]], vals=[1.0, 1.0],
                        rhs=[4.0])
        lp.add_le_block(rows=[0, 0], cols=[x[0], x[1]], vals=[2.0, -1.0],
                        rhs=[1.0])
        lp.add_eq_block(rows=[0, 0], cols=[x0, x[1]], vals=[1.0, 1.0],
                        rhs=[2.0])
        for got, want in zip(_as_comparable(lp.to_arrays()),
                             _as_comparable(_legacy_build().to_arrays())):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_duplicate_coo_entries_summed_deterministically(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 2)
        lp.add_le_block(rows=[0, 0, 0], cols=[x[0], x[0], x[1]],
                        vals=[1.0, 2.0, 1.0], rhs=[5.0])
        _, a_ub, b_ub, _, _, _ = lp.to_arrays()
        coo = a_ub.tocoo()
        np.testing.assert_array_equal(coo.col, [0, 1])
        np.testing.assert_array_equal(coo.data, [3.0, 1.0])
        assert b_ub[0] == 5.0


class TestVacuousBlockConstraints:
    def test_empty_rows_dropped(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 2, objective=1.0)
        # Middle row has only a zero coefficient -> vacuous, dropped.
        lp.add_le_block(rows=[0, 1, 2], cols=[x[0], x[1], x[1]],
                        vals=[1.0, 0.0, 1.0], rhs=[1.0, 9.0, 2.0])
        assert lp.num_constraints == 2
        sol = _solve(lp, maximize=True)
        assert sol.objective == pytest.approx(3.0)

    def test_entirely_empty_batch_is_a_no_op(self):
        lp = LPBuilder()
        lp.add_variable_block("x", 2, ub=1.0, objective=1.0)
        lp.add_le_block(rows=[], cols=[], vals=[], rhs=[0.0, 5.0])
        assert lp.num_constraints == 0
        assert _solve(lp, maximize=True).objective == pytest.approx(2.0)

    def test_infeasible_empty_le_row_raises(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 1)
        with pytest.raises(ValueError):
            lp.add_le_block(rows=[0], cols=[x[0]], vals=[0.0], rhs=[-1.0])

    def test_infeasible_empty_eq_row_raises(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 1)
        with pytest.raises(ValueError):
            lp.add_eq_block(rows=[0], cols=[x[0]], vals=[0.0], rhs=[3.0])

    def test_out_of_range_indices_rejected(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 2)
        with pytest.raises(ValueError):
            lp.add_le_block(rows=[5], cols=[x[0]], vals=[1.0], rhs=[1.0])
        with pytest.raises(ValueError):
            lp.add_le_block(rows=[0], cols=[99], vals=[1.0], rhs=[1.0])

    def test_duplicate_block_name_rejected(self):
        lp = LPBuilder()
        lp.add_variable_block("x", 2)
        with pytest.raises(ValueError):
            lp.add_variable_block("x", 3)


class TestArrayBackedSolution:
    def test_block_view_shape_and_values(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", (2, 2), ub=[[1.0, 2.0], [3.0, 4.0]],
                                  objective=1.0)
        assert x.shape == (2, 2)
        sol = _solve(lp, maximize=True)
        np.testing.assert_allclose(sol.block("x"), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(KeyError):
            sol.block("nope")

    def test_mixed_solution_keyed_and_block_access(self):
        # A named scalar (a one-element block, like the MCF formulations'
        # ``F``) next to a vector block: each reads back by name.
        lp = LPBuilder()
        lp.add_variable_block("y", 1, ub=5.0, objective=1.0)
        lp.add_variable_block("x", 2, ub=2.0, objective=1.0)
        sol = _solve(lp, maximize=True)
        assert sol.block("y")[0] == pytest.approx(5.0)
        np.testing.assert_allclose(sol.block("x"), [2.0, 2.0])


class TestNamedRowDuals:
    def _lp(self):
        # max x0 + x1 with x0 <= 1 (row "cap" 0), a vacuous row, and
        # x1 <= 2 (row "cap" 2): shadow prices 1, 0 (dropped row), 1.
        lp = LPBuilder()
        x = lp.add_variable_block("x", 2, objective=1.0)
        lp.add_le_block([0, 2], [x[0], x[1]], [1.0, 1.0], [1.0, 5.0, 2.0], name="cap")
        lp.add_le_block([0], [x[0]], [1.0], [3.0])
        return lp

    @pytest.mark.parametrize("ipm", [False, True])
    def test_duals_align_with_rhs(self, monkeypatch, ipm):
        if ipm:
            monkeypatch.setattr(backends, "IPM_MIN_VARIABLES", 0)
        sol = ScipyHighsBackend().solve(self._lp(), maximize=True)
        assert sol.info["method"] == ("highs-ipm" if ipm else "highs")
        np.testing.assert_allclose(sol.dual("cap"), [1.0, 0.0, 1.0], atol=1e-9)
        with pytest.raises(KeyError):
            sol.dual("nope")

    def test_duplicate_row_block_name_rejected(self):
        lp = self._lp()
        with pytest.raises(ValueError):
            lp.add_le_block([0], [0], [1.0], [1.0], name="cap")

    def test_duals_survive_portable_clone_and_pickle(self):
        import pickle

        sol = _solve(self._lp(), maximize=True)
        for copy in (sol.clone(), pickle.loads(pickle.dumps(sol))):
            np.testing.assert_allclose(copy.dual("cap"), sol.dual("cap"))


class TestDigest:
    @staticmethod
    def _lp(coeff=1.0, block="x", row_name=None):
        lp = LPBuilder()
        x = lp.add_variable_block(block, 2, objective=1.0)
        lp.add_le_block([0, 0], x, [coeff, 1.0], [4.0], name=row_name)
        return lp

    def test_equal_builds_share_a_digest(self):
        assert self._lp().digest() == self._lp().digest()

    @pytest.mark.parametrize("change", [
        {"coeff": 2.0}, {"block": "y"}, {"row_name": "cap"}])
    def test_any_change_moves_the_digest(self, change):
        # A coefficient, a block name and a row-block name each change what
        # a solution means, so each changes the digest.
        assert self._lp(**change).digest() != self._lp().digest()


class TestCacheRoundTrip:
    def test_memory_tier_round_trip_of_blocks(self):
        engine = Engine()
        fresh = engine.solve(build_link_mcf, hypercube(3), maximize=True)
        cached = engine.solve(build_link_mcf, hypercube(3), maximize=True)
        assert cached.info["cache"] == "hit"
        assert cached.objective == fresh.objective
        for name in ("F", "f"):
            np.testing.assert_array_equal(cached.block(name), fresh.block(name))

    def test_cached_solution_extraction_matches_fresh(self):
        # End to end: a cache-served solve yields the same FlowSolution.
        from repro.core import solve_link_mcf

        topo = hypercube(3)
        engine = Engine()
        import repro.engine.core as engine_core

        prev = engine_core._engine
        engine_core._engine = engine
        try:
            fresh = solve_link_mcf(topo)
            again = solve_link_mcf(topo)
        finally:
            engine_core._engine = prev
        assert again.meta["engine"]["cache"] == "hit"
        assert again.concurrent_flow == pytest.approx(fresh.concurrent_flow)
        assert again.flows == fresh.flows

    def test_eviction_still_accepts_plain_solutions(self):
        cache = SolutionCache(max_entries=2)
        for i in range(5):
            cache.put(f"key-{i}", LPSolution(objective=float(i)))
        assert cache.size == 2
