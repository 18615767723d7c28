"""Tests for the sparse LP builder (repro.core.solver) solved through a backend."""

import numpy as np
import pytest

from repro.core.solver import LPBuilder, SolverError
from repro.engine.backends import ScipyHighsBackend


def _solve(lp, maximize=False):
    return ScipyHighsBackend().solve(lp, maximize=maximize)


class TestBlockIndex:
    def test_lookup_and_keys(self):
        lp = LPBuilder()
        f = lp.add_variable_block("f", (2, 3))
        lp.add_variable_block("F", 1)
        np.testing.assert_array_equal(lp.block_index("f"), f)
        assert lp.block_index("F").tolist() == [6]
        assert lp.block_names() == ["F", "f"]
        with pytest.raises(KeyError):
            lp.block_index("missing")


class TestLPBuilder:
    def test_simple_maximization(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 2, objective=1.0)
        lp.add_le_block(rows=[0, 0, 1, 1], cols=[x[0], x[1], x[0], x[1]],
                        vals=[1.0, 2.0, 3.0, 1.0], rhs=[4.0, 6.0])
        sol = _solve(lp, maximize=True)
        # max x + y s.t. x+2y<=4, 3x+y<=6 -> x=1.6, y=1.2
        assert sol.objective == pytest.approx(2.8)
        np.testing.assert_allclose(sol.block("x"), [1.6, 1.2])

    def test_simple_minimization_with_ge(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 2, objective=[2.0, 3.0])
        lp.add_ge_block(rows=[0, 0], cols=[x[0], x[1]], vals=[1.0, 1.0], rhs=[10.0])
        sol = _solve(lp, maximize=False)
        assert sol.objective == pytest.approx(20.0)
        assert sol.block("x")[0] == pytest.approx(10.0)

    def test_equality_constraint(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 2, objective=1.0)
        lp.add_eq_block(rows=[0, 0], cols=[x[0], x[1]], vals=[1.0, 1.0], rhs=[5.0])
        sol = _solve(lp, maximize=False)
        assert sol.objective == pytest.approx(5.0)

    def test_upper_bound_on_variable(self):
        lp = LPBuilder()
        lp.add_variable_block("x", 1, ub=3.0, objective=1.0)
        sol = _solve(lp, maximize=True)
        assert sol.objective == pytest.approx(3.0)

    def test_infeasible_raises(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 1, objective=1.0)
        lp.add_le_block(rows=[0], cols=[x[0]], vals=[1.0], rhs=[1.0])
        lp.add_ge_block(rows=[0], cols=[x[0]], vals=[1.0], rhs=[2.0])
        with pytest.raises(SolverError):
            _solve(lp)

    def test_unbounded_raises(self):
        lp = LPBuilder()
        lp.add_variable_block("x", 1, objective=1.0)
        with pytest.raises(SolverError):
            _solve(lp, maximize=True)

    def test_empty_problem(self):
        sol = _solve(LPBuilder())
        assert sol.objective == 0.0
        assert sol.block_names() == []

    def test_zero_coefficient_terms_dropped(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 1, objective=1.0)
        lp.add_le_block(rows=[0], cols=[x[0]], vals=[0.0], rhs=[5.0])  # vacuous
        lp.add_le_block(rows=[0], cols=[x[0]], vals=[1.0], rhs=[2.0])
        assert lp.num_constraints == 1
        sol = _solve(lp, maximize=True)
        assert sol.objective == pytest.approx(2.0)

    def test_infeasible_empty_constraint_detected(self):
        lp = LPBuilder()
        x = lp.add_variable_block("x", 1)
        with pytest.raises(ValueError):
            lp.add_le_block(rows=[0], cols=[x[0]], vals=[0.0], rhs=[-1.0])
        with pytest.raises(ValueError):
            lp.add_eq_block(rows=[0], cols=[x[0]], vals=[0.0], rhs=[3.0])

    def test_constraint_and_variable_counts(self):
        lp = LPBuilder()
        a = lp.add_variable_block("a", 1)
        b = lp.add_variable_block("b", 1)
        lp.add_le_block(rows=[0], cols=[a[0]], vals=[1.0], rhs=[1.0])
        lp.add_eq_block(rows=[0], cols=[b[0]], vals=[1.0], rhs=[0.5])
        assert lp.num_variables == 2
        assert lp.num_constraints == 2
