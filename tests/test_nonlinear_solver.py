"""Newton and gradient descent for V(x) = y, plus the multistart probe."""

import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import volterra as vt
from volterra import nonlinear_solver
from volterra import (
    Grid,
    LineSearchStalled,
    MaxIterExceeded,
    ac_norm,
    apply_V,
    axpy,
    collocation_solve,
    from_callable,
    example1_kernel,
    linear_kernel,
    multistart_uniqueness,
    random_anchored,
    scalar_kernel,
    solve_gradient,
    solve_newton,
    sub,
    zero_kernel,
)
from volterra.nonlinear_solver import _ac_riesz


def _example2_demo():
    return vt.example2_kernel(
        w=lambda s: s,
        w_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        z=np.arctan,
        z_prime=lambda x: 1.0 / (1.0 + x * x),
        A=1.0,
        B=0.0,
        T=0.9,
    )


class TestNewton:
    def test_zero_kernel_returns_rhs(self, unit_grid, rng):
        y = random_anchored(unit_grid, 1, rng)
        x, rep = solve_newton(zero_kernel(), y, tol=1e-12)
        assert np.allclose(x.values, y.values, rtol=0, atol=1e-14)
        assert rep.converged

    def test_linear_resolvent_closed_form(self):
        g = Grid(0.0, 1.0, 500)
        y = from_callable(lambda t: t, g)
        x, rep = solve_newton(linear_kernel(0.5), y, tol=1e-10)
        exact = from_callable(lambda t: 2.0 * (1.0 - math.exp(-t / 2.0)), g)
        assert rep.converged
        assert ac_norm(sub(x, exact)) / ac_norm(exact) < 1e-4
        assert x.values[-1, 0] == approx(2.0 * (1.0 - math.exp(-0.5)), abs=1e-5)

    def test_manufactured_solution_recovered_to_solver_tolerance(self, rng):
        # y := V(x*) makes x* the exact solution of the discrete system
        g = Grid(0.0, 1.0, 120)
        ker = example1_kernel(1.0)
        x_star = from_callable(lambda t: t * (1.0 - t / 2.0), g)
        y = apply_V(ker, x_star)
        x, rep = solve_newton(ker, y, tol=1e-12)
        assert rep.converged
        assert ac_norm(sub(x, x_star)) < 1e-10

    def test_residual_history_decreases(self):
        g = Grid(0.0, 1.0, 100)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        x, rep = solve_newton(ker, y, tol=1e-12)
        hist = rep.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert rep.iterations == len(hist) - 1

    def test_budget_exhaustion_raises_with_partial_report(self):
        g = Grid(0.0, 1.0, 60)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        with pytest.raises(MaxIterExceeded) as err:
            solve_newton(ker, y, tol=1e-15, max_iter=1)
        rep = err.value.report
        assert rep is not None
        assert rep.iterations == 1
        assert not rep.converged

    def test_needs_no_time_derivatives(self):
        # the merit is the residual itself: no v_t or v_tx is evaluated
        def refuse(t, tau, x):
            raise AssertionError("Newton evaluated a time derivative")

        g = Grid(0.0, 1.0, 200)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: np.sin(5.0 * t), g)
        x, rep = solve_newton(replace(ker, v_t=refuse, v_tx=refuse), y, tol=1e-10)
        x_ref, _ = solve_newton(ker, y, tol=1e-10)
        assert rep.converged
        assert rep.functional_history == []
        assert np.array_equal(x.values, x_ref.values)

    def test_damped_steps_on_a_stiff_kernel(self, monkeypatch):
        # v = 20 atan(5x) overshoots at full steps; the accepted steps are
        # the last trial of each iteration
        trials = []

        def record(s, direction, x):
            trials[-1].append(s)
            return axpy(s, direction, x)

        def solve(kernel, x0, g):
            trials.append([])
            return collocation_solve(kernel, x0, g)

        monkeypatch.setattr(nonlinear_solver, "axpy", record)
        monkeypatch.setattr(nonlinear_solver, "collocation_solve", solve)
        ker = scalar_kernel(lambda t, tau, x: 20.0 * np.arctan(5.0 * x),
                            lambda t, tau, x: 0.0 * x,
                            lambda t, tau, x: 100.0 / (1.0 + 25.0 * x * x),
                            lambda t, tau, x: 0.0 * x)
        y = from_callable(lambda t: np.sin(6.0 * t), Grid(0.0, 1.0, 200))
        _, rep = solve_newton(ker, y, tol=1e-10)
        steps = [t[-1] for t in trials]
        assert rep.converged
        assert len(steps) == rep.iterations == 10
        assert min(steps) < 1.0
        hist = rep.residual_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_custom_initial_guess(self, rng):
        g = Grid(0.0, 1.0, 100)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        x0 = random_anchored(g, 1, rng, norm=5.0)
        x, rep = solve_newton(ker, y, x_init=x0, tol=1e-10, max_iter=50)
        x_ref, _ = solve_newton(ker, y, tol=1e-10)
        assert ac_norm(sub(x, x_ref)) < 1e-8


class TestGradient:
    def test_zero_kernel_converges_immediately(self, unit_grid, rng):
        # F = half the squared distance to y; the lifted gradient points at y
        y = random_anchored(unit_grid, 1, rng)
        x, rep = solve_gradient(zero_kernel(), y, tol=1e-8)
        assert rep.converged
        assert rep.iterations <= 2
        assert ac_norm(sub(x, y)) < 1e-8

    def test_matches_newton_on_linear_problem(self):
        g = Grid(0.0, 1.0, 200)
        ker = linear_kernel(0.5)
        y = from_callable(lambda t: t, g)
        xg, repg = solve_gradient(ker, y, tol=1e-8, max_iter=500)
        xn, _ = solve_newton(ker, y, tol=1e-12)
        assert repg.converged
        assert ac_norm(sub(xg, xn)) / ac_norm(xn) < 1e-4

    def test_matches_newton_on_log_kernel(self):
        g = Grid(0.0, 1.0, 100)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        xg, repg = solve_gradient(ker, y, tol=1e-7, max_iter=500)
        xn, _ = solve_newton(ker, y, tol=1e-12)
        assert repg.converged
        assert ac_norm(sub(xg, xn)) / ac_norm(xn) < 1e-3

    def test_functional_history_decreases(self):
        g = Grid(0.0, 1.0, 100)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        _, rep = solve_gradient(ker, y, tol=1e-7, max_iter=500)
        hist = rep.functional_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_budget_exhaustion_raises(self, unit_grid):
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, unit_grid)
        with pytest.raises(MaxIterExceeded):
            solve_gradient(ker, y, tol=1e-13, max_iter=2)


    @pytest.mark.parametrize("dim", [1, 2])
    def test_riesz_representative(self, dim):
        # <a, h>_AC = <g, h> for every h, and a agrees with the banded
        # solve of the pinned-left stiffness system L a = g
        from scipy.linalg import solveh_banded

        g = Grid(0.0, 1.0, 4000)
        rng = np.random.default_rng(dim)
        g_nodes = rng.standard_normal((g.n_cells + 1, dim))
        a = _ac_riesz(g, g_nodes)
        assert np.all(a.values[0] == 0.0)
        for _ in range(3):
            h = random_anchored(g, dim, rng)
            inner_ac = (np.diff(a.values, axis=0) * np.diff(h.values, axis=0)).sum() / g.delta
            assert inner_ac == approx((g_nodes * h.values).sum(), rel=1e-10)
        d = g.delta
        ab = np.zeros((2, g.n_cells))
        ab[0, 1:] = -1.0 / d
        ab[1, :] = 2.0 / d
        ab[1, -1] = 1.0 / d
        banded = solveh_banded(ab, g_nodes[1:], lower=False)
        assert np.abs(a.values[1:] - banded).max() <= 1e-10 * np.abs(banded).max()


class TestMultistart:
    def test_unique_solution_has_tiny_spread(self):
        g = Grid(0.0, 1.0, 200)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        best, rep = multistart_uniqueness(ker, y, n_starts=4, tol=1e-10, seed=3)
        assert rep.converged
        assert rep.failed_starts == []
        assert rep.multistart_spread < 1e-8
        x_ref, _ = solve_newton(ker, y, tol=1e-10)
        assert ac_norm(sub(best, x_ref)) < 1e-8

    def test_convolution_demo_kernel(self):
        g = Grid(0.0, 0.9, 150)
        y = from_callable(lambda t: t, g)
        best, rep = multistart_uniqueness(_example2_demo(), y, n_starts=3,
                                          tol=1e-10, seed=1)
        assert rep.converged
        assert rep.multistart_spread < 1e-8

    def test_deterministic_given_seed(self):
        g = Grid(0.0, 1.0, 80)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        a, ra = multistart_uniqueness(ker, y, n_starts=3, tol=1e-10, seed=7)
        b, rb = multistart_uniqueness(ker, y, n_starts=3, tol=1e-10, seed=7)
        assert np.array_equal(a.values, b.values)
        assert ra.multistart_spread == rb.multistart_spread

    def test_failed_starts_are_recorded_not_raised(self):
        g = Grid(0.0, 1.0, 60)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        best, rep = multistart_uniqueness(ker, y, n_starts=3, tol=1e-15,
                                          max_iter=1, seed=0)
        assert rep.failed_starts == [0, 1, 2]
        assert not rep.converged
        assert best is None

    def test_requires_at_least_two_starts(self, unit_grid):
        y = from_callable(lambda t: t, unit_grid)
        with pytest.raises(ValueError):
            multistart_uniqueness(zero_kernel(), y, n_starts=1)


def test_report_serializes(unit_grid):
    y = from_callable(lambda t: t, unit_grid)
    _, rep = solve_newton(linear_kernel(0.5), y, tol=1e-10)
    d = rep.to_dict()
    assert d["method"] == "newton"
    assert d["converged"] is True
    assert isinstance(d["residual_history"], list)
