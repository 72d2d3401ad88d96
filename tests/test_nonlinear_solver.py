"""Newton and gradient descent for V(x) = y, plus the multistart probe."""

import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import volterra as vt
from volterra import nonlinear_solver, quadrature
from volterra import (
    Grid,
    GridFunction,
    KernelContract,
    KernelSpec,
    LineSearchStalled,
    MaxIterExceeded,
    SolverError,
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
    solve_march,
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


def _stiff(c, kappa):
    # v = c atan(kappa x): global Newton needs 10, 26, 49 and 99 iterations
    # for (c, kappa) = (20, 5), (100, 20), (200, 50), (500, 100) on sin 6t
    return scalar_kernel(lambda t, tau, x: c * np.arctan(kappa * x),
                         lambda t, tau, x: 0.0 * x,
                         lambda t, tau, x: c * kappa / (1.0 + (kappa * x) ** 2),
                         lambda t, tau, x: 0.0 * x)


def _nan_after_half(values):
    # an evaluator that breaks the kernel contract for t > 1/2
    def f(t, tau, x):
        out = values(t, tau, x)
        late = np.asarray(t) > 0.5
        return np.where(late.reshape(late.shape + (1,) * (out.ndim - late.ndim)), np.nan, out)

    return f


def _dim_kernel(dim, broken):
    # v = 0.3 x, with the evaluator named by broken non-finite for t > 1/2
    def v(t, tau, x):
        return 0.3 * np.broadcast_to(x, np.broadcast_shapes(np.shape(t), np.shape(tau)) + (dim,))

    def v_x(t, tau, x):
        shape = np.broadcast_shapes(np.shape(t), np.shape(tau)) + (dim, dim)
        return np.broadcast_to(0.3 * np.eye(dim), shape)

    ev = {"v": v, "v_x": v_x}
    ev[broken] = _nan_after_half(ev[broken])
    return KernelSpec(dim=dim, v=ev["v"], v_t=None, v_x=ev["v_x"], v_tx=None)


def _check_march(ker, y, tol=1e-10):
    # the march solves to its rounding floor; Newton, run to 1e-12, is
    # the reference (at 1e-10 it may stop with a residual near 1e-10)
    x, rep = solve_march(ker, y, tol=tol)
    x_ref, _ = solve_newton(ker, y, tol=1e-12)
    measured = ac_norm(sub(y, apply_V(ker, x)))
    assert rep.method == "march" and rep.converged
    assert rep.residual_history == [approx(measured, abs=1e-12)]
    assert max(rep.residual_history[0], measured) <= tol
    assert ac_norm(sub(x, x_ref)) <= 1e-12


class TestMarch:
    @pytest.mark.parametrize("n_cells", [100, 500, 2000])
    @pytest.mark.parametrize("a_bar", [0.5, 1.0, 1.5, 2.0])
    def test_agrees_with_newton_on_example1(self, a_bar, n_cells):
        g = Grid(0.0, 1.0, n_cells)
        for f in (lambda t: t, lambda t: np.sin(5.0 * t), lambda t: 3.0 * t * t):
            _check_march(example1_kernel(a_bar), from_callable(f, g))

    @pytest.mark.parametrize("n_cells", [100, 500])
    def test_generic_dim_two_kernel(self, n_cells):
        # the linear kernel without its lag factors takes the generic route
        ker = replace(linear_kernel(0.7, 2), lag=None)
        g = Grid(0.0, 1.0, n_cells)
        t = g.nodes
        for values in (np.stack([t, np.sin(5.0 * t)], axis=1), np.stack([3.0 * t * t, t], axis=1)):
            _check_march(ker, GridFunction(g, values))

    @pytest.mark.parametrize("leaf, n_cells", [(4, 37), (64, 500)])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_lag_kernels_march_like_their_generic_twin(self, monkeypatch, dim, leaf, n_cells):
        # the Toeplitz route merges the same cells into the same leaves;
        # its evaluators are removed, so it reads the lag factors alone.
        # Each march stops at its own rounding floor, so the two agree
        # to 1e-13 of the size of x, not absolutely.
        monkeypatch.setattr(quadrature, "_LEAF", leaf)
        mix = np.array([[1.0, 0.3], [-0.2, 0.8]])[:dim, :dim]
        lag = vt.lag_kernel(w=lambda s: np.sin(2.0 * s) + s * s,
                            w_prime=lambda s: 2.0 * np.cos(2.0 * s) + 2.0 * s,
                            z=lambda x: np.tanh(x @ mix.T),
                            z_prime=lambda x: (1.0 / np.cosh(x @ mix.T) ** 2)[..., :, None] * mix,
                            dim=dim)
        t = Grid(0.0, 1.3, n_cells).nodes
        y = GridFunction(Grid(0.0, 1.3, n_cells),
                         np.stack([np.sin(5.0 * t), t * t], axis=1)[:, :dim])
        x, rep = solve_march(replace(lag, v=None, v_t=None, v_x=None, v_tx=None), y)
        x_twin, rep_twin = solve_march(replace(lag, lag=None), y)
        assert rep.method == "march" and rep.converged
        assert rep.iterations == rep_twin.iterations
        assert ac_norm(sub(x, x_twin)) <= 1e-13 * ac_norm(x)
        assert ac_norm(sub(y, apply_V(lag, x))) <= 1e-10

    def test_initial_guess_is_honoured(self, rng):
        g = Grid(0.0, 1.0, 300)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: np.sin(5.0 * t), g)
        x, rep = solve_march(ker, y)
        # from its own solution every leaf is already at its floor
        x_again, rep_again = solve_march(ker, y, x_init=x)
        assert rep_again.iterations == 0
        assert np.array_equal(x_again.values, x.values)
        x_far, rep_far = solve_march(ker, y, x_init=random_anchored(g, 1, rng, norm=5.0))
        assert rep_far.iterations > rep.iterations
        assert ac_norm(sub(x_far, x)) <= 1e-12

    @pytest.mark.parametrize("c, kappa", [(20.0, 5.0), (100.0, 20.0), (200.0, 50.0)])
    def test_stiff_kernels_converge(self, c, kappa):
        ker = _stiff(c, kappa)
        y = from_callable(lambda t: np.sin(6.0 * t), Grid(0.0, 1.0, 200))
        x, rep = solve_march(ker, y)
        assert rep.converged
        assert ac_norm(sub(y, apply_V(ker, x))) <= 1e-10

    def test_stiffest_kernel_fails_typed_like_newton(self):
        ker = _stiff(500.0, 100.0)
        y = from_callable(lambda t: np.sin(6.0 * t), Grid(0.0, 1.0, 200))
        with pytest.raises(SolverError):
            solve_newton(ker, y)
        with pytest.raises(MaxIterExceeded, match="leaf at node 1:") as err:
            solve_march(ker, y)
        rep = err.value.report
        assert rep.method == "march" and not rep.converged
        assert rep.iterations == 50
        assert rep.residual_history[0] > 1e-10

    def test_stalled_leaf_is_named(self, monkeypatch):
        # v = 0 but v_x claims diagonal blocks of -1 for t > 1/2: the
        # steps of the leaf [9, 13) are no descent directions
        monkeypatch.setattr(quadrature, "_LEAF", 4)
        g = Grid(0.0, 1.0, 16)
        ker = scalar_kernel(lambda t, tau, x: 0.0 * x, lambda t, tau, x: 0.0 * x,
                            lambda t, tau, x: np.where(t > 0.5, -64.0, 0.0) + 0.0 * x,
                            lambda t, tau, x: 0.0 * x)
        with pytest.raises(LineSearchStalled, match="leaf at node 9:") as err:
            solve_march(ker, from_callable(lambda t: t, g), x_init=vt.zeros(g))
        assert not err.value.report.converged

    def test_walks_the_triangle_about_once(self):
        # the history walk is N(N+1)/2 v samples in all; the leaves' own
        # triangles add one trial per local step, v_x only those steps
        counts = {"v": 0, "v_x": 0}

        def counted(name, f):
            def ev(t, tau, x):
                counts[name] += np.broadcast(np.asarray(t), np.asarray(tau)).size
                return f(t, tau, x)
            return ev

        ker = example1_kernel(1.0)
        ker = replace(ker, v=counted("v", ker.v), v_x=counted("v_x", ker.v_x))
        N = 2000
        _, rep = solve_march(ker, from_callable(lambda t: t, Grid(0.0, 1.0, N)))
        triangle = N * (N + 1) // 2
        assert rep.converged
        assert counts["v"] <= 1.05 * triangle
        assert counts["v_x"] <= 0.05 * triangle

    def test_nonfinite_sample_next_to_the_diagonal(self):
        # only the samples at t - tau = delta/2 are nan: every row of the
        # first leaf, and no history, sees one
        g = Grid(0.0, 1.0, 16)
        ker = scalar_kernel(lambda t, tau, x: np.where(t - tau < 0.05, np.nan, 0.3 * x),
                            lambda t, tau, x: 0.0 * x,
                            lambda t, tau, x: 0.3 + 0.0 * x,
                            lambda t, tau, x: 0.0 * x)
        with pytest.raises(KernelContract, match="node 1 "):
            solve_march(ker, from_callable(lambda t: t, g))

    def test_tol_below_the_rounding_floor_raises(self):
        g = Grid(0.0, 1.0, 500)
        with pytest.raises(LineSearchStalled, match="rounding floor") as err:
            solve_march(example1_kernel(1.0), from_callable(lambda t: t, g), tol=1e-15)
        rep = err.value.report
        assert not rep.converged
        assert 1e-15 < rep.residual_history[0] < 1e-12

    def test_rejects_bad_tolerance(self, unit_grid):
        y = from_callable(lambda t: t, unit_grid)
        with pytest.raises(ValueError):
            solve_march(example1_kernel(1.0), y, tol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("solve, broken", [("collocation", "v_x"), ("march", "v"),
                                           ("march", "v_x")])
def test_nonfinite_kernel_samples_raise_kernel_contract(dim, solve, broken):
    # node 9 is the first node past t = 1/2 on 16 cells
    g = Grid(0.0, 1.0, 16)
    ker = _dim_kernel(dim, broken)
    t = g.nodes[:, None] * np.ones(dim)
    with pytest.raises(KernelContract, match="node 9 "):
        if solve == "collocation":
            collocation_solve(ker, GridFunction(g, t), GridFunction(g, t * t))
        else:
            solve_march(ker, GridFunction(g, t))


@pytest.mark.parametrize("solve", ["collocation", "march"])
def test_nonfinite_history_is_named(monkeypatch, solve):
    # samples nan for t - tau > 1/2 reach the leaf [9, 13) through its
    # history alone: its diagonal blocks and own cells stay finite
    monkeypatch.setattr(quadrature, "_LEAF", 4)

    def v(t, tau, x):
        return 0.3 * x

    def v_x(t, tau, x):
        return 0.3 + 0.0 * x

    def far(f):
        return lambda t, tau, x: np.where(t - tau > 0.5, np.nan, f(t, tau, x))

    y = from_callable(lambda t: t, Grid(0.0, 1.0, 16))
    with pytest.raises(KernelContract, match="history of the row at node 9 "):
        if solve == "collocation":
            collocation_solve(scalar_kernel(v, v, far(v_x), v_x), y, y)
        else:
            solve_march(scalar_kernel(far(v), v, v_x, v_x), y)


def test_overflowing_leaf_solution_raises_kernel_contract():
    # finite but huge off-diagonal samples: the leaf's solve overflows
    g = Grid(0.0, 1.0, 4)
    ker = scalar_kernel(lambda t, tau, x: 0.0 * x, lambda t, tau, x: 0.0 * x,
                        lambda t, tau, x: np.where(t - tau > 0.2, 1e300, 1.0) + 0.0 * x,
                        lambda t, tau, x: 0.0 * x)
    y = from_callable(lambda t: t, g)
    with pytest.raises(KernelContract, match="the solution at node"):
        collocation_solve(ker, y, y)


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

    def test_walks_v_tx_once_per_step(self):
        # the line-search slope is <gradient, direction>, so v_tx is
        # walked only by the gradient: N(N+1)/2 samples per step
        counts = {"v_tx": 0}

        def v_tx(t, tau, x):
            counts["v_tx"] += np.broadcast(np.asarray(t), np.asarray(tau)).size
            return ker.v_tx(t, tau, x)

        ker = example1_kernel(1.0)
        g = Grid(0.0, 1.0, 100)
        rng = np.random.default_rng(0)
        y = from_callable(lambda t: t, g) + random_anchored(g, 1, rng, norm=0.5)
        _, rep = solve_gradient(replace(ker, v_tx=v_tx), y, tol=1e-6)
        assert rep.converged and rep.iterations >= 2
        assert counts["v_tx"] == rep.iterations * 100 * 101 // 2

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
