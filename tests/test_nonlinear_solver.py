"""The march, Newton and the gradient route for V(x) = y, plus the multistart probe."""

import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import volterra as vt
from volterra import nonlinear_solver, operator, quadrature
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

    def test_stalled_line_search_raises_with_partial_report(self):
        # v = 0 but v_x claims -64 for t > 1/2, so the Newton directions
        # are wrong: one damped step lowers the residual, the next cannot
        g = Grid(0.0, 1.0, 16)
        ker = scalar_kernel(lambda t, tau, x: 0.0 * x, lambda t, tau, x: 0.0 * x,
                            lambda t, tau, x: np.where(t > 0.5, -64.0, 0.0) + 0.0 * x,
                            lambda t, tau, x: 0.0 * x)
        with pytest.raises(LineSearchStalled, match="no decrease above step") as err:
            solve_newton(ker, from_callable(lambda t: t, g), x_init=vt.zeros(g))
        rep = err.value.report
        assert rep.method == "newton" and not rep.converged
        assert rep.iterations == 1 and len(rep.residual_history) == 2
        assert rep.residual_history[1] < rep.residual_history[0]

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

        collocate = nonlinear_solver._collocate

        def solve(f, x0, g, eta):
            trials.append([])
            return collocate(f, x0, g, eta)

        monkeypatch.setattr(nonlinear_solver, "axpy", record)
        monkeypatch.setattr(nonlinear_solver, "_collocate", solve)
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

    @pytest.mark.parametrize("start, kernel_dim, error", [
        ("120 cells", 1, vt.GridMismatch),
        ("dim 2", 1, vt.DimMismatch),
        (None, 2, vt.DimMismatch),
    ])
    def test_mismatched_inputs_raise_before_any_walk(self, start, kernel_dim, error):
        calls = []

        def counted(fn):
            def evaluate(t, tau, x):
                calls.append(1)
                return fn(t, tau, x)
            return evaluate

        # the generic walk, whose every sample goes through the evaluators
        base = replace(linear_kernel(0.5, dim=kernel_dim), lag=None)
        ker = replace(base, **{k: counted(getattr(base, k)) for k in ("v", "v_t", "v_x", "v_tx")})
        y = from_callable(lambda t: t, Grid(0.0, 1.0, 100))
        x_init = {"120 cells": vt.zeros(Grid(0.0, 1.0, 120)),
                  "dim 2": vt.zeros(Grid(0.0, 1.0, 100), dim=2), None: None}[start]
        with pytest.raises(error):
            solve_newton(ker, y, x_init=x_init)
        assert calls == []


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


def _picard_step(kernel, x, y):
    # x_k - delta sum_{i<k} D_i at node k, D the defect of the merit at x,
    # summed cell by cell
    D = operator._merit(kernel, x, y)[1]
    vals = x.values.copy()
    acc = np.zeros(x.dim)
    for k in range(1, x.grid.n_cells + 1):
        acc = acc + D[k - 1]
        vals[k] = vals[k] - x.grid.delta * acc
    return GridFunction(x.grid, vals)


def _steepest_descent_step(kernel, x, y):
    # one step along -P g with the gradient route's line search: a trial
    # at s = 1, one parabolic refinement, then halvings until F decreases
    F, D = operator._merit(kernel, x, y)
    g = operator.functional_gradient(kernel, x, y, defect=D)
    direction = -1.0 * _ac_riesz(x.grid, g)
    slope = float(np.sum(g * direction.values))
    s = 1.0
    F_trial = vt.functional_F(kernel, axpy(s, direction, x), y)
    denom = F_trial - F - slope * s
    if denom > 0:
        s_star = -slope * s * s / (2.0 * denom)
        F_star = vt.functional_F(kernel, axpy(s_star, direction, x), y)
        if F_star < F_trial:
            s, F_trial = s_star, F_star
    while F_trial >= F:
        s *= 0.5
        F_trial = vt.functional_F(kernel, axpy(s, direction, x), y)
    return axpy(s, direction, x)


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


_POSITIVE = [
    (lambda k, y, v: solve_march(k, y, tol=v), "tol", "march"),
    (lambda k, y, v: solve_newton(k, y, tol=v), "tol", "newton"),
    (lambda k, y, v: solve_gradient(k, y, tol=v), "tol", "gradient"),
    (lambda k, y, v: vt.neumann_solve(k, y, y, tol=v), "tol", "neumann"),
    (lambda k, y, v: vt.directional_sensitivity(k, y, y, tol=v), "tol", "sensitivity"),
    (lambda k, y, v: vt.fd_discrepancy(k, y, y, y, epsilon=v), "epsilon", "fd"),
    (lambda k, y, v: vt.robustness_modulus(k, y, 2, delta=v), "delta", "robustness"),
    (lambda k, y, v: vt.estimate_l_rho(k, rho=v, samples=16), "rho", "l_rho"),
]
_POSITIVE_TOO = [
    (lambda k, y, v: vt.fd_sensitivity_check(k, y, y, epsilon=v), "epsilon", "fd_check"),
    (lambda k, y, v: multistart_uniqueness(k, y, 2, start_norm=v), "start_norm", "multistart"),
]


@pytest.mark.parametrize("call, name, value", [
    *(pytest.param(c, n, math.nan, id=i) for c, n, i in _POSITIVE),
    *(pytest.param(c, n, math.nan, id=f"{i}-nan") for c, n, i in _POSITIVE_TOO),
    *(pytest.param(c, n, math.inf, id=f"{i}-inf") for c, n, i in _POSITIVE + _POSITIVE_TOO),
    pytest.param(_POSITIVE_TOO[1][0], "start_norm", -1.0, id="multistart-negative"),
])
def test_nan_fails_the_positivity_guards(call, name, value):
    # nan <= 0 is false and inf > 0 is true: each guard must reject what is
    # not a finite number > 0, before the kernel is evaluated
    def unreachable(t, tau, x):
        raise AssertionError("the kernel was evaluated")

    kernel = scalar_kernel(unreachable, unreachable, unreachable, unreachable)
    y = from_callable(lambda t: t, Grid(0.0, 1.0, 8))
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        call(kernel, y, value)


@pytest.mark.parametrize("max_iter", [-1, 0, 2.5, True])
@pytest.mark.parametrize("call", [
    lambda k, y, n: solve_march(k, y, max_iter=n),
    lambda k, y, n: solve_newton(k, y, max_iter=n),
    lambda k, y, n: solve_gradient(k, y, max_iter=n),
    lambda k, y, n: vt.neumann_solve(k, y, y, tol=1e-10, max_iter=n),
], ids=["march", "newton", "gradient", "neumann"])
def test_an_iteration_budget_must_be_a_positive_integer(call, max_iter):
    # as in the config schema: an integer >= 1, and a bool is not one
    y = from_callable(lambda t: t, Grid(0.0, 1.0, 8))
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
        call(linear_kernel(0.5), y, max_iter)


_UNIT_BOUND = vt.NeumannBound.for_interval(1.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("call, name", [
    (lambda k, y, n: vt.estimate_l_rho(k, rho=1.0, samples=n), "samples"),
    (lambda k, y, n: vt.neumann_solve(k, y, y, tol=1e-10, samples=n), "samples"),
    (lambda k, y, n: vt.robustness_modulus(k, y, n_probes=n, delta=1e-3), "n_probes"),
    (lambda k, y, n: multistart_uniqueness(k, y, n_starts=n), "n_starts"),
    (lambda k, y, n: linear_kernel(0.5, dim=n), "dim"),
    (lambda k, y, n: zero_kernel(dim=n), "dim"),
    (lambda k, y, n: vt.iterate_bound(n, _UNIT_BOUND), "k"),
    (lambda k, y, n: vt.tail_bound(n, _UNIT_BOUND), "k"),
], ids=["l_rho", "neumann", "robustness", "multistart", "linear", "zero", "iterate_bound",
        "tail_bound"])
def test_a_count_must_be_an_integer(call, name, value):
    # the rule of max_iter: a float or a bool is not a count
    y = from_callable(lambda t: t, Grid(0.0, 1.0, 8))
    with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
        call(linear_kernel(0.5), y, value)


def test_counts_of_either_integer_kind_are_taken():
    y = from_callable(lambda t: t, Grid(0.0, 1.0, 8))
    for n in (2, np.int64(2)):
        assert vt.estimate_l_rho(linear_kernel(0.5), rho=1.0, samples=n) > 0
        assert vt.neumann_solve(linear_kernel(0.5), y, y, tol=1e-10, samples=n)[1].converged
        assert vt.robustness_modulus(zero_kernel(), y, n_probes=n, delta=1e-3) >= 0
        assert multistart_uniqueness(zero_kernel(), y, n_starts=n)[1].converged
        assert linear_kernel(0.5, dim=n).dim == zero_kernel(dim=n).dim == 2
        assert vt.iterate_bound(n, _UNIT_BOUND) == vt.iterate_bound(2, _UNIT_BOUND) > 0
        assert vt.tail_bound(n, _UNIT_BOUND) == vt.tail_bound(2, _UNIT_BOUND) > 0


def test_newton_converging_on_its_last_step_reports_converged():
    # a linear kernel's first Newton step solves the discrete system
    y = from_callable(lambda t: t, Grid(0.0, 1.0, 64))
    x, rep = solve_newton(linear_kernel(0.5), y, max_iter=1)
    assert rep.converged and rep.iterations == 1
    assert rep.residual_history[-1] <= 1e-10


@pytest.mark.parametrize("max_iter", [3, np.int64(3)], ids=["int", "numpy"])
def test_integer_budgets_of_either_kind_are_taken(max_iter):
    y = from_callable(lambda t: t, Grid(0.0, 1.0, 8))
    for solve in (solve_march, solve_newton, solve_gradient):
        assert solve(zero_kernel(), y, max_iter=max_iter)[1].converged
    assert vt.neumann_solve(zero_kernel(), y, y, tol=1e-10, max_iter=max_iter)[1].converged


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

    def test_a_stalled_line_search_raises_line_search_stalled(self, unit_grid):
        # F reaches its rounding floor above tol^2 = 1e-30 well inside the
        # budget: no step above the least one decreases F any more
        y = from_callable(lambda t: t, unit_grid)
        with pytest.raises(LineSearchStalled, match="no decrease above step") as err:
            solve_gradient(example1_kernel(1.0), y, tol=1e-15, max_iter=500)
        rep = err.value.report
        assert not rep.converged and 0 < rep.iterations < 500
        assert len(rep.functional_history) == rep.iterations + 1
        assert rep.functional_history[-1] > 1e-30 and len(rep.residual_history) == 1

    def test_a_direction_that_does_not_descend_raises_line_search_stalled(self, monkeypatch):
        # a zero gradient gives a zero direction, whose slope is 0: the
        # route stops at once, at the start, with the budget unused
        monkeypatch.setattr(nonlinear_solver, "functional_gradient",
                            lambda kernel, x, y, defect: np.zeros_like(x.values))
        y = from_callable(lambda t: t, Grid(0.0, 1.0, 100))
        with pytest.raises(LineSearchStalled, match="slope") as err:
            solve_gradient(_stiff(10.0, 3.0), y, tol=1e-6, max_iter=500)
        rep = err.value.report
        assert rep.iterations == 0 and len(rep.functional_history) == 1

    @staticmethod
    def _apply_V_points(monkeypatch) -> list:
        # the points at which solve_gradient calls apply_V, in order
        points, inner = [], nonlinear_solver.apply_V

        def counted(kernel, x):
            points.append(x)
            return inner(kernel, x)

        monkeypatch.setattr(nonlinear_solver, "apply_V", counted)
        return points

    def test_reports_the_residual_of_its_solution_by_one_apply_V(self, monkeypatch):
        # F per step is the functional history; the residual is walked
        # once, at the x returned
        points = self._apply_V_points(monkeypatch)
        g = Grid(0.0, 1.0, 200)
        rng = np.random.default_rng(3)
        y = from_callable(lambda t: t, g) + random_anchored(g, 1, rng, norm=0.5)
        ker = example1_kernel(1.0)
        x, rep = solve_gradient(ker, y, tol=1e-7)
        assert rep.converged and rep.iterations >= 3
        assert len(points) == 1 and points[0] is x
        assert rep.residual_history == [ac_norm(y - apply_V(ker, x))]
        assert len(rep.functional_history) == rep.iterations + 1

    def test_budget_exhaustion_reports_its_last_iterate(self, monkeypatch, unit_grid):
        points = self._apply_V_points(monkeypatch)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, unit_grid)
        with pytest.raises(MaxIterExceeded) as err:
            solve_gradient(ker, y, tol=1e-13, max_iter=2)
        rep = err.value.report
        [last] = points
        assert rep.iterations == 2 and not rep.converged
        assert vt.functional_F(ker, last, y) == rep.functional_history[-1]
        assert rep.residual_history == [ac_norm(y - apply_V(ker, last))]

    @pytest.mark.parametrize("smooth", [False, True])
    def test_walks_v_tx_once_per_step(self, smooth):
        # a Picard step walks no v_tx; a conjugate step walks it once, for
        # the gradient, since the line-search slope is <gradient,
        # direction>: N(N+1)/2 samples, or one gradient's worth when far
        # rectangles are interpolated in t.  On example1 the Picard steps
        # converge; on v = 10 atan(3x) the first Picard trial climbs, so
        # every step is a conjugate one
        counts = {"v_tx": 0}

        def counted(ker):
            def v_tx(t, tau, x):
                counts["v_tx"] += np.broadcast(np.asarray(t), np.asarray(tau)).size
                return ker.v_tx(t, tau, x)

            return replace(ker, v_tx=v_tx, smooth_in_t=smooth)

        g = Grid(0.0, 1.0, 100)
        rng = np.random.default_rng(0)
        y = from_callable(lambda t: t, g) + random_anchored(g, 1, rng, norm=0.5)
        _, rep = solve_gradient(counted(example1_kernel(1.0)), y, tol=1e-6)
        assert rep.converged and rep.iterations >= 2
        assert counts["v_tx"] == 0
        ker = counted(_stiff(10.0, 3.0))
        _, rep = solve_gradient(ker, y, tol=1e-6)
        assert rep.converged and rep.iterations >= 2
        if not smooth:
            assert counts["v_tx"] == rep.iterations * 100 * 101 // 2
        else:
            steps, counts["v_tx"] = counts["v_tx"], 0
            vt.functional_gradient(ker, y, y)
            assert counts["v_tx"] < 100 * 101 // 2
            assert steps == rep.iterations * counts["v_tx"]

    def test_defect_hand_over_changes_no_iterate(self, monkeypatch):
        # the gradient recomputes D when it ignores the one handed over
        g = Grid(0.0, 1.0, 200)
        rng = np.random.default_rng(3)
        y = from_callable(lambda t: t, g) + random_anchored(g, 1, rng, norm=0.5)
        ker = example1_kernel(1.0)
        x, rep = solve_gradient(ker, y, tol=1e-7)
        gradient = nonlinear_solver.functional_gradient
        monkeypatch.setattr(nonlinear_solver, "functional_gradient",
                            lambda kernel, x, y, defect: gradient(kernel, x, y))
        x_own, rep_own = solve_gradient(ker, y, tol=1e-7)
        assert rep.iterations >= 3
        assert np.array_equal(x.values, x_own.values)
        assert rep.residual_history == rep_own.residual_history
        assert rep.functional_history == rep_own.functional_history

    def test_walks_v_t_once_per_merit(self, monkeypatch):
        # each merit walks v_t once for its defect; the gradient reuses the
        # accepted one and evaluates no v_t sample
        counts = {"walks": 0, "merits": 0, "samples": 0, "in_gradient": 0}

        def v_t(t, tau, x):
            counts["samples"] += np.broadcast(np.asarray(t), np.asarray(tau)).size
            return base.v_t(t, tau, x)

        base = example1_kernel(1.0)
        ker = replace(base, v_t=v_t)
        inner, merit, gradient = operator.inner_integral, nonlinear_solver._merit, \
            nonlinear_solver.functional_gradient

        def counted_inner(f, *args, **kwargs):
            counts["walks"] += f.f is v_t
            return inner(f, *args, **kwargs)

        def counted_merit(*args):
            counts["merits"] += 1
            return merit(*args)

        def counted_gradient(*args, **kwargs):
            before = counts["samples"]
            out = gradient(*args, **kwargs)
            counts["in_gradient"] += counts["samples"] - before
            return out

        monkeypatch.setattr(operator, "inner_integral", counted_inner)
        monkeypatch.setattr(nonlinear_solver, "_merit", counted_merit)
        monkeypatch.setattr(nonlinear_solver, "functional_gradient", counted_gradient)
        g = Grid(0.0, 1.0, 1000)
        rng = np.random.default_rng(0)
        y = from_callable(lambda t: t, g) + random_anchored(g, 1, rng, norm=0.5)
        _, rep = solve_gradient(ker, y, tol=1e-6)
        assert rep.converged and rep.iterations >= 2
        assert counts["merits"] > rep.iterations
        assert counts["walks"] == counts["merits"]
        assert counts["samples"] > 0 and counts["in_gradient"] == 0

    def test_counted_steps_on_example1(self, monkeypatch):
        # at most three Picard steps where conjugate directions took four
        # and steepest descent six or seven; each takes one merit and no
        # v_tx walk, so the solve takes one merit more than its steps
        counts = {"merits": 0, "v_tx": 0}
        merit, adjoint = nonlinear_solver._merit, operator.inner_integral_adjoint

        def counted_merit(*args):
            counts["merits"] += 1
            return merit(*args)

        def counted_adjoint(f, *args, **kwargs):
            counts["v_tx"] += f.f is ker.v_tx
            return adjoint(f, *args, **kwargs)

        monkeypatch.setattr(nonlinear_solver, "_merit", counted_merit)
        monkeypatch.setattr(operator, "inner_integral_adjoint", counted_adjoint)
        ker = example1_kernel(1.0)
        g = Grid(0.0, 1.0, 200)
        rng = np.random.default_rng(3)
        y = from_callable(lambda t: t, g) + random_anchored(g, 1, rng, norm=0.5)
        _, rep = solve_gradient(ker, y, tol=1e-6)
        assert rep.converged and rep.iterations <= 3
        assert counts["merits"] == rep.iterations + 1
        assert counts["v_tx"] == 0

    def test_a_converged_trial_ends_the_line_search(self, monkeypatch):
        # on lam = 3 the first Picard trial climbs, so the merits are the
        # start, that trial, then a trial and its refinement per conjugate
        # step but the last, whose trial at s = 1 meets tol^2 and is taken
        # as it is
        values, merit = [], nonlinear_solver._merit

        def counted_merit(*args):
            out = merit(*args)
            values.append(out[0])
            return out

        monkeypatch.setattr(nonlinear_solver, "_merit", counted_merit)
        g = Grid(0.0, 1.0, 200)
        rng = np.random.default_rng(3)
        y = from_callable(lambda t: t, g) + random_anchored(g, 1, rng, norm=0.5)
        _, rep = solve_gradient(linear_kernel(3.0), y, tol=1e-6)
        assert rep.converged and rep.iterations >= 3
        assert values[1] > values[0]
        assert len(values) == 2 * rep.iterations + 1
        assert values[-1] <= 1e-12 < values[-2]
        assert rep.functional_history[-1] == values[-1]

    def test_linear_kernel_in_fifteen_walks(self, monkeypatch):
        # one walk per merit and per gradient: conjugate directions took
        # 12 merits and 6 gradients, steepest descent along -P g 18 steps
        counts = {"walks": 0}
        merit, gradient = nonlinear_solver._merit, nonlinear_solver.functional_gradient

        def counted(f):
            def walk(*args, **kwargs):
                counts["walks"] += 1
                return f(*args, **kwargs)

            return walk

        monkeypatch.setattr(nonlinear_solver, "_merit", counted(merit))
        monkeypatch.setattr(nonlinear_solver, "functional_gradient", counted(gradient))
        y = from_callable(lambda t: t, Grid(0.0, 1.0, 200))
        _, rep = solve_gradient(linear_kernel(2.0), y, tol=1e-8)
        assert rep.converged and counts["walks"] <= 15

    def test_first_step_is_the_picard_step(self, monkeypatch):
        # x_k - delta sum_{i<k} D_i at every node, D the defect at the start
        points = self._apply_V_points(monkeypatch)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: np.sin(5.0 * t), Grid(0.0, 1.0, 200))
        with pytest.raises(MaxIterExceeded):
            solve_gradient(ker, y, tol=1e-13, max_iter=1)
        [last] = points
        assert np.array_equal(last.values, _picard_step(ker, y, y).values)

    def test_first_conjugate_step_is_the_steepest_descent_step(self, monkeypatch):
        # on v = 10 atan(3x) the Picard trial climbs and is discarded, so
        # the first step is the one along -P g from y
        points = self._apply_V_points(monkeypatch)
        ker = _stiff(10.0, 3.0)
        y = from_callable(lambda t: np.sin(6.0 * t), Grid(0.0, 1.0, 100))
        F0 = vt.functional_F(ker, y, y)
        assert vt.functional_F(ker, _picard_step(ker, y, y), y) > F0
        with pytest.raises(MaxIterExceeded) as err:
            solve_gradient(ker, y, tol=1e-13, max_iter=1)
        [last] = points
        assert np.array_equal(last.values, _steepest_descent_step(ker, y, y).values)
        assert err.value.report.functional_history[0] == F0

    def test_picard_steps_start_from_x_init(self, monkeypatch):
        points = self._apply_V_points(monkeypatch)
        ker = example1_kernel(1.0)
        g = Grid(0.0, 1.0, 200)
        y = from_callable(lambda t: t, g)
        x0 = random_anchored(g, 1, np.random.default_rng(5), norm=0.3)
        with pytest.raises(MaxIterExceeded):
            solve_gradient(ker, y, x_init=x0, tol=1e-13, max_iter=1)
        [last] = points
        assert np.array_equal(last.values, _picard_step(ker, x0, y).values)
        x, rep = solve_gradient(ker, y, x_init=x0, tol=1e-7)
        assert rep.converged and rep.functional_history[0] == vt.functional_F(ker, x0, y)
        assert vt.functional_F(ker, x, y) <= 1e-14

    def test_a_nonfinite_picard_trial_hands_over_to_conjugate_directions(self, monkeypatch):
        # a start defect whose running sum overflows makes the Picard
        # trial point non-finite: it counts as not lower, so the first step
        # is the steepest-descent one, not a ValueError from GridFunction
        merit, gradient = nonlinear_solver._merit, nonlinear_solver.functional_gradient
        merits = []

        def overflowing_start(kernel, x, y):
            F, D = merit(kernel, x, y)
            merits.append(F)
            return F, np.full_like(D, 1e308) if len(merits) == 1 else D

        monkeypatch.setattr(nonlinear_solver, "_merit", overflowing_start)
        # the gradient recomputes the defect (as it would without a hand-over)
        monkeypatch.setattr(nonlinear_solver, "functional_gradient",
                            lambda kernel, x, y, defect: gradient(kernel, x, y))
        points = self._apply_V_points(monkeypatch)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: np.sin(5.0 * t), Grid(0.0, 1.0, 200))
        with pytest.raises(MaxIterExceeded):
            solve_gradient(ker, y, tol=1e-13, max_iter=1)
        [last] = points
        assert np.array_equal(last.values, _steepest_descent_step(ker, y, y).values)
        # and a whole solve from that start converges along conjugate steps
        merits.clear()
        _, rep = solve_gradient(ker, y, tol=1e-7)
        assert rep.converged and rep.functional_history[-1] <= 1e-14

    def test_directions_follow_polak_ribiere_plus(self, monkeypatch):
        # d_k = -P g_k + beta_k d_{k-1}, beta_k = max(0, <g_k, P g_k - P g_{k-1}>
        # / <g_{k-1}, P g_{k-1}>), restarting at -P g_k where d_k climbs; on
        # v = 10 atan(3x) both the clip and the restart fire
        grads, directions = [], []
        gradient, step = nonlinear_solver.functional_gradient, nonlinear_solver.axpy

        def record_gradient(*args, **kwargs):
            grads.append(gradient(*args, **kwargs))
            return grads[-1]

        def record_step(s, direction, x):
            if not directions or directions[-1] is not direction:
                directions.append(direction)
            return step(s, direction, x)

        monkeypatch.setattr(nonlinear_solver, "functional_gradient", record_gradient)
        monkeypatch.setattr(nonlinear_solver, "axpy", record_step)
        y = from_callable(lambda t: np.sin(6.0 * t), Grid(0.0, 1.0, 100))
        _, rep = solve_gradient(_stiff(10.0, 3.0), y, tol=1e-7)
        assert rep.converged and len(grads) == len(directions) == rep.iterations
        P = [_ac_riesz(y.grid, g).values for g in grads]
        d = [direction.values for direction in directions]
        assert np.array_equal(d[0], -P[0])
        clipped = restarted = 0
        for k in range(1, rep.iterations):
            beta = np.sum(grads[k] * (P[k] - P[k - 1])) / np.sum(grads[k - 1] * P[k - 1])
            clipped += beta < 0
            conjugate = -P[k] + max(beta, 0.0) * d[k - 1]
            descends = np.sum(grads[k] * conjugate) < 0
            restarted += not descends
            expected = conjugate if descends else -P[k]
            assert np.sum(grads[k] * d[k]) < 0
            assert np.abs(d[k] - expected).max() <= 1e-12 * np.abs(expected).max()
        assert clipped > 0 and restarted > 0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_riesz_representative(self, dim):
        # <a, h>_AC = <g, h> for every h, and a agrees with the banded
        # solve of the pinned-left stiffness system L a = g.  So <g, P h>
        # = <P g, P h>_AC: the node dot products of the gradient route's
        # beta and restart test are AC inner products, and <g, P g> > 0
        # makes -P g a descent direction.
        from scipy.linalg import solveh_banded

        g = Grid(0.0, 1.0, 4000)
        rng = np.random.default_rng(dim)
        g_nodes = rng.standard_normal((g.n_cells + 1, dim))
        a = _ac_riesz(g, g_nodes)
        assert np.all(a.values[0] == 0.0)
        assert (g_nodes * a.values).sum() == approx(ac_norm(a) ** 2, rel=1e-10)
        assert (g_nodes * a.values).sum() > 0
        for _ in range(3):
            h = random_anchored(g, dim, rng)
            inner_ac = (np.diff(a.values, axis=0) * np.diff(h.values, axis=0)).sum() / g.delta
            assert inner_ac == approx((g_nodes * h.values).sum(), rel=1e-10)
            other = rng.standard_normal(g_nodes.shape)
            assert (g_nodes * _ac_riesz(g, other).values).sum() == approx(
                (a.values * other).sum(), rel=1e-10)
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
