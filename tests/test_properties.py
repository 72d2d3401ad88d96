"""Property tests on randomly built kernels v = a (c + (t - tau)^p) sin(b x).

Each kernel carries its exact derivatives, so the solvers, the
functional and its gradient can be checked against one another.  The
same product built from its lag factors takes the Toeplitz route, which
is checked against the generic walk.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import MonkeyPatch, approx

from volterra import (
    Grid,
    ac_norm,
    apply_T,
    apply_V,
    collocation_solve,
    directional_dF,
    functional_gradient,
    lag_kernel,
    linear_solver,
    neumann_solve,
    random_anchored,
    scalar_kernel,
    solve_march,
    solve_newton,
    sub,
)


def _kernel(a, c, p, b):
    # c > 0 keeps v_x off zero on the diagonal t = tau
    return scalar_kernel(
        lambda t, tau, x: a * (c + (t - tau) ** p) * np.sin(b * x),
        lambda t, tau, x: a * p * (t - tau) ** (p - 1) * np.sin(b * x),
        lambda t, tau, x: a * b * (c + (t - tau) ** p) * np.cos(b * x),
        lambda t, tau, x: a * p * b * (t - tau) ** (p - 1) * np.cos(b * x),
    )


kernels = st.builds(
    _kernel,
    a=st.floats(min_value=-2.0, max_value=2.0),
    c=st.floats(min_value=0.0, max_value=1.0),
    p=st.floats(min_value=1.0, max_value=3.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
_GRID = Grid(0.0, 1.0, 40)
_FAR_GRID = Grid(0.0, 1.0, 300)


@given(kernel=kernels, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_collocation_and_neumann_agree(kernel, seed):
    rng = np.random.default_rng(seed)
    x0 = random_anchored(_GRID, 1, rng)
    g = random_anchored(_GRID, 1, rng)
    hc = collocation_solve(kernel, x0, g)
    hn, rep = neumann_solve(kernel, x0, g, tol=1e-12)
    assert rep.converged
    assert ac_norm(sub(hn, hc)) <= 1e-8 * max(1.0, ac_norm(hc))


@given(kernel=kernels, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_gradient_is_the_adjoint_of_the_frechet_derivative(kernel, seed):
    # <gradient, h> = delta sum D . frechet_dt(h) = directional_dF(h)
    rng = np.random.default_rng(seed)
    x, y, h = (random_anchored(_GRID, 1, rng) for _ in range(3))
    inner = float((functional_gradient(kernel, x, y) * h.values).sum())
    assert inner == approx(directional_dF(kernel, x, y, h), rel=1e-10, abs=1e-13)


@given(kernel=kernels, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_newton_residual_strictly_decreases(kernel, seed):
    y = random_anchored(_GRID, 1, np.random.default_rng(seed))
    _, rep = solve_newton(kernel, y, tol=1e-10)
    hist = rep.residual_history
    assert rep.converged
    assert all(b < a for a, b in zip(hist, hist[1:]))


@given(kernel=kernels, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_march_agrees_with_newton(kernel, seed):
    y = random_anchored(_GRID, 1, np.random.default_rng(seed))
    x_newton, _ = solve_newton(kernel, y, tol=1e-10)
    x, rep = solve_march(kernel, y, tol=1e-10)
    assert rep.converged
    assert rep.residual_history[0] == approx(ac_norm(sub(y, apply_V(kernel, x))), abs=1e-12)
    assert ac_norm(sub(x, x_newton)) <= 1e-10 * max(1.0, ac_norm(x_newton))


@given(kernel=kernels, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_declared_smooth_in_t_changes_nothing_but_rounding(kernel, seed):
    # Chebyshev far rectangles, accepted or walked exactly, against the
    # exact walk: each sum within 1e-13 of its largest entry
    rng = np.random.default_rng(seed)
    x, y, h = (random_anchored(_FAR_GRID, 1, rng) for _ in range(3))
    smooth = replace(kernel, smooth_in_t=True)
    for apply in (lambda k: apply_V(k, x).values, lambda k: apply_T(k, x, h).values,
                  lambda k: functional_gradient(k, x, y)):
        exact = apply(kernel)
        assert np.abs(apply(smooth) - exact).max() <= 1e-13 * np.abs(exact).max()


# q clear of 1/2 on either side: a realized q lies a little below the drawn
@given(q=st.floats(min_value=0.05, max_value=0.45) | st.floats(min_value=0.6, max_value=4.0),
       c=st.floats(min_value=0.0, max_value=1.0),
       p=st.floats(min_value=1.0, max_value=3.0),
       b=st.floats(min_value=0.5, max_value=3.0) | st.floats(min_value=-3.0, max_value=-0.5),
       seed=seeds)
@example(q=0.3, c=0.5, p=2.0, b=1.0, seed=0)
@example(q=2.0, c=0.5, p=2.0, b=-1.0, seed=0)
@settings(max_examples=12, deadline=None)
def test_lag_factors_agree_with_the_generic_walk(q, c, p, b, seed):
    # a (c + s^p) sin(b x) by lag_kernel and by scalar_kernel, a scaled so
    # that q, collocation's majorant of T's sup norm, is about the drawn
    # q: below 1/2 a grid of several leaves contracts without leaves,
    # above it goes by halves; one leaf (40 cells) always factors.  Newton,
    # which solves its linearizations only to its forcing term where
    # collocation contracts, converges with either kernel to one solution.
    a = q / (abs(b) * (c + 1.0 / (p + 1.0)))
    lag = lag_kernel(w=lambda s: a * (c + s**p), w_prime=lambda s: a * p * s ** (p - 1),
                     z=lambda x: np.sin(b * x), z_prime=lambda x: b * np.cos(b * x)[..., None])
    twin = _kernel(a, c, p, b)
    leaves = []
    solve_leaf = linear_solver._solve_leaf
    with MonkeyPatch.context() as mp:
        mp.setattr(linear_solver, "_solve_leaf", lambda *args: leaves.append(1) or solve_leaf(*args))
        for n_cells in (40, 200, 700):
            grid = Grid(0.0, 1.0, n_cells)
            rng = np.random.default_rng(seed)
            x0, g = (random_anchored(grid, 1, rng, norm=1.0) for _ in range(2))
            for factors, solve in ((n_cells == 40 or q > 0.5, lambda k: collocation_solve(k, x0, g)),
                                   (False, lambda k: apply_T(k, x0, g))):
                leaves.clear()
                fast = solve(lag).values
                assert bool(leaves) == factors
                walk = solve(twin).values
                assert np.abs(fast - walk).max() <= 1e-12 * np.abs(walk).max()
            solutions = []
            for kernel in (lag, twin):
                x, rep = solve_newton(kernel, g, tol=1e-10)
                assert rep.converged and ac_norm(sub(g, apply_V(kernel, x))) <= 1e-10
                solutions.append(x.values)
            fast, walk = solutions
            assert np.abs(fast - walk).max() <= 1e-9 * np.abs(walk).max()
