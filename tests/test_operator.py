"""Operator application, its time derivative, linearization, and the functional."""

import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import volterra as vt
from volterra import (
    Grid,
    ac_norm,
    apply_V,
    apply_V_dt,
    axpy,
    directional_dF,
    frechet_apply,
    from_callable,
    functional_F,
    functional_gradient,
    KernelContract,
    linear_kernel,
    example1_kernel,
    random_anchored,
    scale,
    sub,
    zero_kernel,
    zeros,
)
from volterra.operator import _merit, frechet_dt


def test_zero_kernel_is_identity(unit_grid, rng):
    x = random_anchored(unit_grid, 2, rng)
    out = apply_V(zero_kernel(dim=2), x)
    assert np.array_equal(out.values, x.values)


def test_apply_V_linear_kernel_exact_on_linear_input():
    # V(x)(t) = t + lam * t^2 / 2 for x(t) = t; midpoint rule is exact here
    g = Grid(0.0, 1.0, 50)
    x = from_callable(lambda t: t, g)
    out = apply_V(linear_kernel(0.5), x)
    expect = g.nodes + 0.25 * g.nodes**2
    assert np.allclose(out.values[:, 0], expect, rtol=1e-14, atol=1e-15)


def test_apply_V_dt_linear_kernel_exact_on_linear_input():
    # d/dt V(x) = x' + v(t, t, x(t)) + 0 = 1 + lam * m at each midpoint
    g = Grid(0.0, 1.0, 50)
    x = from_callable(lambda t: t, g)
    out = apply_V_dt(linear_kernel(0.5), x)
    assert out.shape == (50, 1)
    assert np.allclose(out[:, 0], 1.0 + 0.5 * g.midpoints, rtol=1e-14, atol=1e-15)


def test_apply_V_dt_consistent_with_slopes_of_apply_V():
    # two routes to the derivative: analytic expansion vs differenced nodes
    g = Grid(0.0, 1.0, 200)
    ker = example1_kernel(1.0)
    x = from_callable(lambda t: t * (1.0 - 0.3 * t), g)
    analytic = apply_V_dt(ker, x)
    nodes = apply_V(ker, x)
    slopes = np.diff(nodes.values, axis=0) / g.delta
    assert np.max(np.abs(analytic - slopes)) < 5e-4


def test_functional_vanishes_at_exact_solution():
    # for v = 0.5 x and y = t + t^2/4, x(t) = t solves the discrete system
    # exactly: both sides have identical slopes, so F(x) = 0 to rounding
    g = Grid(0.0, 1.0, 64)
    ker = linear_kernel(0.5)
    x = from_callable(lambda t: t, g)
    y = from_callable(lambda t: t + 0.25 * t * t, g)
    assert functional_F(ker, x, y) < 1e-28


def test_functional_is_half_squared_ac_distance_for_zero_kernel(unit_grid, rng):
    x = random_anchored(unit_grid, 1, rng)
    y = random_anchored(unit_grid, 1, rng)
    F = functional_F(zero_kernel(), x, y)
    assert F == approx(0.5 * ac_norm(sub(x, y)) ** 2, rel=1e-12)


def test_functional_positive_away_from_solution(unit_grid, rng):
    ker = example1_kernel(1.0)
    y = from_callable(lambda t: t, unit_grid)
    x = random_anchored(unit_grid, 1, rng, norm=2.0)
    assert functional_F(ker, x, y) > 0.0


class TestFrechet:
    def test_linearization_remainder_is_second_order(self, rng):
        g = Grid(0.0, 1.0, 80)
        ker = example1_kernel(1.0)
        x0 = random_anchored(g, 1, rng, norm=1.0)
        h = random_anchored(g, 1, rng, norm=1.0)
        rem = []
        for eps in (1e-2, 1e-3):
            xp = axpy(eps, h, x0)
            r = sub(sub(apply_V(ker, xp), apply_V(ker, x0)),
                    scale(eps, frechet_apply(ker, x0, h)))
            rem.append(ac_norm(r))
        # halving eps by 10 should cut the remainder by ~100
        assert rem[1] == approx(rem[0] / 100.0, rel=0.2)

    def test_frechet_is_exact_for_linear_kernels(self, unit_grid, rng):
        ker = linear_kernel(0.8)
        x0 = random_anchored(unit_grid, 1, rng)
        h = random_anchored(unit_grid, 1, rng)
        lhs = sub(apply_V(ker, axpy(1.0, h, x0)), apply_V(ker, x0))
        rhs = frechet_apply(ker, x0, h)
        assert ac_norm(sub(lhs, rhs)) < 1e-12


class TestDirectionalDerivative:
    def test_matches_central_differences(self, rng):
        g = Grid(0.0, 1.0, 60)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        for _ in range(5):
            x = random_anchored(g, 1, rng, norm=1.0)
            h = random_anchored(g, 1, rng, norm=1.0)
            d = directional_dF(ker, x, y, h)
            eps = 1e-6
            fd = (functional_F(ker, axpy(eps, h, x), y)
                  - functional_F(ker, axpy(-eps, h, x), y)) / (2.0 * eps)
            assert d == approx(fd, rel=1e-6, abs=1e-12)

    def test_gradient_represents_the_directional_derivative(self, rng):
        # <grad, h> over nodes equals dF(x)[h] by construction, to rounding
        g = Grid(0.0, 1.0, 60)
        ker = example1_kernel(1.0)
        y = from_callable(lambda t: t, g)
        for _ in range(5):
            x = random_anchored(g, 1, rng, norm=1.0)
            h = random_anchored(g, 1, rng, norm=1.0)
            grad = functional_gradient(ker, x, y)
            assert grad.shape == (61, 1)
            assert grad[0, 0] == 0.0
            ip = float((grad * h.values).sum())
            d = directional_dF(ker, x, y, h)
            assert ip == approx(d, rel=1e-11, abs=1e-14)

    def test_gradient_vanishes_at_the_minimum(self):
        g = Grid(0.0, 1.0, 64)
        ker = linear_kernel(0.5)
        x = from_callable(lambda t: t, g)
        y = from_callable(lambda t: t + 0.25 * t * t, g)
        grad = functional_gradient(ker, x, y)
        assert np.max(np.abs(grad)) < 1e-14


class TestDefectHandOver:
    def _problem(self, dim=1):
        g = Grid(0.0, 1.0, 80)
        rng = np.random.default_rng(dim)
        ker = example1_kernel(1.0) if dim == 1 else linear_kernel(0.5, dim=2)
        return ker, random_anchored(g, dim, rng, norm=1.0), random_anchored(g, dim, rng, norm=1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gradient_from_the_merit_defect_is_the_recomputed_one(self, dim):
        ker, x, y = self._problem(dim)
        F, D = _merit(ker, x, y)
        assert F == functional_F(ker, x, y)
        assert np.array_equal(functional_gradient(ker, x, y, defect=D),
                              functional_gradient(ker, x, y))

    @pytest.mark.parametrize("shape", [(79, 1), (80,), (80, 2), (81, 1)])
    def test_wrong_shape_defect_raises(self, shape):
        ker, x, y = self._problem()
        with pytest.raises(ValueError, match="defect must have shape"):
            functional_gradient(ker, x, y, defect=np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_defect_raises_kernel_contract(self, bad):
        ker, x, y = self._problem()
        D = _merit(ker, x, y)[1]
        D[17] = bad
        with pytest.raises(KernelContract, match="the defect at cell 17 is not finite"):
            functional_gradient(ker, x, y, defect=D)


def test_apply_V_rejects_dim_mismatch(unit_grid):
    x = zeros(unit_grid, dim=2)
    with pytest.raises(vt.DimMismatch):
        apply_V(linear_kernel(1.0, dim=1), x)


def test_functional_decreases_along_newton_direction():
    g = Grid(0.0, 1.0, 50)
    ker = example1_kernel(1.0)
    y = from_callable(lambda t: t, g)
    x = scale(0.5, y)
    F0 = functional_F(ker, x, y)
    r = sub(y, apply_V(ker, x))
    step = vt.collocation_solve(ker, x, r)
    assert functional_F(ker, axpy(1.0, step, x), y) < F0


# The evaluators each function reads, in its walks or, for v in
# functional_F and v_x in functional_gradient, on the diagonal alone.
# solve_gradient converges on example1 by Picard steps, which take merits
# alone.
_WALKED = {
    "apply_V": ("v",),
    "apply_T": ("v_x",),
    "functional_F": ("v", "v_t"),
    "functional_gradient": ("v", "v_t", "v_x", "v_tx"),
    "solve_gradient": ("v", "v_t"),
    "neumann_solve": ("v_x", "v_tx"),  # estimate_l_rho samples both
}


def _late_nan(ker, broken):
    # ker with the evaluator named by broken non-finite for t > 1/2
    f = getattr(ker, broken)

    def late_nan(t, tau, x):
        out = f(t, tau, x)
        late = np.asarray(t) > 0.5
        return np.where(late.reshape(late.shape + (1,) * (out.ndim - late.ndim)), np.nan, out)

    return replace(ker, **{broken: late_nan})


@pytest.mark.parametrize("name, broken", [(n, b) for n, evs in _WALKED.items() for b in evs])
def test_nonfinite_samples_in_a_walk_raise_kernel_contract(name, broken):
    ker = _late_nan(example1_kernel(1.0), broken)
    g = Grid(0.0, 1.0, 100)
    x, y = from_callable(lambda t: np.sin(3.0 * t), g), from_callable(lambda t: t, g)
    call = {
        "apply_V": lambda: apply_V(ker, x),
        "apply_T": lambda: vt.apply_T(ker, x, y),
        "functional_F": lambda: functional_F(ker, x, y),
        "functional_gradient": lambda: functional_gradient(ker, x, y),
        "solve_gradient": lambda: vt.solve_gradient(ker, y),
        "neumann_solve": lambda: vt.neumann_solve(ker, x, y, tol=1e-10),
    }[name]
    # node 51 is the first node past t = 1/2 on 100 cells
    match = "node 51 " if name in ("apply_V", "apply_T") else None
    with pytest.raises(KernelContract, match=match):
        call()


@pytest.mark.parametrize("broken", ["v_x", "v_tx"])
def test_nonfinite_samples_in_a_conjugate_step_raise_kernel_contract(broken):
    # on v = 10 atan(3x), a scalar kernel off the lag route, the first
    # Picard trial climbs, so the solve reaches conjugate directions,
    # whose gradient reads v_x on the diagonal and walks v_tx
    ker = _late_nan(vt.scalar_kernel(lambda t, tau, x: 10.0 * np.arctan(3.0 * x),
                                     lambda t, tau, x: 0.0 * x,
                                     lambda t, tau, x: 30.0 / (1.0 + (3.0 * x) ** 2),
                                     lambda t, tau, x: 0.0 * x), broken)
    assert ker.lag is None
    y = from_callable(lambda t: t, Grid(0.0, 1.0, 100))
    with pytest.raises(KernelContract):
        vt.solve_gradient(ker, y)


@pytest.mark.parametrize("call, broken", [("apply_V_dt", "v"), ("frechet_dt", "v_x"),
                                          ("functional_gradient", "v_x")])
def test_nonfinite_diagonal_sample_names_its_cell(call, broken):
    # nan on the diagonal tau = t alone, for t > 1/2: cell 50 is the first
    # midpoint past it on 100 cells; the walks never sample tau = t
    ker = example1_kernel(1.0)
    f = getattr(ker, broken)

    def diagonal_nan(t, tau, x):
        out = f(t, tau, x)
        bad = (np.asarray(t) == tau) & (np.asarray(t) > 0.5)
        return np.where(bad.reshape(bad.shape + (1,) * (out.ndim - bad.ndim)), np.nan, out)

    ker = replace(ker, **{broken: diagonal_nan})
    g = Grid(0.0, 1.0, 100)
    x, y = from_callable(lambda t: np.sin(3.0 * t), g), from_callable(lambda t: t, g)
    run = {"apply_V_dt": lambda: apply_V_dt(ker, x),
           "frechet_dt": lambda: frechet_dt(ker, x, y),
           "functional_gradient": lambda: functional_gradient(ker, x, y)}[call]
    with pytest.raises(KernelContract, match="diagonal sample at cell 50 .*tau = t"):
        run()
