"""Directional sensitivities of the data-to-solution map and FD cross-checks."""

import math

import numpy as np
import pytest
from pytest import approx

import volterra as vt
from volterra import (
    DimMismatch,
    Grid,
    GridMismatch,
    ac_norm,
    directional_sensitivity,
    example1_kernel,
    fd_sensitivity_check,
    from_callable,
    linear_kernel,
    random_anchored,
    robustness_modulus,
    scalar_kernel,
    sub,
    zero_kernel,
)


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


class TestDirectionalSensitivity:
    def test_zero_kernel_is_identity(self, unit_grid, rng):
        a = random_anchored(unit_grid, 1, rng)
        h = random_anchored(unit_grid, 1, rng)
        s = directional_sensitivity(zero_kernel(), a, h)
        assert np.allclose(s.values, h.values, rtol=0, atol=1e-12)

    def test_linear_kernel_resolvent_closed_form(self):
        # s(t) = h(t) - lam * int_0^t e^{-lam (t-u)} h(u) du; for h = t^2,
        # lam = 1/2 this evaluates to 4t - 8 (1 - e^{-t/2})
        g = Grid(0.0, 1.0, 500)
        a = from_callable(lambda t: t, g)
        h = from_callable(lambda t: t * t, g)
        s = directional_sensitivity(linear_kernel(0.5), a, h)
        exact = from_callable(lambda t: 4.0 * t - 8.0 * (1.0 - math.exp(-t / 2.0)), g)
        assert ac_norm(sub(s, exact)) / ac_norm(exact) < 1e-4

    def test_independent_of_base_data_for_linear_kernels(self, unit_grid, rng):
        ker = linear_kernel(0.8)
        h = random_anchored(unit_grid, 1, rng)
        s1 = directional_sensitivity(ker, from_callable(lambda t: t, unit_grid), h)
        s2 = directional_sensitivity(ker, random_anchored(unit_grid, 1, rng), h)
        assert ac_norm(sub(s1, s2)) < 1e-9

    def test_is_linear_in_the_direction(self, unit_grid, rng):
        ker = example1_kernel(1.0)
        a = from_callable(lambda t: t, unit_grid)
        h = random_anchored(unit_grid, 1, rng)
        s1 = directional_sensitivity(ker, a, h)
        s2 = directional_sensitivity(ker, a, vt.scale(3.0, h))
        assert ac_norm(sub(s2, vt.scale(3.0, s1))) < 1e-9 * ac_norm(s1)


class TestFdCheck:
    def test_zero_kernel_discrepancy_vanishes(self, unit_grid, rng):
        a = random_anchored(unit_grid, 1, rng)
        h = random_anchored(unit_grid, 1, rng)
        gap = fd_sensitivity_check(zero_kernel(), a, h, epsilon=1e-3)
        assert gap < 1e-12

    def test_log_kernel_second_order_in_epsilon(self):
        g = Grid(0.0, 1.0, 200)
        ker = example1_kernel(1.0)
        a = from_callable(lambda t: t, g)
        h = from_callable(lambda t: t, g)
        gaps = [fd_sensitivity_check(ker, a, h, epsilon=eps, tol=1e-12)
                for eps in (1e-2, 1e-3)]
        assert gaps[1] < gaps[0]
        assert gaps[1] < 1e-2
        # central differences: the discrepancy scales like epsilon^2
        assert gaps[0] / gaps[1] == approx(100.0, rel=0.3)

    def test_discrepancy_of_a_given_sensitivity(self):
        # the check on a sensitivity the caller already solved for
        g = Grid(0.0, 1.0, 100)
        ker = example1_kernel(1.0)
        a = from_callable(lambda t: t, g)
        h = from_callable(lambda t: t * t, g)
        s_lin = directional_sensitivity(ker, a, h, tol=1e-11)
        assert vt.fd_discrepancy(ker, a, h, s_lin, epsilon=1e-3) == \
            fd_sensitivity_check(ker, a, h, epsilon=1e-3)

    @pytest.mark.parametrize("s_lin, error", [
        (from_callable(lambda t: t, Grid(0.0, 1.0, 16)), GridMismatch),
        (from_callable(lambda t: [t, t], Grid(0.0, 1.0, 8), dim=2), DimMismatch),
    ], ids=["grid", "dim"])
    def test_a_sensitivity_that_does_not_match_fails_before_solving(self, s_lin, error):
        def unreachable(t, tau, x):
            raise AssertionError("the kernel was evaluated")

        kernel = scalar_kernel(unreachable, unreachable, unreachable, unreachable)
        a = from_callable(lambda t: t, Grid(0.0, 1.0, 8))
        with pytest.raises(error):
            vt.fd_discrepancy(kernel, a, a, s_lin, epsilon=1e-3)

    @pytest.mark.parametrize("h, error", [
        (from_callable(lambda t: t, Grid(0.0, 1.0, 120)), GridMismatch),
        (from_callable(lambda t: [t, t], Grid(0.0, 1.0, 100), dim=2), DimMismatch),
    ], ids=["grid", "dim"])
    def test_a_direction_that_does_not_match_fails_before_marching(self, h, error):
        def unreachable(t, tau, x):
            raise AssertionError("the kernel was evaluated")

        kernel = scalar_kernel(unreachable, unreachable, unreachable, unreachable)
        a = from_callable(lambda t: t, Grid(0.0, 1.0, 100))
        with pytest.raises(error):
            directional_sensitivity(kernel, a, h)
        with pytest.raises(error):
            fd_sensitivity_check(kernel, a, h, epsilon=1e-3)

    def test_convolution_demo_kernel(self):
        g = Grid(0.0, 0.9, 200)
        a = from_callable(lambda t: t, g)
        h = from_callable(lambda t: t, g)
        gap = fd_sensitivity_check(_example2_demo(), a, h, epsilon=1e-3, tol=1e-12)
        assert gap < 1e-2


class TestRobustnessModulus:
    def test_zero_kernel_modulus_is_one(self, rng):
        g = Grid(0.0, 1.0, 80)
        a = random_anchored(g, 1, rng)
        mod = robustness_modulus(zero_kernel(), a, n_probes=4, delta=1e-3, seed=2)
        assert mod == approx(1.0, rel=1e-9)

    def test_linear_kernel_matches_directional_norms(self):
        # the discrete map is affine, so the modulus equals the max
        # directional-sensitivity norm over the same unit probes
        g = Grid(0.0, 1.0, 100)
        ker = linear_kernel(0.5)
        a = from_callable(lambda t: t, g)
        delta, seed, n = 1e-3, 5, 4
        mod = robustness_modulus(ker, a, n_probes=n, delta=delta, seed=seed)
        probe_rng = np.random.default_rng(seed)
        expect = 0.0
        for _ in range(n):
            p = random_anchored(g, 1, probe_rng, norm=1.0)
            expect = max(expect, ac_norm(directional_sensitivity(ker, a, p)))
        assert mod == approx(expect, rel=1e-6)

    def test_modulus_is_scale_free_for_linear_kernels(self):
        g = Grid(0.0, 1.0, 80)
        ker = linear_kernel(0.5)
        a = from_callable(lambda t: t, g)
        m1 = robustness_modulus(ker, a, n_probes=3, delta=1e-2, seed=0)
        m2 = robustness_modulus(ker, a, n_probes=3, delta=1e-4, seed=0)
        assert m1 == approx(m2, rel=1e-6)
