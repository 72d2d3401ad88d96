"""Well-posedness checks: triangle-norm conditions and coercivity constants."""

import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import volterra as vt
from volterra import (
    Grid,
    MissingBounds,
    check_A3,
    check_A4,
    check_example1,
    check_example2,
    coercivity_constants,
    example1_kernel,
    linear_kernel,
    zero_kernel,
)
from volterra.kernels import GrowthBounds, KernelSpec, LagBound, scalar_kernel


def _ones(s):
    return np.ones_like(np.asarray(s, dtype=float))


class TestCheckA3:
    def test_log_kernel_triangle_norm_squared_is_4_over_35(self):
        rep = check_A3(example1_kernel(1.0), Grid(0.0, 1.0, 200))
        assert rep.variant == "A3"
        assert rep.norm_value**2 == approx(4.0 / 35.0, rel=1e-3)
        assert rep.threshold == approx(math.sqrt(2.0) / 2.0)
        assert rep.passed
        assert rep.margin > 0

    def test_margin_scales_with_amplitude(self):
        g = Grid(0.0, 1.0, 100)
        r1 = check_A3(example1_kernel(1.0), g)
        r2 = check_A3(example1_kernel(2.0), g)
        assert r2.norm_value == approx(2.0 * r1.norm_value, rel=1e-12)
        assert r2.margin < r1.margin

    def test_numeric_check_straddles_the_admissibility_boundary(self):
        # closed form: admissible iff a^2 < 35/8 = 4.375
        g = Grid(0.0, 1.0, 500)
        below = check_A3(example1_kernel(math.sqrt(4.374)), g)
        above = check_A3(example1_kernel(math.sqrt(4.376)), g)
        assert below.passed and not above.passed

    def test_numeric_margin_matches_closed_form(self):
        g = Grid(0.0, 1.0, 500)
        for ab2 in (1.0, 4.0, 4.374, 4.376):
            num = check_A3(example1_kernel(math.sqrt(ab2)), g)
            exact = check_example1(math.sqrt(ab2))
            assert num.norm_value == approx(exact.norm_value, rel=1e-4)
            assert num.passed == exact.passed

    def test_nonvanishing_diagonal_fails_even_with_tiny_norm(self):
        # v(t, t, x) = x != 0: the variant does not apply
        k = scalar_kernel(
            v=lambda t, tau, x: x,
            v_t=lambda t, tau, x: np.zeros_like(x),
            v_x=lambda t, tau, x: np.ones_like(x),
            v_tx=lambda t, tau, x: np.zeros_like(x),
            bounds=GrowthBounds(c0=lambda t, tau: np.zeros_like(np.asarray(t, float)),
                                d0=lambda t, tau: np.zeros_like(np.asarray(t, float))),
            diagonal_zero=False,
        )
        rep = check_A3(k, Grid(0.0, 1.0, 50))
        assert rep.norm_value == 0.0
        assert not rep.diagonal_zero_ok
        assert not rep.passed

    def test_requires_declared_bounds(self):
        with pytest.raises(MissingBounds):
            check_A3(linear_kernel(0.5), Grid(0.0, 1.0, 50))

    def test_nonfinite_bound_raises(self):
        # a nan margin would pass into the report as invalid JSON
        ker = example1_kernel(1.0)
        c0 = ker.bounds.c0
        bounds = replace(ker.bounds,
                         c0=lambda t, tau: np.where(np.asarray(t) > 0.5, np.nan, c0(t, tau)))
        with pytest.raises(vt.KernelContract):
            check_A3(replace(ker, bounds=bounds), Grid(0.0, 1.0, 100))

    def test_nonfinite_bound_is_named(self):
        # the culprit is the declared bound, not a kernel sample
        ker = example1_kernel(1.0)
        c0 = ker.bounds.c0
        bounds = replace(ker.bounds,
                         c0=lambda t, tau: np.where(np.asarray(t) > 0.5, np.nan, c0(t, tau)))
        with pytest.raises(vt.KernelContract, match="cell 50 .*declared bounds must be finite"):
            check_A3(replace(ker, bounds=bounds), Grid(0.0, 1.0, 100))

    def test_nonfinite_diagonal_sample_is_named(self):
        # a nan v on the diagonal is a broken contract, not "does not vanish"
        ker = example1_kernel(1.0)
        v = ker.v
        broken = replace(ker, v=lambda t, tau, x: np.where(np.asarray(t)[..., None] > 0.5,
                                                           np.nan, v(t, tau, x)))
        with pytest.raises(vt.KernelContract, match=r"diagonal sample at t = 0\.5102040816 "
                                                    r"is not finite; v must be finite on tau = t"):
            check_A3(broken, Grid(0.0, 1.0, 100))

    def test_zero_kernel_passes(self):
        rep = check_A3(zero_kernel(), Grid(0.0, 1.0, 50))
        assert rep.passed
        assert rep.norm_value == 0.0

    def test_example1_bound_is_summed_by_lag(self):
        # c0 depends on t - tau alone: the Toeplitz product evaluates it
        # at about 2N lags, the walk at all N (N + 1) / 2 samples
        ker = example1_kernel(1.0)
        count = [0]

        def counted(f):
            def g(*args):
                out = f(*args)
                count[0] += np.size(out)
                return out
            return g

        c0 = ker.bounds.c0
        c0 = LagBound(counted(c0.w)) if isinstance(c0, LagBound) else counted(c0)
        N = 2000
        rep = check_A3(replace(ker, bounds=replace(ker.bounds, c0=c0)), Grid(0.0, 1.0, N))
        assert rep == check_A3(ker, Grid(0.0, 1.0, N))
        assert 0 < count[0] < 3 * N

    @pytest.mark.parametrize("dim", [2, 3])
    def test_diagonal_is_sampled_in_a_ball_for_vector_kernels(self, dim):
        g = Grid(0.0, 1.0, 50)
        rep = check_A3(zero_kernel(dim), g)
        assert rep.passed and rep.diagonal_zero_ok
        assert rep.samples_used == 50 * 50 + 50 * 51 // 2
        # v(t, t, x) = x / 2 with zero c0, d0: the ball's samples see it
        zero = zero_kernel(dim).bounds.c0
        ker = replace(linear_kernel(0.5, dim), bounds=GrowthBounds(c0=zero, d0=zero))
        rep = check_A3(ker, g)
        assert rep.norm_value == 0.0 and rep.margin > 0
        assert not rep.diagonal_zero_ok and not rep.passed


class TestCheckA4:
    def test_linear_kernel_norm_is_lambda_over_sqrt2(self):
        # c1 = |lam|: tilde-c(t) = sqrt(t) |lam|, so the norm is |lam|/sqrt(2)
        for lam in (0.3, 0.5, 0.7):
            rep = check_A4(linear_kernel(lam), Grid(0.0, 1.0, 200))
            assert rep.variant == "A4"
            assert rep.norm_value == approx(lam / math.sqrt(2.0), rel=1e-12)
            assert rep.threshold == 0.5

    def test_pass_fail_straddles_sqrt2_over_2(self):
        g = Grid(0.0, 1.0, 100)
        assert check_A4(linear_kernel(0.70), g).passed
        assert not check_A4(linear_kernel(0.71), g).passed

    def test_condition_is_strict_at_the_boundary(self):
        # pick lambda so the computed norm lands exactly on the threshold
        g = Grid(0.0, 1.0, 100)
        probe = check_A4(linear_kernel(1.0), g)
        lam_boundary = 0.5 / probe.norm_value
        rep = check_A4(linear_kernel(lam_boundary), g)
        if rep.margin == 0.0:
            assert not rep.passed
        else:  # rounding pushed it off the exact boundary
            assert rep.passed == (rep.margin > 0)

    def test_interval_length_enters_through_the_weight(self):
        # on [0, 2]: ||tilde-c||^2 = lam^2 * len^2 / 2
        rep = check_A4(linear_kernel(0.5), Grid(0.0, 2.0, 200))
        assert rep.norm_value == approx(0.5 * 2.0 / math.sqrt(2.0), rel=1e-12)

    def test_nonfinite_c1_is_named(self):
        # a nan c1 would give norm_value = margin = nan, not an error
        ker = linear_kernel(0.5)
        c1 = ker.bounds.c1
        bounds = replace(ker.bounds, c1=lambda t: np.where(np.asarray(t) > 0.5, np.nan, c1(t)))
        with pytest.raises(vt.KernelContract,
                           match=r"c1 at the midpoint 0\.505 .*the declared bounds must be finite$"):
            check_A4(replace(ker, bounds=bounds), Grid(0.0, 1.0, 100))

    def test_requires_all_four_bounds(self):
        with pytest.raises(MissingBounds):
            check_A4(example1_kernel(1.0), Grid(0.0, 1.0, 50))


class TestCoercivityConstants:
    def test_linear_kernel_closed_form(self):
        cn, dn = coercivity_constants(linear_kernel(0.5), Grid(0.0, 1.0, 200))
        assert cn == approx(0.5 / math.sqrt(2.0), rel=1e-12)
        assert dn == 0.0

    def test_log_kernel_converges_to_continuum_value(self):
        # d-tilde(t) = 3 t^(2/3) for a = 1, so its norm tends to 3 sqrt(3/7)
        target = 3.0 * math.sqrt(3.0 / 7.0)
        vals = [coercivity_constants(example1_kernel(1.0), Grid(0.0, 1.0, n))[1]
                for n in (100, 400)]
        assert abs(vals[1] - target) < abs(vals[0] - target)
        assert vals[1] == approx(target, rel=0.02)

    def test_log_kernel_stays_below_half(self):
        cn, _ = coercivity_constants(example1_kernel(1.0), Grid(0.0, 1.0, 200))
        assert cn < 0.5

    @pytest.mark.parametrize("name", ["c1", "d1"])
    def test_nonfinite_declared_bound_is_named(self, name):
        # unchecked, a nan bound gives a nan constant, not an error
        ker = linear_kernel(0.5)
        f = getattr(ker.bounds, name)
        bounds = replace(ker.bounds, **{name: lambda t: np.where(np.asarray(t) > 0.5, np.nan, f(t))})
        with pytest.raises(vt.KernelContract,
                           match=rf"{name} at the midpoint 0\.505 .*the declared bounds must be finite$"):
            coercivity_constants(replace(ker, bounds=bounds), Grid(0.0, 1.0, 100))

    def test_requires_bounds(self):
        bare = KernelSpec(
            dim=1,
            v=lambda t, tau, x: np.zeros_like(x),
            v_t=lambda t, tau, x: np.zeros_like(x),
            v_x=lambda t, tau, x: np.zeros_like(x)[..., None],
            v_tx=lambda t, tau, x: np.zeros_like(x)[..., None],
        )
        with pytest.raises(MissingBounds):
            coercivity_constants(bare, Grid(0.0, 1.0, 50))

    def test_c0_d0_alone_need_a_diagonal_zero_kernel(self):
        ker = replace(example1_kernel(1.0), diagonal_zero=False)
        with pytest.raises(MissingBounds, match="not diagonal-zero"):
            coercivity_constants(ker, Grid(0.0, 1.0, 50))

    def test_incomplete_bounds_raise(self):
        ker = linear_kernel(0.5)
        ker = replace(ker, bounds=GrowthBounds(c1=ker.bounds.c1, d1=ker.bounds.d1))
        with pytest.raises(MissingBounds, match="bounds are incomplete"):
            coercivity_constants(ker, Grid(0.0, 1.0, 50))


class TestClosedForms:
    def test_example1_boundary_is_35_over_8(self):
        assert check_example1(math.sqrt(4.374)).passed
        assert not check_example1(math.sqrt(4.376)).passed
        boundary = check_example1(math.sqrt(35.0 / 8.0))
        assert not boundary.passed  # strict inequality
        assert boundary.margin == approx(0.0, abs=1e-12)

    def test_example1_norm_value(self):
        rep = check_example1(1.0)
        assert rep.norm_value == approx(2.0 / math.sqrt(35.0), rel=1e-14)
        assert rep.threshold == approx(math.sqrt(2.0) / 2.0, rel=1e-14)

    def test_example1_on_a_sub_interval(self):
        # on [alpha, alpha + L] the boundary is a_bar^2 L^(16/3) = 35/8, and
        # the grid's norm tends to the closed form
        L = 0.8
        edge = math.sqrt(35.0 / 8.0) * L ** (-8.0 / 3.0)
        assert check_example1(edge * (1 - 1e-6), L).passed
        assert not check_example1(edge * (1 + 1e-6), L).passed
        num = check_A3(example1_kernel(3.0), Grid(0.1, 0.1 + L, 500))
        exact = check_example1(3.0, L)
        assert num.norm_value == approx(exact.norm_value, rel=1e-4)
        assert num.threshold == approx(exact.threshold, rel=1e-14)
        assert exact.passed and not check_example1(3.0).passed

    @pytest.mark.parametrize("length", [0.0, -0.5, 1.5, math.nan, True, False,
                                        pytest.param(np.bool_(True), id="np.True_")])
    def test_example1_length_must_lie_in_the_unit_interval(self, length):
        with pytest.raises(ValueError, match="length must lie in"):
            check_example1(1.0, length)

    def test_example2_at_T_09_passes(self):
        g = Grid(0.0, 0.9, 200)
        rep = check_example2(_ones, A=1.0, T=0.9, grid=g)
        assert rep.passed
        assert rep.norm_value == approx(0.405, abs=1e-6)
        assert rep.threshold == approx(1.0 / (2.0 * 0.81), rel=1e-12)

    def test_example2_at_T_10_fails_on_the_boundary(self):
        g = Grid(0.0, 1.0, 200)
        rep = check_example2(_ones, A=1.0, T=1.0, grid=g)
        assert not rep.passed
        assert rep.norm_value == approx(0.5, abs=1e-6)
        assert rep.threshold == approx(0.5, rel=1e-12)

    def test_example2_requires_grid_spanning_0_T(self):
        with pytest.raises(ValueError):
            check_example2(_ones, A=1.0, T=0.9, grid=Grid(0.0, 1.0, 100))
        with pytest.raises(ValueError):
            check_example2(_ones, A=0.0, T=0.9, grid=Grid(0.0, 0.9, 100))

    def test_example2_nonconstant_slope(self):
        # w'(s) = s: double integral of s^2 over the unit triangle is 1/12
        g = Grid(0.0, 1.0, 400)
        rep = check_example2(lambda s: np.asarray(s, dtype=float), A=1.0, T=1.0, grid=g)
        assert rep.norm_value == approx(1.0 / 12.0, rel=1e-4)
        assert rep.passed  # 1/12 < 1/2


def test_report_serialization_keys():
    rep = check_A3(example1_kernel(1.0), Grid(0.0, 1.0, 50))
    d = rep.to_dict()
    assert set(d) == {"variant", "diagonal_zero_ok", "norm_value", "threshold",
                      "margin", "passed", "samples_used"}


def test_functional_dominates_certified_lower_bound(rng):
    # the discrete coercivity chain: F_0(x) >= (1/2 - c) ||x||^2 - d ||x||
    g = Grid(0.0, 1.0, 100)
    for ker in (linear_kernel(0.5), example1_kernel(1.0)):
        cn, dn = coercivity_constants(ker, g)
        y0 = vt.zeros(g)
        for _ in range(25):
            nrm = 10.0 ** rng.uniform(-1.0, 3.0)
            x = vt.random_anchored(g, 1, rng, norm=nrm)
            F0 = vt.functional_F(ker, x, y0)
            assert F0 >= (0.5 - cn) * nrm**2 - dn * nrm - 1e-9 * (1.0 + nrm**2)
