"""Kernel evaluators: values, analytic derivatives, growth bounds, contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from volterra import (
    KernelContract,
    OutsideTriangle,
    TriangularDomain,
    eval_checked,
    example1_kernel,
    example2_kernel,
    linear_kernel,
    scalar_kernel,
    zero_kernel,
)
from volterra.kernels import _wrap_scalar


def _example2_demo(T=0.9, A=1.0, B=0.0):
    return example2_kernel(
        w=lambda s: s,
        w_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        z=np.arctan,
        z_prime=lambda x: 1.0 / (1.0 + x * x),
        A=A,
        B=B,
        T=T,
    )


def _central(f, t, tau, x, which, eps=1e-6):
    """Central finite difference of a scalar kernel in one slot."""
    t = np.asarray([t]); tau = np.asarray([tau]); xv = np.asarray([[x]])
    if which == "t":
        return (f(t + eps, tau, xv) - f(t - eps, tau, xv))[0, 0] / (2 * eps)
    assert which == "x"
    dx = np.asarray([[eps]])
    return (f(t, tau, xv + dx) - f(t, tau, xv - dx))[0, 0] / (2 * eps)


class TestLogKernel:
    """v(t, tau, x) = a * (t - tau)^{2/3} * log(1 + 2 (t - tau)^2 x^2)."""

    def test_reference_value(self):
        k = example1_kernel(1.0)
        v = k.v(np.array([1.0]), np.array([0.0]), np.array([[1.0]]))
        assert v[0, 0] == approx(math.log(3.0), rel=1e-14)

    @pytest.mark.parametrize("which", ["v", "v_t", "v_x", "v_tx"])
    def test_evaluators_match_their_power_forms(self, which):
        # each evaluator takes its fractional powers of s from one cube root
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 1.0, 10_000)
        tau = t * rng.uniform(0.0, 0.999, t.size)
        xi = rng.uniform(-3.0, 3.0, t.size)
        s = t - tau
        g = 2.0 * s * s * xi * xi
        ref = {
            "v": 1.5 * s ** (2.0 / 3.0) * np.log1p(g),
            "v_t": 1.5 * (2.0 / 3.0) * s ** (-1.0 / 3.0) * np.log1p(g)
            + 1.5 * s ** (2.0 / 3.0) * 4.0 * s * xi * xi / (1.0 + g),
            "v_x": 1.5 * 4.0 * s ** (8.0 / 3.0) * xi / (1.0 + g),
            "v_tx": 1.5 * 4.0 * xi * s ** (5.0 / 3.0) * (8.0 / 3.0 + (2.0 / 3.0) * g) / (1.0 + g) ** 2,
        }[which]
        got = getattr(example1_kernel(1.5), which)(t, tau, xi[:, None]).reshape(t.size)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("which", ["v", "vt", "vx", "vtx"])
    def test_evaluators_take_a_scalar_point(self, which):
        # eval_checked passes 0-d t and tau, which arithmetic turns into
        # numpy scalars: nothing may write into them with out=
        k = example1_kernel(1.5)
        got = eval_checked(k, which, 0.8, 0.3, [0.7])
        arrays = {"v": k.v, "vt": k.v_t, "vx": k.v_x, "vtx": k.v_tx}[which](
            np.array([0.8]), np.array([0.3]), np.array([[0.7]]))
        assert got.shape == arrays.shape[1:]
        assert np.array_equal(got, arrays[0])

    @pytest.mark.parametrize("which", ["v", "v_t", "v_x", "v_tx"])
    def test_evaluators_leave_their_inputs_unchanged(self, which):
        # the arithmetic in place is on the evaluator's own temporaries
        t = np.linspace(0.5, 1.0, 12).reshape(3, 4)
        tau = 0.4 * t
        x = np.linspace(-2.0, 2.0, 12).reshape(3, 4, 1)
        before = [a.copy() for a in (t, tau, x)]
        getattr(example1_kernel(1.5), which)(t, tau, x)
        for a, b in zip((t, tau, x), before):
            assert np.array_equal(a, b)

    def test_scales_linearly_in_amplitude(self):
        k1 = example1_kernel(1.0)
        k3 = example1_kernel(3.0)
        t, tau, x = np.array([0.8]), np.array([0.3]), np.array([[0.5]])
        assert k3.v(t, tau, x) == approx(3.0 * k1.v(t, tau, x))

    def test_diagonal_vanishes(self):
        k = example1_kernel(2.0)
        t = np.linspace(0.0, 1.0, 7)
        v = k.v(t, t, np.full((7, 1), 5.0))
        assert np.all(v == 0.0)
        assert k.diagonal_zero

    @pytest.mark.parametrize("which", ["t", "x"])
    @pytest.mark.parametrize(
        "t,tau,x", [(0.9, 0.2, 0.7), (0.5, 0.1, -1.3), (1.0, 0.45, 2.0)]
    )
    def test_first_derivatives_match_finite_differences(self, which, t, tau, x):
        k = example1_kernel(1.5)
        fd = _central(k.v, t, tau, x, which)
        if which == "t":
            got = k.v_t(np.array([t]), np.array([tau]), np.array([[x]]))[0, 0]
        else:
            got = k.v_x(np.array([t]), np.array([tau]), np.array([[x]]))[0, 0, 0]
        assert got == approx(fd, rel=1e-6, abs=1e-9)

    def test_mixed_derivative_matches_finite_difference_of_vt(self):
        k = example1_kernel(1.0)
        for (t, tau, x) in [(0.9, 0.2, 0.7), (0.6, 0.25, -0.4)]:
            fd = _central(k.v_t, t, tau, x, "x")
            got = k.v_tx(np.array([t]), np.array([tau]), np.array([[x]]))[0, 0, 0]
            assert got == approx(fd, rel=1e-6, abs=1e-9)

    @given(
        t=st.floats(min_value=0.05, max_value=1.0),
        frac=st.floats(min_value=0.0, max_value=0.95),
        x=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_time_derivative_growth_bound_is_honest(self, t, frac, x):
        # |v_t(t, tau, x)| <= c0(t, tau) |x| + d0(t, tau) away from tau = t
        k = example1_kernel(1.0)
        tau = frac * t
        ta, xa = np.array([t]), np.array([[x]])
        vt = abs(k.v_t(ta, np.array([tau]), xa)[0, 0])
        c0 = k.bounds.c0(ta, np.array([tau]))[0]
        d0 = k.bounds.d0(ta, np.array([tau]))[0]
        assert vt <= c0 * abs(x) + d0 + 1e-12


class TestConvolutionKernel:
    def test_reference_value(self):
        k = _example2_demo()
        v = k.v(np.array([1.0]), np.array([0.5]), np.array([[1.0]]))
        assert v[0, 0] == approx(0.5 * math.atan(1.0), rel=1e-14)

    def test_time_derivative_is_w_prime_times_z(self):
        k = _example2_demo()
        t, tau, x = np.array([0.7]), np.array([0.1]), np.array([[2.0]])
        assert k.v_t(t, tau, x)[0, 0] == approx(math.atan(2.0), rel=1e-14)

    def test_diagonal_vanishes_because_w_vanishes_at_zero(self):
        k = _example2_demo()
        t = np.linspace(0.0, 0.9, 5)
        assert np.all(k.v(t, t, np.full((5, 1), 3.0)) == 0.0)
        assert k.diagonal_zero

    def test_rejects_negative_slope_bound(self):
        with pytest.raises(KernelContract):
            _example2_demo(A=-1.0)

    def test_rejects_w_not_anchored(self):
        with pytest.raises(KernelContract):
            example2_kernel(
                w=lambda s: s + 1.0,
                w_prime=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                z=np.arctan,
                z_prime=lambda x: 1.0 / (1.0 + x * x),
                A=1.0,
                B=0.0,
            )

    def test_growth_bound_is_honest(self, rng):
        k = _example2_demo()
        for _ in range(100):
            t = rng.uniform(0.0, 0.9)
            tau = rng.uniform(0.0, t)
            x = rng.uniform(-20.0, 20.0)
            vt = abs(k.v_t(np.array([t]), np.array([tau]), np.array([[x]]))[0, 0])
            c0 = k.bounds.c0(np.array([t]), np.array([tau]))[0]
            assert vt <= c0 * abs(x) + 1e-12


class TestLinearKernel:
    def test_value_and_slope(self):
        k = linear_kernel(0.5)
        t, tau = np.array([0.9]), np.array([0.2])
        x = np.array([[3.0]])
        assert k.v(t, tau, x)[0, 0] == approx(1.5)
        assert k.v_x(t, tau, x)[0, 0, 0] == approx(0.5)
        assert k.v_t(t, tau, x)[0, 0] == 0.0
        assert k.v_tx(t, tau, x)[0, 0, 0] == 0.0

    def test_multidimensional_slope_is_scaled_identity(self):
        k = linear_kernel(2.0, dim=3)
        t, tau = np.array([0.5]), np.array([0.1])
        x = np.array([[1.0, -1.0, 2.0]])
        assert np.allclose(k.v(t, tau, x)[0], [2.0, -2.0, 4.0])
        assert np.allclose(k.v_x(t, tau, x)[0], 2.0 * np.eye(3))

    def test_declares_resolvent_style_bounds(self):
        # c1/d1 bound the diagonal and depend on t alone; c2/d2 on (t, tau)
        k = linear_kernel(0.7)
        t, tau = np.array([0.5]), np.array([0.2])
        assert k.bounds.c1(t)[0] == approx(0.7)
        assert k.bounds.d1(t)[0] == 0.0
        assert k.bounds.c2(t, tau)[0] == 0.0
        assert not k.diagonal_zero


class TestZeroKernel:
    def test_everything_vanishes(self, rng):
        k = zero_kernel(dim=2)
        t = rng.uniform(0.0, 1.0, 5)
        tau = t * rng.uniform(0.0, 1.0, 5)
        x = rng.normal(size=(5, 2))
        assert np.all(k.v(t, tau, x) == 0.0)
        assert np.all(k.v_t(t, tau, x) == 0.0)
        assert np.all(k.v_x(t, tau, x) == 0.0)
        assert np.all(k.v_tx(t, tau, x) == 0.0)
        assert k.diagonal_zero

    def test_declares_all_bounds(self):
        b = zero_kernel().bounds
        t, tau = np.array([0.5]), np.array([0.1])
        for fn in (b.c0, b.d0, b.c2, b.d2):
            assert fn(t, tau)[0] == 0.0
        for fn in (b.c1, b.d1):
            assert fn(t)[0] == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_declares_lag_factors(self, dim):
        # w = w' = 0: every sum is a Toeplitz product with a zero symbol
        k = zero_kernel(dim)
        assert k.lag is not None and k.name == "zero" and k.dim == dim
        lags = np.linspace(0.0, 1.0, 5)
        assert np.all(k.lag.w(lags) == 0.0) and np.all(k.lag.w_prime(lags) == 0.0)


def test_a_domain_needs_beta_above_alpha():
    with pytest.raises(ValueError, match="need beta > alpha"):
        TriangularDomain(1.0, 0.0)


class TestScalarKernel:
    def test_broadcasts_over_sample_shapes(self):
        k = scalar_kernel(
            v=lambda t, tau, x: t * x,
            v_t=lambda t, tau, x: x,
            v_x=lambda t, tau, x: t * np.ones_like(x),
            v_tx=lambda t, tau, x: np.ones_like(x),
        )
        t = np.linspace(0.2, 1.0, 6)
        tau = np.zeros(6)
        x = np.ones((6, 1))
        assert k.v(t, tau, x).shape == (6, 1)
        assert k.v_x(t, tau, x).shape == (6, 1, 1)
        assert np.allclose(k.v(t, tau, x)[:, 0], t)


class TestWrapScalar:
    @pytest.mark.parametrize("t, tau, shape", [
        (0.7, np.linspace(0.0, 0.5, 4), (4,)),
        (np.linspace(0.5, 1.0, 3)[:, None], np.linspace(0.0, 0.4, 5)[None, :], (3, 5)),
        (np.full((2, 3), 0.9), np.full((2, 3), 0.1), (2, 3)),
    ])
    def test_output_shapes(self, t, tau, shape):
        # t and tau broadcast when their shapes differ; a formula that
        # returns a scalar is broadcast to their shape
        x = np.full(shape + (1,), 0.5)
        for f in (lambda t, tau, xi: t - tau + xi, lambda t, tau, xi: 2.0):
            vec, mat = _wrap_scalar(f, (1,)), _wrap_scalar(f, (1, 1))
            assert vec(t, tau, x).shape == shape + (1,)
            assert mat(t, tau, x).shape == shape + (1, 1)
        want = np.broadcast_to(np.asarray(t) - tau, shape) + 0.5
        got = _wrap_scalar(lambda t, tau, xi: t - tau + xi, (1, 1))(t, tau, x)
        assert np.array_equal(got[..., 0, 0], want)


class TestEvalChecked:
    def test_accepts_triangle_points(self):
        k = linear_kernel(1.0)
        out = eval_checked(k, "v", 0.5, 0.2, [1.0])
        assert out[0] == approx(1.0)

    def test_rejects_tau_above_t(self):
        k = linear_kernel(1.0)
        with pytest.raises(OutsideTriangle):
            eval_checked(k, "v", 0.2, 0.5, [1.0])

    @pytest.mark.parametrize("which", ["v", "vt", "vx", "vtx"])
    def test_example1_rejects_tau_above_t(self, which):
        # np.cbrt is real for t < tau, where a fractional power was nan
        with pytest.raises(OutsideTriangle):
            eval_checked(example1_kernel(1.0), which, 0.2, 0.5, [1.0])

    def test_rejects_points_beyond_declared_domain(self):
        k = example1_kernel(1.0)  # lives on the unit triangle
        with pytest.raises(OutsideTriangle):
            eval_checked(k, "v", 1.5, 0.2, [1.0])

    def test_rejects_wrong_width_x(self):
        k = linear_kernel(1.0)
        with pytest.raises(ValueError):
            eval_checked(k, "v", 0.5, 0.2, [1.0, 2.0])

    def test_rejects_unknown_component(self):
        k = linear_kernel(1.0)
        with pytest.raises(ValueError):
            eval_checked(k, "grad", 0.5, 0.2, [1.0])

    def test_domain_contains(self):
        dom = TriangularDomain(0.0, 1.0)
        assert dom.contains(np.array([0.5]), np.array([0.5]))
        assert not dom.contains(np.array([0.5]), np.array([0.6]))
