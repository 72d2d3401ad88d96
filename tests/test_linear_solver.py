"""Neumann iteration with factorial tail certificates, and direct collocation."""

import gc
import logging
import math
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import volterra as vt
from volterra import quadrature
from volterra import (
    Grid,
    NeumannBound,
    SingularBlock,
    TriangularDomain,
    ac_norm,
    apply_T,
    collocation_solve,
    estimate_l_rho,
    example1_kernel,
    from_callable,
    iterate_bound,
    linear_kernel,
    neumann_solve,
    random_anchored,
    scalar_kernel,
    sub,
    sup_norm,
    tail_bound,
    zero_kernel,
    zeros,
)
from volterra.kernels import KernelSpec
from volterra.linear_solver import NeumannReport, _halton


def _atan_lag():
    # w(s) = s, z = atan: a lag kernel, which keeps its FFT route
    return vt.example2_kernel(w=lambda s: np.asarray(s, float),
                              w_prime=lambda s: np.ones_like(np.asarray(s, float)),
                              z=np.arctan, z_prime=lambda x: 1.0 / (1.0 + np.asarray(x, float) ** 2),
                              A=1.0, B=0.0)


def _walked_neumann(ker, x0, g, tol, samples):
    # neumann_solve as an explicit loop that walks T in every iteration
    l_rho = estimate_l_rho(ker, rho=sup_norm(x0) + 1.0, samples=samples,
                           domain=TriangularDomain(g.grid.alpha, g.grid.beta),
                           include_time_derivative=True)
    nb = NeumannBound.for_interval(l_rho, sup_norm(g), g.grid.alpha, g.grid.beta)
    h = Th = zeros(g.grid, g.dim)
    for m in range(1, 201):
        h = g - Th
        Th = apply_T(ker, x0, h)
        residual = ac_norm(h + Th - g)
        gap = iterate_bound(m, nb) + tail_bound(m, nb)
        if residual <= tol or gap <= tol:
            break
    return h, NeumannReport(m, float(residual), gap, bool(residual <= tol), l_rho, tol)


class TestApplyT:
    def test_unit_slope_kernel_integrates(self):
        # v_x = 1: (T g)(t) = integral of g; exact for linear g
        g = Grid(0.0, 1.0, 50)
        x0 = zeros(g)
        rhs = from_callable(lambda t: t, g)
        out = apply_T(linear_kernel(1.0), x0, rhs)
        assert np.allclose(out.values[:, 0], g.nodes**2 / 2.0, rtol=1e-14, atol=1e-16)

    def test_twice_applied_approximates_cubic(self):
        g = Grid(0.0, 1.0, 200)
        x0 = zeros(g)
        rhs = from_callable(lambda t: t, g)
        out = apply_T(linear_kernel(1.0), x0, apply_T(linear_kernel(1.0), x0, rhs))
        assert np.max(np.abs(out.values[:, 0] - g.nodes**3 / 6.0)) < 1e-5

    def test_depends_on_base_point_for_nonlinear_kernels(self, unit_grid, rng):
        ker = example1_kernel(1.0)
        h = random_anchored(unit_grid, 1, rng)
        a = apply_T(ker, zeros(unit_grid), h)
        b = apply_T(ker, from_callable(lambda t: t, unit_grid), h)
        assert ac_norm(a) == 0.0  # v_x vanishes at x = 0
        assert ac_norm(sub(a, b)) > 0.0


class TestBounds:
    def test_interval_constants(self):
        nb = NeumannBound.for_interval(l_rho=1.0, M=1.0, alpha=0.0, beta=1.0)
        assert nb.C == approx(2.0)       # sqrt(len) * (1 + len)
        assert nb.D == approx(2.0)       # C * M * l_rho
        assert nb.A == approx(1.0)       # l_rho * len

    @pytest.mark.parametrize("l_rho, M", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)],
                             ids=["nan-l_rho", "nan-M", "nan-both"])
    def test_nan_constants_are_rejected(self, l_rho, M):
        # NaN passes l_rho < 0 and M < 0; it must not reach tail_bound
        with pytest.raises(ValueError, match="must be nonnegative"):
            NeumannBound.for_interval(l_rho, M, 0.0, 1.0)
        with pytest.raises(ValueError, match="must be nonnegative"):
            NeumannBound(l_rho=l_rho, M=M, C=1.0, D=1.0, A=1.0)

    @pytest.mark.parametrize("l_rho, M", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)])
    def test_infinite_constants_give_infinite_bounds(self, l_rho, M):
        # vacuous but true
        nb = NeumannBound.for_interval(l_rho, M, 0.0, 1.0)
        assert tail_bound(3, nb) == math.inf
        assert iterate_bound(2, nb) == math.inf

    @pytest.mark.parametrize("l_rho, M", [(0.0, math.inf), (math.inf, 0.0)])
    def test_a_zero_constant_gives_zero_bounds(self, l_rho, M):
        # T = 0 or g = 0: every iterate vanishes, whatever the other constant
        nb = NeumannBound.for_interval(l_rho, M, 0.0, 1.0)
        assert nb.D == 0.0
        assert [tail_bound(k, nb) for k in (0, 1, 3)] == [0.0, 0.0, 0.0]
        assert iterate_bound(2, nb) == 0.0

    def test_an_empty_interval_is_refused(self):
        with pytest.raises(ValueError, match="need beta > alpha"):
            NeumannBound.for_interval(1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("A", [450.0, 600.0])
    def test_tail_bound_holds_for_long_horizons(self, A):
        # sum over m >= 1 of A^m / m! is e^A - 1; a truncated series falls short
        nb = NeumannBound(l_rho=A, M=1.0, C=1.0, D=1.0, A=A)
        assert math.log(tail_bound(1, nb)) == approx(A, rel=1e-13)
        assert math.log(tail_bound(0, nb)) == approx(A, rel=1e-13)

    def test_tail_bound_beyond_float_range_is_inf(self):
        nb = NeumannBound(l_rho=800.0, M=1.0, C=1.0, D=1.0, A=800.0)
        assert tail_bound(1, nb) == math.inf
        assert tail_bound(0, nb) == math.inf  # e^800, the whole series

    def test_tail_bound_huge_horizon_is_inf_at_once(self):
        # the terms below A - 10 sqrt(A) are bounded, not summed one by one
        nb = NeumannBound(l_rho=1e7, M=1.0, C=1.0, D=1e-300, A=1e7)
        start = time.perf_counter()
        assert tail_bound(1, nb) == math.inf
        assert time.perf_counter() - start < 0.5
        nb = NeumannBound(l_rho=math.inf, M=1.0, C=1.0, D=1.0, A=math.inf)
        assert tail_bound(1, nb) == math.inf

    def test_tail_bound_far_out_stays_above_the_series(self):
        # P(2000, 700) underflows; the series itself is about e^-104
        A, k = 700.0, 2000
        nb = NeumannBound(l_rho=A, M=1.0, C=1.0, D=1.0, A=A)
        terms = [math.exp(m * math.log(A) - math.lgamma(m + 1)) for m in range(k, k + 400)]
        exact = math.fsum(terms)
        assert exact > 0.0
        assert exact <= tail_bound(k, nb) <= 2.0 * exact

    def test_tail_bound_matches_incomplete_gamma(self):
        # sum_{m >= k} A^m / m! = e^A P(k, A), for k <= A and k >> A
        from scipy.special import gammainc

        checked = 0
        for A in (0.5, 3.0, 40.0, 250.0, 600.0):
            nb = NeumannBound(l_rho=A, M=1.0, C=1.0, D=1.0, A=A)
            for k in (1, 2, 10, 60, 250, 700, 1000):
                p = float(gammainc(k, A))
                if p < 1e-300:
                    continue  # P underflows; the far-out test covers that regime
                assert tail_bound(k, nb) == approx(math.exp(A + math.log(p)), rel=1e-12)
                checked += 1
        assert checked >= 25

    def test_iterate_bound_factorial_decay(self):
        nb = NeumannBound.for_interval(l_rho=1.0, M=1.0, alpha=0.0, beta=1.0)
        assert iterate_bound(1, nb) == approx(2.0)
        assert iterate_bound(3, nb) == approx(1.0)          # 2 / 2!
        assert iterate_bound(20, nb) == approx(2.0 / math.factorial(19), rel=1e-12)
        with pytest.raises(ValueError):
            iterate_bound(0, nb)

    def test_tail_bound_matches_exponential_series(self):
        # D = 2, A = 1: tail after k is 2 * (e - sum_{i<k} 1/i!)
        nb = NeumannBound.for_interval(l_rho=1.0, M=1.0, alpha=0.0, beta=1.0)
        for k in (1, 2, 5, 10):
            partial = sum(1.0 / math.factorial(i) for i in range(k))
            assert tail_bound(k, nb) == approx(2.0 * (math.e - partial), rel=1e-10)

    def test_tail_bound_dominates_iterate_bound_sum(self):
        nb = NeumannBound.for_interval(l_rho=2.0, M=1.5, alpha=0.0, beta=0.9)
        explicit = sum(iterate_bound(j, nb) for j in range(4, 60))
        assert tail_bound(3, nb) == approx(explicit, rel=1e-12)

    def test_zero_contraction_gives_zero_bounds(self):
        nb = NeumannBound.for_interval(l_rho=0.0, M=1.0, alpha=0.0, beta=1.0)
        assert iterate_bound(1, nb) == 0.0
        assert iterate_bound(5, nb) == 0.0
        assert tail_bound(1, nb) == 0.0


@pytest.mark.parametrize("d", [3, 4, 5])
def test_halton_matches_scipy_unscrambled(d):
    from scipy.stats import qmc

    ref = qmc.Halton(d=d, scramble=False).random(2048)
    assert np.array_equal(_halton(2048, d), ref)


def test_halton_points_are_built_once_and_read_only():
    u = _halton(512, 3)
    assert _halton(512, 3) is u and not u.flags.writeable


class TestEstimateLRho:
    def test_linear_kernel_is_flat(self):
        ker = linear_kernel(0.6)
        est = estimate_l_rho(ker, rho=2.0, samples=512,
                             domain=TriangularDomain(0.0, 1.0))
        assert est == approx(1.1 * 0.6, rel=1e-12)

    def test_a_dim_2_kernel_takes_the_spectral_norm_on_the_ball(self):
        # v_x = 0.5 I: every sample's spectral norm is 0.5, and the Halton
        # points outside the rho-ball are pulled back onto it
        est = estimate_l_rho(linear_kernel(0.5, dim=2), rho=2.0, samples=512)
        assert est == 1.1 * 0.5

    def test_upper_bounds_fresh_samples(self, rng):
        ker = example1_kernel(1.3)
        rho = 2.5
        est = estimate_l_rho(ker, rho, samples=4096,
                             domain=TriangularDomain(0.0, 1.0))
        t = rng.uniform(0.0, 1.0, 10000)
        tau = t * rng.uniform(0.0, 1.0, 10000)
        x = rng.uniform(-rho, rho, (10000, 1))
        vals = np.abs(ker.v_x(t, tau, x)[:, 0, 0])
        assert vals.max() <= est

    def test_time_derivative_flag_raises_the_estimate(self):
        # |v_tx| exceeds |v_x| for the logarithmic kernel
        ker = example1_kernel(1.0)
        base = estimate_l_rho(ker, 1.0, 2048, domain=TriangularDomain(0.0, 1.0))
        joint = estimate_l_rho(ker, 1.0, 2048, domain=TriangularDomain(0.0, 1.0),
                               include_time_derivative=True)
        assert joint > base

    @pytest.mark.parametrize("broken", ["v_x", "v_tx"])
    def test_nonfinite_samples_raise(self, broken):
        # a max that skipped the nan samples would understate the bound
        ker = example1_kernel(1.0)
        f = getattr(ker, broken)

        def late_nan(t, tau, x):
            return f(t, tau, x) * np.where(np.asarray(t) > 0.5, np.nan, 1.0)[..., None, None]

        ker = replace(ker, **{broken: late_nan})
        with pytest.raises(vt.KernelContract, match=broken):
            estimate_l_rho(ker, 1.0, 2048, domain=TriangularDomain(0.0, 1.0),
                           include_time_derivative=True)

    def test_a_second_call_returns_the_same_value(self):
        ker = example1_kernel(1.0)
        dom = TriangularDomain(0.0, 1.0)
        first = estimate_l_rho(ker, 2.0, 2048, domain=dom, include_time_derivative=True)
        assert estimate_l_rho(ker, 2.0, 2048, domain=dom, include_time_derivative=True) == first

    def test_rejects_bad_arguments(self):
        ker = linear_kernel(1.0)
        with pytest.raises(ValueError):
            estimate_l_rho(ker, rho=0.0, samples=10)
        with pytest.raises(ValueError):
            estimate_l_rho(ker, rho=1.0, samples=0)


class TestNeumann:
    def test_matches_resolvent_closed_form(self):
        g = Grid(0.0, 1.0, 500)
        rhs = from_callable(lambda t: t, g)
        h, rep = neumann_solve(linear_kernel(1.0), zeros(g), rhs, tol=1e-12)
        exact = from_callable(lambda t: 1.0 - math.exp(-t), g)
        assert rep.converged
        assert ac_norm(sub(h, exact)) / ac_norm(exact) < 1e-4
        assert abs(h.values[-1, 0] - (1.0 - math.exp(-1.0))) < 1e-5

    def test_report_is_a_dict_of_its_fields(self):
        g = Grid(0.0, 1.0, 16)
        rhs = from_callable(lambda t: t, g)
        _, rep = neumann_solve(linear_kernel(1.0), zeros(g), rhs, tol=1e-10)
        assert rep.to_dict() == {"iterations": rep.iterations, "residual_ac": rep.residual_ac,
                                 "tail_bound": rep.tail_bound, "converged": True,
                                 "l_rho": rep.l_rho, "tolerance": 1e-10}

    def test_the_zero_kernel_records_no_triangle(self):
        # a lag kernel keeps its FFT route, so the solve holds O(N) floats
        g = Grid(0.0, 1.0, 4000)
        y = from_callable(lambda t: t, g)
        tracemalloc.start()
        try:
            h, rep = neumann_solve(vt.zero_kernel(), y, y, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged and np.array_equal(h.values, y.values)
        assert peak < 2e6

    def test_report_certifies_the_stop(self):
        g = Grid(0.0, 1.0, 100)
        rhs = from_callable(lambda t: t, g)
        h, rep = neumann_solve(linear_kernel(1.0), zeros(g), rhs, tol=1e-10)
        assert rep.converged
        assert rep.residual_ac <= 1e-10
        assert rep.l_rho == approx(1.1, rel=1e-12)
        assert rep.tolerance == 1e-10

    def test_budget_exhaustion_reports_not_converged(self):
        g = Grid(0.0, 1.0, 50)
        rhs = from_callable(lambda t: t, g)
        h, rep = neumann_solve(linear_kernel(1.0), zeros(g), rhs,
                               tol=1e-30, max_iter=3)
        assert not rep.converged
        assert rep.iterations == 3

    @pytest.mark.parametrize("ker", [linear_kernel(0.5), linear_kernel(2.0), example1_kernel(1.0)],
                             ids=lambda k: k.name)
    def test_reported_tail_is_the_gap_the_stop_tested(self, ker):
        # the factorial tail of the returned h_m starts at iterate_bound(m)
        g = Grid(0.0, 1.0, 400)
        rhs = from_callable(lambda t: t, g)
        x0 = from_callable(lambda t: t / 2.0, g)
        h, rep = neumann_solve(ker, x0, rhs, tol=1e-10)
        nb = NeumannBound.for_interval(rep.l_rho, sup_norm(rhs), 0.0, 1.0)
        m = rep.iterations
        assert rep.converged
        assert rep.tail_bound == iterate_bound(m, nb) + tail_bound(m, nb)
        assert rep.tail_bound >= ac_norm(sub(h, collocation_solve(ker, x0, rhs)))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_an_empty_budget(self, max_iter):
        g = Grid(0.0, 1.0, 50)
        rhs = from_callable(lambda t: t, g)
        with pytest.raises(ValueError, match="max_iter"):
            neumann_solve(linear_kernel(1.0), zeros(g), rhs, tol=1e-10, max_iter=max_iter)

    @pytest.mark.parametrize("smooth", [False, True])
    def test_walks_v_x_once_per_solve(self, smooth):
        # the first apply_T evaluates T's samples and every later one
        # replays them, so a solve takes one apply_T's samples, however
        # many iterations, plus the l_rho samples; an apply_T takes fewer
        # samples when far rectangles are interpolated in t
        counts = {"v_x": 0}

        def v_x(t, tau, x):
            counts["v_x"] += np.broadcast(np.asarray(t), np.asarray(tau)).size
            return ker.v_x(t, tau, x)

        ker = replace(example1_kernel(1.0), smooth_in_t=smooth)
        g = Grid(0.0, 1.0, 100)
        rng = np.random.default_rng(0)
        x0 = from_callable(lambda t: t, g)
        rhs = random_anchored(g, 1, rng, norm=0.5)
        _, rep = neumann_solve(replace(ker, v_x=v_x), x0, rhs, tol=1e-10, samples=512)
        assert rep.converged and rep.iterations >= 2
        if not smooth:
            assert counts["v_x"] == 100 * 101 // 2 + 512
        else:
            solve, counts["v_x"] = counts["v_x"], 0
            apply_T(replace(ker, v_x=v_x), x0, rhs)
            assert counts["v_x"] < 100 * 101 // 2
            assert solve == counts["v_x"] + 512

    @pytest.mark.parametrize("ker", [replace(example1_kernel(1.0), smooth_in_t=False),
                                     example1_kernel(1.0), _atan_lag()],
                             ids=["generic", "smooth", "lag"])
    def test_replay_is_bit_identical_to_walking_each_iteration(self, ker):
        g = Grid(0.0, 1.0, 400)
        rng = np.random.default_rng(1)
        x0 = random_anchored(g, 1, rng, norm=1.0)
        rhs = random_anchored(g, 1, rng, norm=0.5)
        h, rep = neumann_solve(ker, x0, rhs, tol=1e-12, samples=512)
        h_ref, rep_ref = _walked_neumann(ker, x0, rhs, tol=1e-12, samples=512)
        assert rep.iterations >= 3
        assert np.array_equal(h.values, h_ref.values)
        assert rep == rep_ref

    def test_replays_the_fallbacks_of_a_false_declaration(self, caplog):
        # |t - 1/2| (t - tau) cos x is declared smooth in t but has a kink
        # at t = 1/2: three far blocks fall back on every walk, replayed
        # or not, and the replay gives the walked iterates bit for bit
        caplog.set_level(logging.DEBUG, logger="volterra.quadrature")
        counts = {"v_x": 0}

        def v_x(t, tau, x):
            counts["v_x"] += np.broadcast(np.asarray(t), np.asarray(tau)).size
            return base.v_x(t, tau, x)

        base = scalar_kernel(lambda t, tau, x: np.abs(t - 0.5) * (t - tau) * np.sin(x),
                             lambda t, tau, x: 0.0 * x,
                             lambda t, tau, x: np.abs(t - 0.5) * (t - tau) * np.cos(x),
                             lambda t, tau, x: 0.0 * x, smooth_in_t=True)
        ker = replace(base, v_x=v_x)
        g = Grid(0.0, 1.0, 1000)
        x0 = from_callable(lambda t: 2.0 * np.sin(3.0 * t), g)
        rhs = from_callable(lambda t: t, g)
        caplog.clear()
        h, rep = neumann_solve(ker, x0, rhs, tol=1e-12, samples=512)
        records = [r.getMessage() for r in caplog.records]
        solve, counts["v_x"] = counts["v_x"], 0
        caplog.clear()
        h_ref, rep_ref = _walked_neumann(ker, x0, rhs, tol=1e-12, samples=512)
        assert rep.iterations >= 3
        assert np.array_equal(h.values, h_ref.values) and rep == rep_ref
        assert records == [r.getMessage() for r in caplog.records]
        assert len(records) == rep.iterations
        assert records[0].startswith("3 far blocks fell back to exact samples")
        assert solve - 512 == (counts["v_x"] - 512) // rep.iterations

    @pytest.mark.parametrize("kind", ["generic", "smooth", "kinked"])
    def test_a_replay_after_another_grid_of_the_shape_reads_its_own(self, kind, caplog):
        # a replay reads neither the grid nor x: after a fresh walk of
        # [0, 2] at the same shape, it gives the sums recorded on [0, 1]
        # bit for bit, and its DEBUG records name [0, 1]'s own t and tau
        caplog.set_level(logging.DEBUG, logger="volterra.quadrature")
        if kind == "kinked":  # two far blocks fall back on [0, 1], one on [0, 2]
            ker = scalar_kernel(lambda t, tau, x: np.abs(t - 0.5) * (t - tau) * np.sin(x),
                                lambda t, tau, x: 0.0 * x,
                                lambda t, tau, x: np.abs(t - 0.5) * (t - tau) * np.cos(x),
                                lambda t, tau, x: 0.0 * x, smooth_in_t=True)
        else:
            ker = replace(example1_kernel(1.0), smooth_in_t=kind == "smooth")
        f = ker.integrand("v_x")
        walks = []
        for beta in (1.0, 2.0):
            g = Grid(0.0, beta, 400)
            x0 = from_callable(lambda t: 2.0 * np.sin(3.0 * t), g).values
            h = from_callable(lambda t: t * np.cos(5.0 * t), g).values
            walks.append(lambda recorded, g=g, x0=x0, h=h: quadrature._row_sums(
                f, g.nodes, g, x0, h, "node", recorded=recorded))
        logs = []
        recorded = []
        for walk, given in ((walks[0], recorded), (walks[1], None), (walks[0], recorded)):
            caplog.clear()
            logs.append((walk(given), [r.getMessage() for r in caplog.records]))
        (first, records), (other, other_records), (replayed, replay_records) = logs
        assert not np.array_equal(other, first)
        assert np.array_equal(replayed, first)
        assert replay_records == records
        if kind == "kinked":
            assert records[0].startswith("2 far blocks fell back") and "(t from 0.3225)" in records[0]
            assert other_records[0].startswith("1 far blocks fell back")
        else:
            assert records == []

    def test_no_recorded_sample_outlives_the_solve(self):
        # the recorder holds no reference cycle: with the collector off,
        # every array v_x returned is freed when the solve returns
        refs = []

        def v_x(t, tau, x):
            out = base.v_x(t, tau, x)
            refs.append(weakref.ref(out))
            return out

        base = example1_kernel(1.0)
        g = Grid(0.0, 1.0, 400)
        x0 = from_callable(lambda t: t, g)
        rhs = from_callable(lambda t: t, g)
        gc.collect()
        gc.disable()
        try:
            h, rep = neumann_solve(replace(base, v_x=v_x), x0, rhs, tol=1e-10, samples=512)
            alive = sum(r() is not None for r in refs)
        finally:
            gc.enable()
        assert rep.converged and rep.iterations >= 2 and len(refs) > 2
        assert alive == 0

    def test_a_replay_that_leaves_the_recorded_walk_raises(self):
        # a recorder replays its samples to walks of the shape that took
        # them, without calling v_x; a walk of another shape raises
        calls = {"v_x": 0}

        def v_x(t, tau, x):
            calls["v_x"] += 1
            return base.v_x(t, tau, x)

        base = example1_kernel(1.0)
        f = replace(base, v_x=v_x).integrand("v_x")
        walks = {}
        for n in (300, 400):
            g = Grid(0.0, 1.0, n)
            x0 = from_callable(lambda t: 2.0 * np.sin(3.0 * t), g).values
            h = from_callable(lambda t: t * np.cos(5.0 * t), g).values
            walks[n] = lambda recorded, g=g, x0=x0, h=h: quadrature._row_sums(
                f, g.nodes, g, x0, h, "node", recorded=recorded)
        recorded = []
        first = walks[300](recorded)
        taken, calls["v_x"] = calls["v_x"], 0
        assert taken > 0 and len(recorded) == taken + 1
        assert np.array_equal(walks[300](recorded), first) and calls["v_x"] == 0
        assert np.array_equal(walks[300](None), first) and calls["v_x"] == taken
        calls["v_x"] = 0
        with pytest.raises(RuntimeError, match="cannot replay"):
            walks[400](recorded)
        assert calls["v_x"] == 0

    @pytest.mark.parametrize("call", ["apply_T", "neumann_solve"])
    @pytest.mark.parametrize("route", ["lag", "walked"])
    def test_a_sum_past_the_float_range_raises_on_both_routes(self, call, route):
        # linear_kernel(1e300)'s T T y overflows: the lag route's FFT product
        # raises the walked twin's KernelContract, not a RuntimeWarning
        ker = linear_kernel(1e300)
        if route == "walked":
            ker = replace(ker, lag=None)
        g = Grid(0.0, 1.0, 16)
        y = from_callable(lambda t: t, g)
        with pytest.raises(vt.KernelContract, match="^the sum of the row at node 1 is not finite"):
            if call == "apply_T":
                apply_T(ker, y, apply_T(ker, y, y))
            else:
                neumann_solve(ker, y, y, tol=1e-10)

    def test_twenty_partial_sums_match_alternating_series(self):
        # sum_{k<20} (-1)^k T^k g with (T^k g)(t) = t^{k+1}/(k+1)!
        g = Grid(0.0, 1.0, 500)
        ker = linear_kernel(1.0)
        x0 = zeros(g)
        term = from_callable(lambda t: t, g)
        partial = term.values.copy()
        for k in range(1, 20):
            term = apply_T(ker, x0, term)
            partial += (-1.0) ** k * term.values
        series = from_callable(
            lambda t: sum((-1.0) ** k * t ** (k + 1) / math.factorial(k + 1)
                          for k in range(20)),
            g,
        )
        assert ac_norm(sub(vt.GridFunction(g, partial), series)) < 1e-6

    def test_iterates_stay_below_certificate(self, rng):
        g = Grid(0.0, 1.0, 100)
        ker = example1_kernel(1.0)
        x0 = random_anchored(g, 1, rng, norm=1.5)
        rhs = random_anchored(g, 1, rng)
        rho = sup_norm(x0)
        lr = estimate_l_rho(ker, rho, 2048, domain=TriangularDomain(0.0, 1.0),
                            include_time_derivative=True)
        nb = NeumannBound.for_interval(lr, sup_norm(rhs), 0.0, 1.0)
        h = rhs
        for k in range(1, 16):
            h = apply_T(ker, x0, h)
            assert ac_norm(h) <= iterate_bound(k, nb) + 1e-6


class TestCollocation:
    def test_solves_the_discrete_equations_exactly(self, rng):
        g = Grid(0.0, 1.0, 80)
        ker = example1_kernel(1.0)
        x0 = random_anchored(g, 1, rng, norm=1.0)
        rhs = random_anchored(g, 1, rng)
        h = collocation_solve(ker, x0, rhs)
        resid = sub(vt.frechet_apply(ker, x0, h), rhs)
        assert ac_norm(resid) < 1e-12

    def test_agrees_with_neumann(self):
        g = Grid(0.0, 1.0, 500)
        ker = linear_kernel(1.0)
        x0 = zeros(g)
        rhs = from_callable(lambda t: t, g)
        hn, _ = neumann_solve(ker, x0, rhs, tol=1e-12)
        hc = collocation_solve(ker, x0, rhs)
        assert ac_norm(sub(hn, hc)) / ac_norm(hc) < 1e-8

    def test_matches_resolvent_closed_form(self):
        g = Grid(0.0, 1.0, 500)
        h = collocation_solve(linear_kernel(1.0), zeros(g),
                              from_callable(lambda t: t, g))
        exact = from_callable(lambda t: 1.0 - math.exp(-t), g)
        assert ac_norm(sub(h, exact)) / ac_norm(exact) < 1e-4

    def test_singular_diagonal_block_raises(self):
        # 1 + (delta/2) v_x = 0 when v_x = -2 N on the unit interval
        g = Grid(0.0, 1.0, 16)
        ker = linear_kernel(-32.0)
        with pytest.raises(SingularBlock):
            collocation_solve(ker, zeros(g), from_callable(lambda t: t, g))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_blocked_solve_matches_dense_system(self, monkeypatch, dim):
        # small blocks: the walk crosses block boundaries many times;
        # 3-row leaves: blocks of 7 and 4 rows hold several, the last partial
        monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", 60)
        monkeypatch.setattr(quadrature, "_LEAF", 3)
        a = np.arange(dim * dim).reshape(dim, dim) / dim + 0.5

        def v_x(t, tau, x):
            s = (np.asarray(t) - tau)[..., None, None]
            return a * np.cos(3.0 * s * a + x[..., None])

        ker = KernelSpec(dim=dim, v=None, v_t=None, v_x=v_x, v_tx=None)
        g = Grid(0.0, 1.0, 30)
        rng = np.random.default_rng(8)
        x0 = random_anchored(g, dim, rng)
        rhs = random_anchored(g, dim, rng)
        # brute force: the equations h_i + delta sum_{j<i} W_ij (h_j + h_{j+1})/2 = g_i
        N, d = g.n_cells, g.delta
        xm = 0.5 * (x0.values[:-1] + x0.values[1:])
        M = np.eye((N + 1) * dim).reshape(N + 1, dim, N + 1, dim)
        for i in range(1, N + 1):
            for j in range(i):
                W = v_x(np.array(g.nodes[i]), np.array(g.midpoints[j]), xm[j])
                M[i, :, j] += 0.5 * d * W
                M[i, :, j + 1] += 0.5 * d * W
        M = M.reshape((N + 1) * dim, (N + 1) * dim)[dim:, dim:]
        dense = np.linalg.solve(M, rhs.values[1:].ravel()).reshape(N, dim)
        h = collocation_solve(ker, x0, rhs)
        assert np.allclose(h.values[1:], dense, rtol=1e-12, atol=1e-13)

    def test_evaluates_each_pair_once(self, monkeypatch):
        # merges in calls of at most 60 samples, plus the leaves' own
        # triangles: the N(N+1)/2 pairs j < i, each once
        monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", 60)
        monkeypatch.setattr(quadrature, "_LEAF", 3)
        sizes = []
        generic = replace(linear_kernel(0.5), lag=None)

        def v_x(t, tau, x):
            sizes.append(np.broadcast(np.asarray(t), np.asarray(tau)).size)
            return generic.v_x(t, tau, x)

        g = Grid(0.0, 1.0, 30)
        rhs = from_callable(lambda t: t, g)
        h = collocation_solve(replace(generic, v_x=v_x), zeros(g), rhs)
        assert sum(sizes) == 30 * 31 // 2
        assert max(sizes) <= 60
        assert ac_norm(sub(h, collocation_solve(linear_kernel(0.5), zeros(g), rhs))) <= 1e-14

    def test_singular_block_found_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", 60)
        g = Grid(0.0, 1.0, 16)
        ker = scalar_kernel(lambda t, tau, x: 0.0 * x, lambda t, tau, x: 0.0 * x,
                            lambda t, tau, x: np.where(t > 0.7, -32.0, 0.5) + 0.0 * x,
                            lambda t, tau, x: 0.0 * x)
        with pytest.raises(SingularBlock, match="node 12"):
            collocation_solve(ker, zeros(g), from_callable(lambda t: t, g))

    def test_singular_block_found_inside_a_later_leaf(self, monkeypatch):
        # 3-row leaves [1, 4), [4, 7), [7, 10), [10, 13), ...: node 11 is
        # second in the fourth
        monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", 60)
        monkeypatch.setattr(quadrature, "_LEAF", 3)
        g = Grid(0.0, 1.0, 16)
        ker = scalar_kernel(lambda t, tau, x: 0.0 * x, lambda t, tau, x: 0.0 * x,
                            lambda t, tau, x: np.where(np.abs(t - 11 / 16) < 1e-9, -32.0, 0.5)
                            + 0.0 * x,
                            lambda t, tau, x: 0.0 * x)
        with pytest.raises(SingularBlock, match="node 11 "):
            collocation_solve(ker, zeros(g), from_callable(lambda t: t, g))

    @staticmethod
    def _block_kernel(block, g):
        # constant v_x = K with every diagonal block I + delta/2 K = block
        K = (np.asarray(block, float) - np.eye(2)) * 2.0 / g.delta

        def v_x(t, tau, x):
            return np.broadcast_to(K, np.broadcast_shapes(np.shape(t), np.shape(tau)) + (2, 2))

        return KernelSpec(dim=2, v=None, v_t=None, v_x=v_x, v_tx=None)

    def test_small_but_well_conditioned_block_solves(self, rng):
        # det = 1e-16, yet the block is 1e-8 I, a multiple of the identity
        g = Grid(0.0, 1.0, 4)
        ker = self._block_kernel(np.diag([1e-8, 1e-8]), g)
        rhs = random_anchored(g, 2, rng)
        h = collocation_solve(ker, zeros(g, 2), rhs)
        resid = sub(vt.frechet_apply(ker, zeros(g, 2), h), rhs)
        assert ac_norm(resid) <= 1e-12 * ac_norm(h)

    @pytest.mark.parametrize("block", [np.diag([1e-15, 1e2]), np.diag([1e-13, 1e3])])
    def test_ill_conditioned_block_raises(self, rng, block):
        # det = 1e-13 and 1e-10, but sigma_min / sigma_max = 1e-17 and 1e-16
        g = Grid(0.0, 1.0, 4)
        ker = self._block_kernel(block, g)
        with pytest.raises(SingularBlock, match="node 1 "):
            collocation_solve(ker, zeros(g, 2), random_anchored(g, 2, rng))

    @given(lam=st.floats(min_value=-3.0, max_value=3.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_linear_problems_solve_to_machine_precision(self, lam, seed):
        g = Grid(0.0, 1.0, 40)
        ker = linear_kernel(lam)
        rhs = random_anchored(g, 1, np.random.default_rng(seed))
        h = collocation_solve(ker, zeros(g), rhs)
        resid = sub(vt.frechet_apply(ker, zeros(g), h), rhs)
        assert ac_norm(resid) <= 1e-10 * max(1.0, ac_norm(rhs))


def test_multi_dimensional_systems_roundtrip(rng):
    # block collocation on a 2d system against its own residual
    g = Grid(0.0, 1.0, 60)
    ker = linear_kernel(0.7, dim=2)
    x0 = zeros(g, dim=2)
    rhs = random_anchored(g, 2, rng)
    h = collocation_solve(ker, x0, rhs)
    resid = sub(vt.frechet_apply(ker, x0, h), rhs)
    assert ac_norm(resid) < 1e-12
