"""Neumann iteration with factorial tail certificates, and direct collocation."""

import math
import time
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
from volterra.linear_solver import _halton


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

    @pytest.mark.parametrize("A", [450.0, 600.0])
    def test_tail_bound_holds_for_long_horizons(self, A):
        # sum over m >= 1 of A^m / m! is e^A - 1; a truncated series falls short
        nb = NeumannBound(l_rho=A, M=1.0, C=1.0, D=1.0, A=A)
        assert math.log(tail_bound(1, nb)) == approx(A, rel=1e-13)
        assert math.log(tail_bound(0, nb)) == approx(A, rel=1e-13)

    def test_tail_bound_beyond_float_range_is_inf(self):
        nb = NeumannBound(l_rho=800.0, M=1.0, C=1.0, D=1.0, A=800.0)
        assert tail_bound(1, nb) == math.inf

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


class TestEstimateLRho:
    def test_linear_kernel_is_flat(self):
        ker = linear_kernel(0.6)
        est = estimate_l_rho(ker, rho=2.0, samples=512,
                             domain=TriangularDomain(0.0, 1.0))
        assert est == approx(1.1 * 0.6, rel=1e-12)

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

    def test_walks_v_x_once_per_iteration(self):
        # one apply_T per iteration, none for T 0, plus the l_rho samples
        counts = {"v_x": 0}

        def v_x(t, tau, x):
            counts["v_x"] += np.broadcast(np.asarray(t), np.asarray(tau)).size
            return ker.v_x(t, tau, x)

        ker = example1_kernel(1.0)
        g = Grid(0.0, 1.0, 100)
        rng = np.random.default_rng(0)
        x0 = from_callable(lambda t: t, g)
        rhs = random_anchored(g, 1, rng, norm=0.5)
        _, rep = neumann_solve(replace(ker, v_x=v_x), x0, rhs, tol=1e-10, samples=512)
        assert rep.converged and rep.iterations >= 2
        assert counts["v_x"] == rep.iterations * 100 * 101 // 2 + 512

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
        # leaf histories in chunks of at most 60 samples, plus the leaves'
        # own triangles: the N(N+1)/2 pairs j < i, each once
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
