"""The far field in t of kernels that declare smooth_in_t.

A declared kernel's far rectangles are taken from 16 Chebyshev times in
t per column and interpolated to the strip's rows, each chunk checked
against its exact first row.  Every route that walks a rectangle must
give the undeclared kernel's numbers to rounding, with fewer samples;
a false declaration must fall back where the check sees it, and a
non-finite sample must raise as it does without the declaration.
"""

import dataclasses

import numpy as np
import pytest

import volterra as vt
from volterra import quadrature
from volterra.kernels import LagIntegrand, SmoothInT
from volterra.quadrature import inner_integral, inner_integral_adjoint, node_integral

_MIX = np.array([[0.5, 0.2], [-0.3, 0.4]])


def _smooth_dim2():
    """v = s exp(-s) B sin(x), s = t - tau: analytic in t, dim 2."""
    def v(t, tau, x):
        s = (np.asarray(t) - tau)[..., None]
        return s * np.exp(-s) * (np.sin(x) @ _MIX.T)

    def v_t(t, tau, x):
        s = (np.asarray(t) - tau)[..., None]
        return (1.0 - s) * np.exp(-s) * (np.sin(x) @ _MIX.T)

    def v_x(t, tau, x):
        s = (np.asarray(t) - tau)[..., None, None]
        return s * np.exp(-s) * _MIX * np.cos(x)[..., None, :]

    def v_tx(t, tau, x):
        s = (np.asarray(t) - tau)[..., None, None]
        return (1.0 - s) * np.exp(-s) * _MIX * np.cos(x)[..., None, :]

    return vt.KernelSpec(dim=2, v=v, v_t=v_t, v_x=v_x, v_tx=v_tx, smooth_in_t=True)


def _declared(kernel, smooth=True):
    return dataclasses.replace(kernel, smooth_in_t=smooth)


def _routes(kernel, grid):
    """Every walk of a rectangle: the sums, the adjoint and both solves."""
    dim = kernel.dim
    x = vt.from_callable(lambda t: [2.0 * np.sin(3.0 * t + k) - 2.0 * np.sin(k)
                                    for k in range(dim)], grid, dim=dim)
    h = vt.from_callable(lambda t: [t * np.cos(5.0 * t + k) for k in range(dim)], grid, dim=dim)
    y = vt.from_callable(lambda t: [t + k * t * t for k in range(dim)], grid, dim=dim)
    weights = np.random.default_rng(0).standard_normal((grid.n_cells, dim))
    march, rep = vt.solve_march(kernel, y)
    assert rep.converged
    return {
        "node v": node_integral(kernel.integrand("v"), grid, x.values),
        "node v_x": node_integral(kernel.integrand("v_x"), grid, x.values, h.values),
        "inner v_t": inner_integral(kernel.integrand("v_t"), grid, x.values),
        "inner v_tx": inner_integral(kernel.integrand("v_tx"), grid, x.values, h.values),
        "adjoint v_tx": inner_integral_adjoint(kernel.integrand("v_tx"), grid, x.values, weights),
        "collocation": vt.collocation_solve(kernel, x, h).values,
        "march": march.values,
    }


@pytest.mark.parametrize("kernel, n", [(vt.example1_kernel(1.0), 1000),
                                       (vt.example1_kernel(1.0), 4000),
                                       (_smooth_dim2(), 1000)],
                         ids=["example1-1000", "example1-4000", "dim2-1000"])
def test_declared_and_undeclared_agree(kernel, n):
    grid = vt.Grid(0.0, 1.0, n)
    far, exact = _routes(kernel, grid), _routes(_declared(kernel, False), grid)
    for route, ref in exact.items():
        assert np.abs(far[route] - ref).max() <= 1e-13 * np.abs(ref).max(), route


def _count(kernel, which):
    """kernel with the evaluator which counting its (t, tau) samples, and the count."""
    counts = {"samples": 0, "t": []}
    f = getattr(kernel, which)

    def ev(t, tau, x):
        counts["samples"] += np.broadcast(np.asarray(t), np.asarray(tau)).size
        counts["t"].append(np.unique(t))
        return f(t, tau, x)

    return dataclasses.replace(kernel, **{which: ev}), counts


def test_one_walk_takes_fewer_than_half_the_samples():
    grid = vt.Grid(0.0, 1.0, 1000)
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid)
    ker, counts = _count(vt.example1_kernel(1.0), "v")
    node_integral(ker.integrand("v"), grid, x.values)
    assert counts["samples"] < 1000 * 1001 // 2 / 2
    assert isinstance(ker.integrand("v"), SmoothInT)


def test_merges_of_the_solves_take_fewer_samples():
    grid = vt.Grid(0.0, 1.0, 1000)
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid)
    taken = []
    for smooth in (True, False):
        ker, counts = _count(_declared(vt.example1_kernel(1.0), smooth), "v_x")
        vt.collocation_solve(ker, x, x)
        taken.append(counts["samples"])
    assert taken[0] < taken[1] / 2


def _kink(a, smooth):
    # |t - 1/2| (t - tau) sin x: analytic in t except at t = 1/2
    return vt.scalar_kernel(lambda t, tau, x: a(t) * (t - tau) * np.sin(x),
                            lambda t, tau, x: 0.0 * x,
                            lambda t, tau, x: a(t) * (t - tau) * np.cos(x),
                            lambda t, tau, x: 0.0 * x, smooth_in_t=smooth)


def test_a_false_declaration_falls_back_on_the_leaf_with_the_kink():
    grid = vt.Grid(0.0, 1.0, 1000)
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid)
    kink = lambda t: np.abs(np.asarray(t) - 0.5)
    samples, sums = {}, {}
    for name, a, smooth in [("kink", kink, True), ("exact", kink, False),
                            ("twin", lambda t: np.asarray(t) - 0.5, True)]:
        ker, counts = _count(_kink(a, smooth), "v")
        sums[name] = node_integral(ker.integrand("v"), grid, x.values)
        samples[name] = counts["samples"]
    # the leaf of nodes [449, 513) holds 1/2: its far columns, those at
    # least 63 cells below node 449, are walked exactly as well
    c0 = 1 + quadrature._LEAF * (499 // quadrature._LEAF)
    far = np.searchsorted(grid.midpoints, grid.nodes[c0] - 63 * grid.delta)
    assert (c0, far) == (449, 386)
    assert samples["kink"] == samples["twin"] + quadrature._LEAF * far
    assert samples["twin"] < samples["kink"] < samples["exact"]
    ref = sums["exact"]
    assert np.abs(sums["kink"] - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("smooth", [True, False])
def test_nonfinite_sample_raises_as_without_the_declaration(smooth):
    ker = _declared(vt.example1_kernel(1.0), smooth)
    v = ker.v
    ker = dataclasses.replace(ker, v=lambda t, tau, x: np.where(np.asarray(t)[..., None] > 0.75,
                                                                np.nan, v(t, tau, x)))
    grid = vt.Grid(0.0, 1.0, 1000)
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid)
    with pytest.raises(vt.KernelContract, match="row at node 751 is not finite"):
        vt.apply_V(ker, x)


@pytest.mark.parametrize("n, chebyshev", [(16, False), (80, False), (81, True)])
def test_strips_of_at_most_16_rows_sample_only_the_rows(n, chebyshev):
    # 80 cells: leaves of 64 and 16 rows; 81 cells: the last has 17
    grid = vt.Grid(0.0, 1.0, n)
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid)
    ker, counts = _count(vt.example1_kernel(1.0), "v")
    node_integral(ker.integrand("v"), grid, x.values)
    times = np.unique(np.concatenate(counts["t"]))
    assert np.isin(times, grid.nodes).all() != chebyshev


def test_lag_kernels_take_the_lag_route():
    w = lambda s: np.sin(2.0 * s) + s * s
    ker = vt.lag_kernel(w, lambda s: 2.0 * np.cos(2.0 * s) + 2.0 * s, np.tanh,
                        lambda x: (1.0 / np.cosh(x) ** 2)[..., None], smooth_in_t=True)
    assert all(isinstance(ker.integrand(k), LagIntegrand) for k in ("v", "v_t", "v_x", "v_tx"))
    grid = vt.Grid(0.0, 1.0, 1000)
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid)
    assert np.array_equal(vt.apply_V(ker, x).values, vt.apply_V(_declared(ker, False), x).values)
