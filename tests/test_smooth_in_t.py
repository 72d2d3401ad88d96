"""The far field in t of kernels that declare smooth_in_t.

A declared kernel's far columns, block by block of the tree over its
rows, are taken from 16 Chebyshev times in t per column and interpolated
to the block's rows, each block checked against its exact first row.
Every route that walks the tree must give the undeclared kernel's
numbers to rounding, with the samples of the dyadic rule; a false
declaration must fall back where the check sees it, and a non-finite
sample must raise as it does without the declaration.
"""

import dataclasses
import logging

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
    counts = {"samples": 0, "t": [], "sizes": []}
    f = getattr(kernel, which)

    def ev(t, tau, x):
        counts["sizes"].append(np.broadcast(np.asarray(t), np.asarray(tau)).size)
        counts["samples"] += counts["sizes"][-1]
        counts["t"].append(np.unique(t))
        return f(t, tau, x)

    return dataclasses.replace(kernel, **{which: ev}), counts


def _rule(n_cells):
    """The samples of one v walk over the nodes by the dyadic rule.

    Each block of the aligned tree of 64-row leaves from node 1 takes the
    columns at least its width below its first row that the block above
    it left, at 17 samples a column (a row a column in a block of at
    most 16 rows); a leaf then takes the columns left below its first
    row, and its own triangle, exactly.
    """
    grid = vt.Grid(0.0, 1.0, n_cells)
    nodes, mids, leaf = grid.nodes, grid.midpoints, quadrature._LEAF
    width = leaf
    while 1 + width < nodes.size:
        width *= 2
    samples, taken = 0, {}  # the far edge of each block of a level, by its first row
    while width >= leaf:
        above, taken = taken, {}
        for c0 in range(1, nodes.size, width):
            c1 = min(c0 + width, nodes.size)
            edge = int(np.searchsorted(mids, 2 * nodes[c0] - nodes[c1 - 1] + 0.25 * grid.delta))
            parent = above.get(c0 - (c0 - 1) % (2 * width), 0)
            taken[c0] = max(parent, min(edge, c0 - 1))
            samples += (taken[c0] - parent) * min(c1 - c0, 17)
            if width == leaf:
                samples += (c0 - 1 - taken[c0]) * (c1 - c0) + (c1 - c0) * (c1 - c0 + 1) // 2
        width //= 2
    return samples


@pytest.mark.parametrize("n", [1000, 8000])
def test_one_walk_takes_the_samples_of_the_dyadic_rule(n):
    grid = vt.Grid(0.0, 1.0, n)
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid)
    ker, counts = _count(vt.example1_kernel(1.0), "v")
    node_integral(ker.integrand("v"), grid, x.values)
    assert isinstance(ker.integrand("v"), SmoothInT)
    assert counts["samples"] == _rule(n)
    assert max(counts["sizes"]) <= quadrature._BLOCK_SAMPLES
    if n == 1000:
        # 204,250 samples in 46 calls for the one-level far field
        assert counts["samples"] == 143_900
        assert len(counts["sizes"]) <= 30
    else:
        assert counts["samples"] < 2_000_000  # 32.0M dense, 9.05M one-level


@pytest.mark.parametrize("smooth", [True, False])
def test_no_evaluator_call_exceeds_the_cap(smooth):
    # every route's calls, far blocks, tiles of large blocks and leaf
    # triangles alike, stay under _BLOCK_SAMPLES samples
    ker = _declared(vt.example1_kernel(1.0), smooth)
    counts = {}
    for which in ("v", "v_t", "v_x", "v_tx"):
        ker, counts[which] = _count(ker, which)
    _routes(ker, vt.Grid(0.0, 1.0, 2000))
    for which, c in counts.items():
        assert 0 < max(c["sizes"]) <= quadrature._BLOCK_SAMPLES, which


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


def test_a_false_declaration_falls_back_on_the_blocks_with_the_kink(caplog):
    caplog.set_level(logging.DEBUG, logger="volterra.quadrature")
    grid = vt.Grid(0.0, 1.0, 1000)
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid)
    kink = lambda t: np.abs(np.asarray(t) - 0.5)
    samples, sums, records = {}, {}, {}
    for name, a, smooth in [("kink", kink, True), ("exact", kink, False),
                            ("twin", lambda t: np.asarray(t) - 0.5, True)]:
        ker, counts = _count(_kink(a, smooth), "v")
        caplog.clear()
        sums[name] = node_integral(ker.integrand("v"), grid, x.values)
        samples[name], records[name] = counts["samples"], [r.getMessage() for r in caplog.records]
    # node 500 (t = 1/2) lies inside the blocks of nodes [c0, 513) for c0
    # = 449, 385, 257 and 1; each of the first three walks its own far
    # columns [lo, hi) exactly as well, the last has none
    nodes, mids, d = grid.nodes, grid.midpoints, grid.delta
    blocks = {449: (258, 386), 385: (2, 258), 257: (0, 2)}
    for c0, (lo, hi) in blocks.items():
        parent = c0 - (c0 - 1) % (2 * (513 - c0))
        assert np.searchsorted(mids, 2 * nodes[c0] - nodes[512] + d / 4) == hi
        assert max(0, np.searchsorted(mids, 2 * nodes[parent] - nodes[512] + d / 4)) == lo
    assert np.searchsorted(mids, 2 * nodes[1] - nodes[512] + d / 4) == 0
    extra = sum((513 - c0) * (hi - lo) for c0, (lo, hi) in blocks.items())
    assert extra == 41_472
    assert samples["kink"] == samples["twin"] + extra
    assert samples["twin"] < samples["kink"] < samples["exact"]
    ref = sums["exact"]
    assert np.abs(sums["kink"] - ref).max() <= 1e-14 * np.abs(ref).max()
    # one DEBUG record per walk that fell back, naming the first block
    assert records["kink"] == ["3 far blocks fell back to exact samples; the first: "
                               "rows [257, 513) (t from 0.257), columns [0, 2) (tau from 0.0005)"]
    assert records["twin"] == records["exact"] == []


def test_example1_logs_no_fallback(caplog):
    caplog.set_level(logging.DEBUG, logger="volterra.quadrature")
    grid = vt.Grid(0.0, 1.0, 1000)
    _routes(vt.example1_kernel(1.0), grid)
    assert caplog.records == []


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


def _nan_past(kernel, which, t0):
    """kernel with the evaluator which nan at t > t0."""
    f = getattr(kernel, which)

    def broken(t, tau, x):
        out = f(t, tau, x)
        t = np.asarray(t).reshape(np.shape(t) + (1,) * (out.ndim - np.ndim(t)))
        return np.where(t > t0, np.nan, out)

    return dataclasses.replace(kernel, **{which: broken})


def test_nonfinite_messages_are_those_without_the_declaration():
    # every route names the same first bad row, column or node whether
    # its far blocks are interpolated or walked exactly
    grid = vt.Grid(0.0, 1.0, 1000)
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid)
    w = np.ones((grid.n_cells, 1))
    routes = {
        "v_t": lambda k: inner_integral(k.integrand("v_t"), grid, x.values),
        "v_tx": lambda k: inner_integral_adjoint(k.integrand("v_tx"), grid, x.values, w),
        "v_x": lambda k: vt.collocation_solve(k, x, x),
        "v": lambda k: vt.solve_march(k, x),
    }
    for which, route in routes.items():
        messages = []
        for smooth in (True, False):
            ker = _nan_past(_declared(vt.example1_kernel(1.0), smooth), which, 0.6)
            with pytest.raises(vt.KernelContract, match="is not finite") as err:
                route(ker)
            messages.append(str(err.value))
        assert messages[0] == messages[1], which


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
