"""Midpoint-family quadrature rules shared by the operator and the checks.

The rules are exact for integrands linear in tau on each cell; several
tests pin that exactness because the coercivity check relies on it.
The walk behind both rules and their transpose, a tree of row blocks
over leaves, is checked against a plain double loop, with leaves small
enough that each walk has several levels and a cap on the samples of a
call small enough that the larger blocks split into tiles; the sums
must not depend on the leaf size, and the partition must take each
pair once.
"""

import numpy as np
import pytest
from pytest import approx

from volterra import Grid, KernelContract
from volterra import quadrature
from volterra.quadrature import (
    cell_midpoint_values,
    cell_quarter_values,
    inner_integral,
    inner_integral_adjoint,
    node_integral,
    quarter_nodes,
)


def _triangle(f2, g):
    # outer midpoint sum of the inner rule: the double integral over the triangle
    inner = inner_integral(lambda t, tau, x: f2(t, tau)[..., None], g,
                           np.zeros((g.n_cells + 1, 1)))
    return float(g.delta * inner.sum())


@pytest.fixture
def small_blocks(monkeypatch):
    # 3-row leaves on a 23-cell grid, the last one partial, under blocks
    # of 6, 12 and 24 rows; 30 samples per call, so leaves stack several
    # to a call and the far columns of the larger blocks split into tiles
    monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", 30)
    monkeypatch.setattr(quadrature, "_LEAF", 3)


def test_node_integral_of_one_is_elapsed_time():
    g = Grid(0.0, 2.0, 25)
    out = node_integral(lambda t, tau, x: np.ones(t.shape + (1,)), g,
                        np.zeros((26, 1)))
    assert out.shape == (26, 1)
    assert np.allclose(out[:, 0], g.nodes - g.alpha, rtol=0, atol=1e-14)


def test_node_integral_exact_for_linear_integrand():
    # midpoint rule integrates tau exactly: integral to t_i is t_i^2 / 2
    g = Grid(0.0, 1.0, 40)
    out = node_integral(lambda t, tau, x: tau[..., None], g, np.zeros((41, 1)))
    assert np.allclose(out[:, 0], g.nodes**2 / 2.0, rtol=1e-14, atol=1e-16)


def test_node_integral_uses_cell_midpoint_values_of_x():
    # integrand x(tau) with x = tau: same exactness through interpolation
    g = Grid(0.0, 1.0, 40)
    x = g.nodes[:, None].copy()
    out = node_integral(lambda t, tau, xv: xv, g, x)
    assert np.allclose(out[:, 0], g.nodes**2 / 2.0, rtol=1e-14, atol=1e-16)


def test_inner_integral_exact_for_linear_integrand():
    # integral to the cell midpoint m_i picks up the half-cell correction
    g = Grid(0.0, 1.0, 30)
    out = inner_integral(lambda t, tau, x: tau[..., None], g, np.zeros((31, 1)))
    assert out.shape == (30, 1)
    assert np.allclose(out[:, 0], g.midpoints**2 / 2.0, rtol=1e-14, atol=1e-16)


def test_inner_integral_matrix_route_matches_vector_route():
    # a matrix integrand applied to h equals the vector integrand f * h(tau)
    g = Grid(0.0, 1.0, 30)
    f2 = lambda t, tau: np.cos(3.0 * (t - tau))
    h = np.sin(g.nodes)[:, None]
    vector = inner_integral(lambda t, tau, x: f2(t, tau)[..., None] * x, g, h)
    matrix = inner_integral(lambda t, tau, x: f2(t, tau)[..., None, None], g,
                            np.zeros((31, 1)), h)
    assert np.allclose(matrix, vector, rtol=1e-14, atol=1e-16)


def test_triangle_integral_of_one_is_half_square():
    # exact: the inner rule gives m_i - alpha, the outer midpoint sum is exact
    for alpha, beta, n in [(0.0, 1.0, 16), (0.0, 0.9, 50), (-1.0, 2.0, 33)]:
        g = Grid(alpha, beta, n)
        val = _triangle(lambda t, tau: np.ones_like(t), g)
        assert val == approx((beta - alpha) ** 2 / 2.0, rel=1e-14)


def test_triangle_integral_converges_quadratically():
    # smooth non-polynomial integrand: error should shrink ~ Delta^2
    exact = np.e - 2.0  # integral over the unit triangle of exp(t - tau)
    errs = []
    for n in (20, 40, 80):
        g = Grid(0.0, 1.0, n)
        errs.append(abs(_triangle(lambda t, tau: np.exp(t - tau), g) - exact))
    assert errs[0] / errs[1] == approx(4.0, rel=0.25)
    assert errs[1] / errs[2] == approx(4.0, rel=0.25)


def test_cell_midpoint_and_quarter_interpolation_weights():
    g = Grid(0.0, 1.0, 4)
    vals = np.array([[0.0], [1.0], [3.0], [2.0], [5.0]])
    mids = cell_midpoint_values(vals)
    assert np.allclose(mids[:, 0], [0.5, 2.0, 2.5, 3.5])
    quart = cell_quarter_values(vals)
    assert np.allclose(quart[:, 0], [0.25, 1.5, 2.75, 2.75])
    assert np.allclose(quarter_nodes(g), [0.0625, 0.3125, 0.5625, 0.8125])


def test_integrals_start_at_zero():
    g = Grid(0.0, 1.0, 10)
    out = node_integral(lambda t, tau, x: np.ones(t.shape + (1,)), g,
                        np.zeros((11, 1)))
    assert out[0, 0] == 0.0


# -- the leaf walk against a plain double loop ------------------------------

def _vec(dim):
    """Vector integrand of the evaluator convention, coupling t, tau and x."""
    def f(t, tau, x):
        w = np.exp(-(np.asarray(t) - tau))[..., None]
        return w * np.sin(x + np.arange(dim)) + tau[..., None]
    return f


def _mat(dim):
    """Matrix integrand, not symmetric, so the transpose is really tested."""
    a = np.arange(dim * dim).reshape(dim, dim) + 1.0

    def f(t, tau, x):
        s = (np.asarray(t) - tau)[..., None, None]
        return a * np.cos(s * a + x[..., None]) + np.eye(dim) * tau[..., None, None]
    return f


def _loop_rows(f, rows, grid, values, hvalues=None):
    xm = cell_midpoint_values(values)
    n = values.shape[1]
    out = np.zeros((rows.size, n))
    for i in range(rows.size):
        for j in range(i):
            s = f(np.array(rows[i]), np.array(grid.midpoints[j]), xm[j])
            if hvalues is not None:
                s = s @ cell_midpoint_values(hvalues)[j]
            out[i] += s
    return grid.delta * out


def _state(grid, dim, seed):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.standard_normal((grid.n_cells + 1, dim)), axis=0)
    return vals - vals[0]


@pytest.mark.parametrize("dim", [1, 2])
def test_block_rows_match_double_loop(small_blocks, dim):
    g = Grid(0.0, 1.3, 23)
    x, h = _state(g, dim, 1), _state(g, dim, 2)
    tail = 0.5 * g.delta * _vec(dim)(g.midpoints, quarter_nodes(g), cell_quarter_values(x))
    assert np.allclose(node_integral(_vec(dim), g, x),
                       _loop_rows(_vec(dim), g.nodes, g, x), rtol=1e-13, atol=1e-14)
    assert np.allclose(inner_integral(_vec(dim), g, x),
                       _loop_rows(_vec(dim), g.midpoints, g, x) + tail,
                       rtol=1e-13, atol=1e-14)
    assert np.allclose(node_integral(_mat(dim), g, x, h),
                       _loop_rows(_mat(dim), g.nodes, g, x, h), rtol=1e-13, atol=1e-14)
    tail = 0.5 * g.delta * np.einsum(
        "pab,pb->pa", _mat(dim)(g.midpoints, quarter_nodes(g), cell_quarter_values(x)),
        cell_quarter_values(h))
    assert np.allclose(inner_integral(_mat(dim), g, x, h),
                       _loop_rows(_mat(dim), g.midpoints, g, x, h) + tail,
                       rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_block_columns_match_double_loop(small_blocks, dim):
    g = Grid(0.0, 1.3, 23)
    x = _state(g, dim, 3)
    w = np.random.default_rng(4).standard_normal((g.n_cells, dim))
    f = _mat(dim)
    xm, xq, d = cell_midpoint_values(x), cell_quarter_values(x), g.delta
    u = np.zeros((g.n_cells + 1, dim))
    for i in range(g.n_cells):
        for j in range(i):
            col = d * f(np.array(g.midpoints[i]), np.array(g.midpoints[j]), xm[j]).T @ w[i]
            u[j] += 0.5 * col
            u[j + 1] += 0.5 * col
        q = 0.5 * d * f(np.array(g.midpoints[i]), np.array(quarter_nodes(g)[i]), xq[i]).T @ w[i]
        u[i] += 0.75 * q
        u[i + 1] += 0.25 * q
    assert np.allclose(inner_integral_adjoint(f, g, x, w), u, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cap", [7, 60, 1 << 18])
def test_column_sums_are_the_transpose_of_row_sums(monkeypatch, dim, cap):
    monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", cap)
    g = Grid(0.0, 1.0, 40)
    x, h = _state(g, dim, 5), _state(g, dim, 6)
    D = np.random.default_rng(7).standard_normal((g.n_cells, dim))
    lhs = float((inner_integral(_mat(dim), g, x, h) * D).sum())
    rhs = float((inner_integral_adjoint(_mat(dim), g, x, D) * h).sum())
    assert lhs == approx(rhs, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("cap", [7, 50, 1 << 18])
def test_walk_evaluates_each_pair_once(monkeypatch, cap):
    monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", cap)
    monkeypatch.setattr(quadrature, "_LEAF", 3)
    pairs = []

    def counted(value_shape):
        def f(t, tau, x):
            pairs.extend(zip(np.ravel(t), np.ravel(tau)))
            return np.ones(np.shape(t) + value_shape)
        return f

    N = 37
    g = Grid(0.0, 1.0, N)
    zero = np.zeros((N + 1, 1))
    walks = [(lambda: node_integral(counted((1,)), g, zero), N * (N + 1) // 2),
             (lambda: node_integral(counted((1, 1)), g, zero, zero), N * (N + 1) // 2),
             (lambda: inner_integral(counted((1,)), g, zero), N * (N - 1) // 2 + N),
             (lambda: inner_integral_adjoint(counted((1, 1)), g, zero, zero[:-1]),
              N * (N - 1) // 2 + N)]
    for walk, count in walks:
        pairs.clear()
        walk()
        assert len(pairs) == count
        assert len(set(pairs)) == len(pairs)
        assert all(tau < t for t, tau in pairs)


def test_block_cap_bounds_samples_per_call(monkeypatch):
    # a leaf's own triangle is one call of _LEAF (_LEAF + 1) / 2 = 36
    # samples, two of them to a call; the cap bounds every stack of
    # blocks and every tile of a block too large for one call
    monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", 100)
    monkeypatch.setattr(quadrature, "_LEAF", 8)
    sizes = []

    def f(t, tau, x):
        sizes.append(np.broadcast(t, tau).size)
        return np.ones(np.shape(t) + (1,))

    g = Grid(0.0, 1.0, 60)
    node_integral(f, g, np.zeros((61, 1)))
    assert max(sizes) <= 100
    assert len(sizes) > 2


@pytest.mark.parametrize("dim", [1, 2])
def test_leaf_size_does_not_change_the_sums(monkeypatch, dim):
    # one-row leaves, short leaves, the default and one leaf for the whole
    # walk group the same samples differently; the sums agree to rounding
    N = 150
    g = Grid(0.0, 1.3, N)
    x, h = _state(g, dim, 8), _state(g, dim, 9)
    w = np.random.default_rng(10).standard_normal((N, dim))

    def sums(leaf):
        monkeypatch.setattr(quadrature, "_LEAF", leaf)
        return [node_integral(_vec(dim), g, x), node_integral(_mat(dim), g, x, h),
                inner_integral(_vec(dim), g, x), inner_integral(_mat(dim), g, x, h),
                inner_integral_adjoint(_mat(dim), g, x, w)]

    reference = sums(64)
    for leaf in (1, 3, N + 1):
        for a, b in zip(sums(leaf), reference):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


@pytest.mark.parametrize("leaf", [1, 3, 64])
@pytest.mark.parametrize("n", [2, 64, 65, 130, 1001])
def test_by_halves_visits_the_leaves_and_takes_each_pair_once(monkeypatch, leaf, n):
    # rows [1, n), cells [0, n - 1): row i needs each cell j < i once
    monkeypatch.setattr(quadrature, "_LEAF", leaf)
    visited = []
    count = np.zeros((n, n - 1), int)

    def solve_leaf(c0, c1):
        assert (count[c0:c1, : c0 - 1] == 1).all()  # merged before the leaf
        visited.append((c0, c1))
        for i in range(c0, c1):
            count[i, c0 - 1 : i] += 1

    def merge(lo, mid, hi):
        assert visited[-1][1] == mid  # the left half is solved
        count[mid:hi, lo - 1 : mid - 1] += 1

    quadrature._by_halves(n, solve_leaf, merge)
    assert visited == [(c0, min(n, c0 + leaf)) for c0 in range(1, n, leaf)]
    assert (count == np.tri(n, n - 1, -1, int)).all()


def test_nonfinite_weights_are_named():
    g = Grid(0.0, 1.0, 20)
    w = np.ones((20, 1))
    w[7] = np.nan
    with pytest.raises(KernelContract, match="weight at cell 7 .*weights must be finite"):
        inner_integral_adjoint(_mat(1), g, np.zeros((21, 1)), w)


def test_nonfinite_half_cell_sample_is_named():
    # only the samples at t - tau = delta/4, in the half cells, are nan
    g = Grid(0.0, 1.0, 20)

    def f(t, tau, x):
        return np.where(np.asarray(t) - tau < 0.3 * g.delta, np.nan, 1.0)[..., None, None]

    zero = np.zeros((21, 1))
    with pytest.raises(KernelContract, match="half-cell sample at cell 0 "):
        inner_integral(f, g, zero, zero)
    with pytest.raises(KernelContract, match="half-cell sample at cell 0 "):
        inner_integral_adjoint(f, g, zero, zero[:-1])


def _coverage(plan, shape, offset):
    """How often the pieces of plan take each (row, column) pair; also
    checks that each far piece lies at least its block's width below it."""
    count = np.zeros(shape, int)
    for kind, h, k, n, b0, db, j0, dj in plan:
        starts = b0 if kind == quadrature._FAR else b0 + db * np.arange(n)
        for m, (b, g) in enumerate(zip(starts, np.broadcast_to(h, n))):
            j = j0 + m * dj
            if kind == quadrature._TRI:
                count[b : b + g, j : j + g] += np.tri(g, dtype=int)
                continue
            count[b : b + g, j : j + k] += 1
            if kind == quadrature._FAR:
                first = b + 0.5 * offset
                assert g > quadrature._CHEB and j + k - 1 < first - (g - 1) + 0.25
    return count


@pytest.mark.parametrize("cap", [50, quadrature._BLOCK_SAMPLES])
@pytest.mark.parametrize("leaf", [3, 8, 64])
@pytest.mark.parametrize("n", [2, 17, 18, 64, 65, 130, 1001])
def test_partition_takes_each_pair_once(leaf, n, cap):
    # node rows (half a cell before the columns), midpoint rows, and the
    # rectangles of the solves' merges, rows right after their columns or
    # apart; smooth or not, either scatter
    for smooth in (True, False):
        for transpose in (True, False):
            plan = quadrature._plan(n, n - 1, -1, True, smooth, transpose, leaf, cap)
            assert (_coverage(plan, (n, n - 1), -1) == np.tri(n, n - 1, -1, int)).all()
            plan = quadrature._plan(n, n, 0, True, smooth, transpose, leaf, cap)
            assert (_coverage(plan, (n, n), 0) == np.tri(n, n, -1, int)).all()
            for cols, offset in ((n // 2 + 1, 2 * (n // 2 + 1) + 1), (9, 21)):
                plan = quadrature._plan(n, cols, offset, False, smooth, transpose, leaf, cap)
                assert (_coverage(plan, (n, cols), offset) == 1).all()


def test_stacks_scatter_without_collisions():
    # no two pieces of a call share a row of the sums or a column of the
    # transpose, so each call adds into one strided view
    for transpose in (True, False):
        for kind, h, k, n, b0, db, j0, dj in quadrature._plan(1001, 1000, 0, True, True, transpose,
                                                              64, quadrature._BLOCK_SAMPLES):
            if transpose:
                assert n == 1 or abs(dj) >= (h if kind == quadrature._TRI else k)
            elif kind == quadrature._FAR:
                spans = sorted(zip(b0, b0 + h))
                assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
            else:
                assert n == 1 or abs(db) >= h
