"""Midpoint product quadrature on the causal triangle.

Every integral in the package is discretized with one family of rules:

* integrals from alpha to a node t_i sample the i full-cell midpoints
  m_j (weight delta each) and never touch tau = t;
* integrals from alpha to a cell midpoint m_i use those midpoints for
  the full cells below t_i plus the half cell [t_i, m_i] sampled at its
  own midpoint t_i + delta/4 (weight delta/2), so the closest sample
  stays a distance delta/4 from the diagonal;
* double integrals over the triangle combine the outer midpoints m_i
  (weight delta) with the inner rule above.

The full-cell part of both rules sums samples f(r_i, m_j, x(m_j)) over
the strict lower triangle j < i, with r the nodes or the midpoints.
_row_blocks walks it in blocks of rows [r0, r1) holding at most
_BLOCK_SAMPLES samples, so memory grows as N.  It fills each block in
leaves of at most _LEAF rows [c0, c1): the dense rectangle of columns
[0, c0), passed to the evaluator as broadcast views, plus the leaf's
own small triangle.  Summing the blocks along rows gives the rules;
summing along columns gives their transpose.

The solves (collocation_solve and solve_march) take the node rows in
leaves of _LEAF rows from row 1, left to right.  The cells j < c0 - 1
of a leaf have both end values solved: they are its history, one
_rectangle of column chunks that the solver reduces as they come.  The
leaf's own cells j >= c0 - 1 are one _leaf_triangle.

The second route serves integrands w(t - tau) z(x) passed as a
LagIntegrand (KernelSpec.integrand gives one for kernels that declare
lag factors).  On the uniform grid r_i - m_j = r_{i-j} - m_0, so the
full-cell sum is the causal convolution of the symbol w(r_k - m_0) with
z(x(m_j)) (times h(m_j)), taken by FFT at O(N log N); the transpose is
the same convolution run backwards.

The certification module evaluates declared growth bounds on exactly
these nodes.  That alignment matters: it turns the discrete coercivity
inequality into a chain of Cauchy-Schwarz steps with no quadrature
slack, so it holds to rounding error for every grid.
"""

from __future__ import annotations

import math

import numpy as np

from .function_space import Grid
from .kernels import LagIntegrand

# Cap on the (t, tau) samples one block evaluates and holds; a block
# still takes a whole row when a single row is longer.
_BLOCK_SAMPLES = 1 << 18

# Rows per leaf: the walk fills its blocks, and both collocation routes
# solve, in leaves of at most this many rows.
_LEAF = 64


def cell_midpoint_values(values: np.ndarray) -> np.ndarray:
    """Interpolate node values at cell midpoints; shape (N, dim)."""
    return 0.5 * (values[:-1] + values[1:])


def cell_quarter_values(values: np.ndarray) -> np.ndarray:
    """Interpolate node values at t_i + delta/4; shape (N, dim)."""
    return 0.75 * values[:-1] + 0.25 * values[1:]


def quarter_nodes(grid: Grid) -> np.ndarray:
    return grid.nodes[:-1] + 0.25 * grid.delta


def _row_blocks(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray):
    """Walk the strict lower triangle j < i of f(rows[i], cols[j], xc[j]).

    Yields (r0, r1, block) for consecutive row blocks starting at row 1
    (row 0 has no samples).  block has shape (r1 - r0, r1 - 1) + value
    shape: block[i - r0, j] is the sample for j < i and zero elsewhere.
    Every pair j < i is evaluated exactly once: each leaf of rows gets
    its columns below it as one broadcast rectangle, and the small
    triangles inside the leaves go to the evaluator in one call.
    """
    r0 = 1
    while r0 < rows.size:
        b = max(1, (math.isqrt(r0 * r0 + 4 * _BLOCK_SAMPLES) - r0) // 2)
        r1 = min(rows.size, r0 + b)
        block = None
        for c0 in range(r0, r1, _LEAF):
            c1 = min(r1, c0 + _LEAF)
            shape = (c1 - c0, c0)
            rect = np.asarray(f(np.broadcast_to(rows[c0:c1, None], shape),
                                np.broadcast_to(cols[None, :c0], shape),
                                np.broadcast_to(xc[None, :c0], shape + xc.shape[1:])), float)
            if block is None:
                block = np.zeros((r1 - r0, r1 - 1) + rect.shape[2:])
            block[c0 - r0 : c1 - r0, :c0] = rect
        # the pairs j < i inside each leaf, as offsets from r0
        m = r1 - r0
        ii, jj = np.tril_indices(min(m, _LEAF), k=-1)
        starts = np.arange(0, m, _LEAF)[:, None]
        ii, jj = (ii + starts).ravel(), (jj + starts).ravel()
        keep = ii < m  # the last leaf may be partial
        ii, jj = ii[keep], jj[keep]
        if ii.size:
            block[ii, r0 + jj] = f(rows[r0 + ii], cols[r0 + jj], xc[r0 + jj])
        yield r0, r1, block
        r0 = r1


def _rectangle(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray):
    """Walk f(rows[i], cols[j], xc[j]) over every row i and column j.

    Yields (j0, samples) for consecutive column chunks [j0, j0 + width)
    of at most _BLOCK_SAMPLES samples (one column at least), passed to
    the evaluator as broadcast views; samples has shape
    (rows.size, width) + value shape.  Each pair is evaluated once, and
    no chunk is kept after the caller moves on.
    """
    width = max(1, _BLOCK_SAMPLES // max(1, rows.size))
    for j0 in range(0, cols.size, width):
        j1 = min(cols.size, j0 + width)
        shape = (rows.size, j1 - j0)
        yield j0, np.asarray(f(np.broadcast_to(rows[:, None], shape),
                               np.broadcast_to(cols[None, j0:j1], shape),
                               np.broadcast_to(xc[None, j0:j1], shape + xc.shape[1:])), float)


def _leaf_triangle(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """f(rows[p], cols[q], xc[q]) for q <= p, in one evaluator call.

    rows, cols and xc are L long; the result has shape (L, L) + value
    shape and is zero for q > p.
    """
    p, q = np.tril_indices(rows.size)
    samples = np.asarray(f(rows[p], cols[q], xc[q]), float)
    out = np.zeros((rows.size, rows.size) + samples.shape[1:])
    out[p, q] = samples
    return out


def _fft_size(n: int) -> int:
    return 1 << max(0, n - 1).bit_length()


def _causal_conv(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """y[i] = sum over j <= i of a[i - j] u[j] for i < len(a), by FFT.

    u has shape (m, ...) with m <= len(a); the sum runs along axis 0.
    """
    n = a.size
    size = _fft_size(n + u.shape[0] - 1)
    A = np.fft.rfft(a, size).reshape((-1,) + (1,) * (u.ndim - 1))
    return np.fft.irfft(A * np.fft.rfft(u, size, axis=0), size, axis=0)[:n]


def _lag_symbol(w, rows: np.ndarray, grid: Grid) -> np.ndarray:
    """w(rows[k] - m_0) for k >= 1, zero at k = 0 (no sample j < 0)."""
    a = np.zeros(rows.size)
    a[1:] = w(rows[1:] - grid.midpoints[0])
    return a


def _row_sums(f, rows, grid: Grid, values, hvalues):
    """delta * sum over j < i of f(rows[i], m_j, x(m_j)), times h(m_j) if given."""
    xm = cell_midpoint_values(values)
    hm = None if hvalues is None else cell_midpoint_values(hvalues)
    if isinstance(f, LagIntegrand):
        zx = np.asarray(f.z(xm), float)
        u = zx if hm is None else np.einsum("jab,jb->ja", zx, hm)
        out = _causal_conv(_lag_symbol(f.w, rows, grid), u)
        out[0] = 0.0  # row 0 has no samples; clear the FFT's rounding
        return grid.delta * out
    out = np.zeros((rows.size, values.shape[1]))
    for r0, r1, block in _row_blocks(f, rows, grid.midpoints, xm):
        out[r0:r1] = block.sum(axis=1) if hm is None else \
            np.einsum("ijab,jb->ia", block, hm[: r1 - 1])
    return grid.delta * out


def node_integral(f, grid: Grid, values: np.ndarray,
                  hvalues: np.ndarray | None = None) -> np.ndarray:
    """Quadrature of f(t_i, tau, x(tau)) over [alpha, t_i] for all nodes.

    f follows the kernel evaluator convention and returns the value
    shape (dim,) per sample; with hvalues it returns a matrix per sample
    that is applied to h(tau).  Output shape (N + 1, dim); row 0 is zero.
    """
    return _row_sums(f, grid.nodes, grid, values, hvalues)


def inner_integral(f, grid: Grid, values: np.ndarray,
                   hvalues: np.ndarray | None = None) -> np.ndarray:
    """Quadrature of f(m_i, tau, x(tau)) over [alpha, m_i] for all cells.

    Full cells below t_i are sampled at their midpoints, the trailing
    half cell at t_i + delta/4.  With hvalues, f is matrix-valued and
    applied to h(tau) as in node_integral.  Output shape (N, dim).
    """
    out = _row_sums(f, grid.midpoints, grid, values, hvalues)
    tail = np.asarray(f(grid.midpoints, quarter_nodes(grid), cell_quarter_values(values)), float)
    if hvalues is not None:
        tail = np.einsum("pab,pb->pa", tail, cell_quarter_values(hvalues))
    return out + 0.5 * grid.delta * tail


def inner_integral_adjoint(fmat, grid: Grid, values: np.ndarray,
                           weights: np.ndarray) -> np.ndarray:
    """Transpose of h -> inner_integral(fmat, grid, values, h).

    Returns u of shape (N + 1, dim) with sum(u * h) equal to
    sum(weights * inner_integral(fmat, grid, values, h)) for all h.
    """
    d = grid.delta
    xm = cell_midpoint_values(values)
    if isinstance(fmat, LagIntegrand):
        back = _causal_conv(_lag_symbol(fmat.w, grid.midpoints, grid), weights[::-1])[::-1]
        col = np.einsum("jba,jb->ja", np.asarray(fmat.z(xm), float), back)
    else:
        col = np.zeros((grid.n_cells, weights.shape[1]))
        for r0, r1, block in _row_blocks(fmat, grid.midpoints, grid.midpoints, xm):
            col[: r1 - 1] += np.einsum("ijba,ib->ja", block, weights[r0:r1])
    tail = np.asarray(fmat(grid.midpoints, quarter_nodes(grid), cell_quarter_values(values)), float)
    q = 0.5 * d * np.einsum("pba,pb->pa", tail, weights)
    u = np.zeros((grid.n_cells + 1, weights.shape[1]))
    u[:-1] += 0.5 * d * col + 0.75 * q
    u[1:] += 0.5 * d * col + 0.25 * q
    return u

