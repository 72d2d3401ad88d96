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
the strict lower triangle j < i, with r the nodes or the midpoints.  One
partition serves the sums and the solves: _leaves cuts the rows from
row 1 into leaves [c0, c1) of _LEAF rows, whose own cells are one
_leaf_triangle.  The sums take a leaf's cells j < c0 - 1 as one
_rectangle of column chunks, reduced as they come along rows (columns,
for the transpose), so memory grows as N.  The solves take the leaves
by halves (_by_halves), a solved half entering the next as one
_block_sum.  A non-finite value raises KernelContract naming where it
is: a walk's first bad row (column), a half-cell sample, or a factor
of a lag integrand, checked before an FFT spreads it over every row.

An integrand passed as SmoothInT (KernelSpec.integrand gives one for
kernels that declare smooth_in_t) is analytic in t off the diagonal.
_rectangle then takes the far columns of a strip of more than _CHEB
rows, those at least the strip's width below its first row, at _CHEB
Chebyshev times in t and interpolates them to the rows (Fong & Darve's
black-box interpolation, in t alone): 17 samples per column, the exact
first row included, in place of 64.  A chunk whose interpolant misses
that exact row by more than _CHEB_TOL of its largest value, or is not
finite, is walked exactly, so a false declaration costs samples, not
accuracy, wherever the first row sees it.  The sums apply the
interpolation matrix after reducing a chunk, the transpose applies its
transpose to the weights first.

The second route serves integrands w(t - tau) z(x) passed as a
LagIntegrand (KernelSpec.integrand gives one for kernels that declare
lag factors).  On the uniform grid r_i - m_j = r_{i-j} - m_0, so the
full-cell sum is the causal convolution of the symbol w(r_k - m_0) with
z(x(m_j)) (times h(m_j)), taken by FFT at O(N log N); the transpose is
the same convolution run backwards, a block sum a Toeplitz product,
and a solve by halves O(N log^2 N).

The certification module evaluates declared growth bounds on exactly
these nodes.  That alignment matters: it turns the discrete coercivity
inequality into a chain of Cauchy-Schwarz steps with no quadrature
slack, so it holds to rounding error for every grid.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import KernelContract
from .function_space import Grid
from .kernels import LagIntegrand, SmoothInT, _shaped

# Cap on the (t, tau) samples of one rectangle chunk; a chunk still
# takes one whole column when a leaf has more rows than that.
_BLOCK_SAMPLES = 1 << 18

# Rows per leaf of the one partition that every sum and solve walks.
_LEAF = 64

# Chebyshev times in t per far column of a strip declared SmoothInT, and
# the largest miss of the strip's exact first row, relative to that
# row's largest value, at which a chunk's interpolant is accepted.
_CHEB = 16
_CHEB_TOL = 1e-13


def cell_midpoint_values(values: np.ndarray) -> np.ndarray:
    """Interpolate node values at cell midpoints; shape (N, dim)."""
    return 0.5 * (values[:-1] + values[1:])


def cell_quarter_values(values: np.ndarray) -> np.ndarray:
    """Interpolate node values at t_i + delta/4; shape (N, dim)."""
    return 0.75 * values[:-1] + 0.25 * values[1:]


def quarter_nodes(grid: Grid) -> np.ndarray:
    return grid.nodes[:-1] + 0.25 * grid.delta


def _leaves(n: int):
    """Yield the leaves [c0, c1) of rows [1, n), _LEAF rows each (the last may be short)."""
    for c0 in range(1, n, _LEAF):
        yield c0, min(n, c0 + _LEAF)


def _by_halves(n: int, solve_leaf, merge, lo: int = 1) -> None:
    """Solve rows [lo, n) by halves, split only between leaves.

    Rows of several leaves split at mid, the leaf boundary that halves
    them: rows [lo, mid) are solved, merge(lo, mid, n) adds their cells
    [lo - 1, mid - 1) to rows [mid, n), and rows [mid, n) are solved.
    solve_leaf(c0, c1) visits the leaves of _leaves(n) in order.
    """
    leaves = -(-(n - lo) // _LEAF)
    if leaves == 1:
        return solve_leaf(lo, n)
    mid = lo + (leaves + 1) // 2 * _LEAF
    _by_halves(mid, solve_leaf, merge, lo)
    merge(lo, mid, n)
    _by_halves(n, solve_leaf, merge, mid)


def _walk(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray, lo: int, hi: int):
    """Yield (j0, f(rows[i], cols[j], xc[j]) for j in [j0, j0 + width)) for
    consecutive chunks of columns [lo, hi), each of at most _BLOCK_SAMPLES
    samples (one column at least), passed as slices of broadcast views
    built once per walk."""
    width = max(1, _BLOCK_SAMPLES // max(1, rows.size))
    shape = (rows.size, hi - lo)
    t = np.broadcast_to(rows[:, None], shape)
    tau = np.broadcast_to(cols[None, lo:hi], shape)
    x = np.broadcast_to(xc[None, lo:hi], shape + xc.shape[1:])
    for j0 in range(0, hi - lo, width):
        j1 = j0 + width
        yield lo + j0, np.asarray(f(t[:, j0:j1], tau[:, j0:j1], x[:, j0:j1]), float)


@functools.cache
def _chebyshev(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The _CHEB first-kind Chebyshev points of [0, 1] and the (size, _CHEB)
    barycentric matrix that interpolates from them to size equispaced
    points from 0 to 1 (none of which is a Chebyshev point); built once
    per strip size and read-only."""
    theta = (np.arange(_CHEB) + 0.5) * np.pi / _CHEB
    points = 0.5 + 0.5 * np.cos(theta)
    c = (-1.0) ** np.arange(_CHEB) * np.sin(theta) / np.subtract.outer(np.linspace(0.0, 1.0, size), points)
    M = c / c.sum(axis=1, keepdims=True)
    for a in (points, M):
        a.flags.writeable = False
    return points, M


def _rectangle(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray):
    """Walk f(rows[i], cols[j], xc[j]) over every row i and column j.

    Yields (j0, samples, M) for consecutive column chunks [j0, j0 + width)
    of _walk.  An exact chunk has M None and samples of shape
    (rows.size, width) + value shape.  For a SmoothInT f on a strip of
    more than _CHEB equispaced rows, the far columns (at least the
    strip's width below rows[0]) are evaluated at the strip's _CHEB
    Chebyshev times plus rows[0]; a chunk whose interpolant meets that
    exact row to _CHEB_TOL of its largest value comes as the Chebyshev
    samples and M, the strip's (rows.size, _CHEB) interpolation matrix,
    and any other chunk (a non-finite one too) is walked exactly.  No
    chunk is kept after the caller moves on.
    """
    far = 0
    if isinstance(f, SmoothInT) and rows.size > _CHEB:
        # a column exactly the width below rows[0] is far whatever the rounding
        far = int(np.searchsorted(cols, 2 * rows[0] - rows[-1] + 0.25 * (rows[1] - rows[0])))
        points, M = _chebyshev(rows.size)
        times = np.concatenate([rows[:1], rows[0] + (rows[-1] - rows[0]) * points])
        for j0, S in _walk(f, times, cols, xc, 0, far):
            miss = np.abs(M[0] @ S[1:].reshape(_CHEB, -1) - S[0].reshape(-1)).max()
            if miss <= _CHEB_TOL * np.abs(S[0]).max() < math.inf:
                yield j0, S[1:], M
            else:
                for j, E in _walk(f, rows, cols, xc, j0, j0 + S.shape[1]):
                    yield j, E, None
    for j0, S in _walk(f, rows, cols, xc, far, cols.size):
        yield j0, S, None


def _reduce(S: np.ndarray, M, hc: np.ndarray | None, j0: int) -> np.ndarray:
    """The row sums of a _rectangle chunk, applied to hc[j0 + j] if given,
    on the strip's rows."""
    r = S.sum(axis=1) if hc is None else np.einsum("ijab,jb->ia", S, hc[j0 : j0 + S.shape[1]])
    return r if M is None else M @ r


def _block_sum(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray,
               hc: np.ndarray | None = None, zc: np.ndarray | None = None) -> np.ndarray:
    """sum over j of f(rows[i], cols[j], xc[j]), applied to hc[j] if given.

    A LagIntegrand is one Toeplitz product, rows[i] - cols[j] being
    lags[i - j + cols.size - 1]; zc, if given, is its f.z(xc) from _lag_z,
    which a solve evaluates once and slices per block.  Any other f is
    walked _LEAF rows at a time.
    """
    if isinstance(f, LagIntegrand):
        lags = np.concatenate([rows[0] - cols[::-1], rows[1:] - cols[0]])
        a, u = _lag_factors(f, lags, xc, cols, zc=zc)
        u = u if hc is None else np.einsum("jab,jb->ja", u, hc)
        return _causal_conv(a, u, _fft_size(lags.size))[cols.size - 1 :]
    out = np.zeros((rows.size, xc.shape[1]))
    for r0 in range(0, rows.size, _LEAF):
        for j0, S, M in _rectangle(f, rows[r0 : r0 + _LEAF], cols, xc):
            out[r0 : r0 + _LEAF] += _reduce(S, M, hc, j0)
    return out


@functools.cache
def _leaf_index(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.tril_indices(size) and max(p - q + 1, 0) for all p, q < size,
    built once per leaf size and read-only."""
    p, q = np.tril_indices(size)
    k = np.maximum(np.subtract.outer(np.arange(size), np.arange(size)) + 1, 0)
    for a in (p, q, k):
        a.flags.writeable = False
    return p, q, k


def _leaf_triangle(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray,
                   zc: np.ndarray | None = None) -> np.ndarray:
    """f(rows[p], cols[q], xc[q]) for q <= p, in one evaluator call.

    rows, cols and xc are L long; the result has shape (L, L) + value
    shape and is zero for q > p.  A LagIntegrand is gathered from its L
    lags rows[p - q] - cols[0] and L columns (zc as in _block_sum),
    checked (0 * nan is nan).
    """
    L = rows.size
    if isinstance(f, LagIntegrand):
        a = np.zeros(L + 1)  # a[0] = 0 clears q > p
        a[1:], zx = _lag_factors(f, rows - cols[0], xc, cols, zc=zc)
        return a[_leaf_index(L)[2]].reshape((L, L) + (1,) * (zx.ndim - 1)) * zx
    p, q, _ = _leaf_index(L)
    samples = np.asarray(f(rows[p], cols[q], xc[q]), float)
    out = np.zeros((L, L) + samples.shape[1:])
    out[p, q] = samples
    return out


_KERNEL = "the kernel must be finite on tau < t"


def _require_finite(a: np.ndarray, what: str, where, why: str = _KERNEL) -> np.ndarray:
    """Return a, or raise KernelContract naming where[p] for its first row p
    with a non-finite entry; why says what must be finite."""
    if math.isfinite(a.sum()):  # the common case in one reduction
        return a
    bad = np.flatnonzero(~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1))
    if bad.size:
        raise KernelContract(f"{what} {where[bad[0]]:.10g} is not finite; {why}")
    return a


def _lag_z(f, xc, taus, why: str = _KERNEL) -> np.ndarray | None:
    """f.z(xc), a value per tau, checked; None unless f is a LagIntegrand."""
    if isinstance(f, LagIntegrand):
        return _require_finite(np.asarray(f.z(xc), float), "the factor z at tau =", taus, why)
    return None


def _lag_factors(f: LagIntegrand, lags, xc, taus, why: str = _KERNEL, zc=None):
    """f.w(lags) and f.z(xc), a value per lag and per tau, each checked;
    zc, if given, is f.z(xc) from _lag_z."""
    return (_require_finite(_shaped(f.w(lags), lags.shape), "the factor w at t - tau =", lags, why),
            _lag_z(f, xc, taus, why) if zc is None else zc)


def _fft_size(n: int) -> int:
    return 1 << max(0, n - 1).bit_length()


def _causal_conv(a: np.ndarray, u: np.ndarray, size: int = 0) -> np.ndarray:
    """y[i] = sum over j <= i of a[i - j] u[j] for i < len(a), by FFT.

    u has shape (m, ...) with m <= len(a); the sum runs along axis 0.  A
    size below the default, but at least len(a), wraps into y[: m - 1].
    """
    n = a.size
    size = size or _fft_size(n + u.shape[0] - 1)
    A = np.fft.rfft(a, size).reshape((-1,) + (1,) * (u.ndim - 1))
    return np.fft.irfft(A * np.fft.rfft(u, size, axis=0), size, axis=0)[:n]


def _pieces(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray):
    """Yield (c0, j0, samples, M) covering each pair j < i once, for the
    sums: samples[p, q] = f(rows[c0 + p], cols[j0 + q], xc[j0 + q]), or
    (M @ samples)[p, q] for a Chebyshev chunk of _rectangle.

    All rectangles come first, then the leaves' triangles (zero above the
    diagonal): a caller's loop variable then holds each chunk while the
    next is evaluated, so the allocator does not hand the walk's pages
    back to the system between leaves and fault them in again.
    """
    for c0, c1 in _leaves(rows.size):
        for j0, samples, M in _rectangle(f, rows[c0:c1], cols[: c0 - 1], xc[: c0 - 1]):
            yield c0, j0, samples, M
    for c0, c1 in _leaves(rows.size):
        yield c0, c0 - 1, _leaf_triangle(f, rows[c0:c1], cols[c0 - 1 : c1 - 1], xc[c0 - 1 : c1 - 1]), None


def _row_sums(f, rows, grid: Grid, values, hvalues, at: str, why: str):
    """delta * sum over j < i of f(rows[i], m_j, x(m_j)), times h(m_j) if given."""
    xm = cell_midpoint_values(values)
    hm = None if hvalues is None else cell_midpoint_values(hvalues)
    if isinstance(f, LagIntegrand):
        # the symbol w(r_k - m_0), zero at k = 0 (no sample j < 0)
        a, zx = _lag_factors(f, rows[1:] - grid.midpoints[0], xm, grid.midpoints, why)
        u = zx if hm is None else np.einsum("jab,jb->ja", zx, hm)
        out = _causal_conv(np.concatenate([[0.0], a]), u)
        out[0] = 0.0  # row 0 has no samples; clear the FFT's rounding
        return grid.delta * out
    out = np.zeros((rows.size, values.shape[1]))
    for c0, j0, S, M in _pieces(f, rows, grid.midpoints, xm):
        r = _reduce(S, M, hm, j0)
        out[c0 : c0 + len(r)] += r
    _require_finite(out, f"the sum of the row at {at}", range(rows.size), why)
    return grid.delta * out


def node_integral(f, grid: Grid, values: np.ndarray,
                  hvalues: np.ndarray | None = None) -> np.ndarray:
    """Quadrature of f(t_i, tau, x(tau)) over [alpha, t_i] for all nodes.

    f follows the kernel evaluator convention and returns the value
    shape (dim,) per sample; with hvalues it returns a matrix per sample
    that is applied to h(tau).  Output shape (N + 1, dim); row 0 is zero.
    """
    return _row_sums(f, grid.nodes, grid, values, hvalues, "node", _KERNEL)


def inner_integral(f, grid: Grid, values: np.ndarray,
                   hvalues: np.ndarray | None = None, why: str = _KERNEL) -> np.ndarray:
    """Quadrature of f(m_i, tau, x(tau)) over [alpha, m_i] for all cells.

    Full cells below t_i are sampled at their midpoints, the trailing
    half cell at t_i + delta/4.  With hvalues, f is matrix-valued and
    applied to h(tau) as in node_integral.  Output shape (N, dim).  A
    non-finite sample raises KernelContract ending in why.
    """
    out = _row_sums(f, grid.midpoints, grid, values, hvalues, "cell", why)
    tail = np.asarray(f(grid.midpoints, quarter_nodes(grid), cell_quarter_values(values)), float)
    _require_finite(tail, "the half-cell sample at cell", range(grid.n_cells), why)
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
    _require_finite(weights, "the weight at cell", range(grid.n_cells), "weights must be finite")
    if isinstance(fmat, LagIntegrand):
        a, zx = _lag_factors(fmat, grid.midpoints[1:] - grid.midpoints[0], xm, grid.midpoints)
        back = _causal_conv(np.concatenate([[0.0], a]), weights[::-1])[::-1]
        col = np.einsum("jba,jb->ja", zx, back)
    else:
        col = np.zeros((grid.n_cells, weights.shape[1]))
        for c0, j0, S, M in _pieces(fmat, grid.midpoints, grid.midpoints, xm):
            w = weights[c0 : c0 + (len(S) if M is None else len(M))]
            col[j0 : j0 + S.shape[1]] += np.einsum("ijba,ib->ja", S, w if M is None else M.T @ w)
        _require_finite(col, "the column sum at cell", range(grid.n_cells))
    tail = np.asarray(fmat(grid.midpoints, quarter_nodes(grid), cell_quarter_values(values)), float)
    _require_finite(tail, "the half-cell sample at cell", range(grid.n_cells))
    q = 0.5 * d * np.einsum("pba,pb->pa", tail, weights)
    u = np.zeros((grid.n_cells + 1, weights.shape[1]))
    u[:-1] += 0.5 * d * col + 0.75 * q
    u[1:] += 0.5 * d * col + 0.25 * q
    return u
