"""Midpoint product quadrature on the causal triangle.

Every integral in the package is discretized with one family of rules:

* integrals from alpha to a node t_i sample the i full-cell midpoints
  m_j (weight delta each) and never touch tau = t;
* integrals from alpha to a cell midpoint m_i use those midpoints for
  the full cells below t_i plus the half cell [t_i, m_i] sampled at its
  own midpoint t_i + delta/4 (weight delta/2), so the closest sample
  stays a distance delta/4 from the diagonal;
* double integrals over the triangle combine the outer midpoint m_i
  (weight delta) with the inner rule above.

The full-cell part of both rules sums samples f(r_i, m_j, x(m_j)) over
the strict lower triangle j < i, with r the nodes or the midpoints.  One
partition serves the sums and the solves.  The rows from row 1 are cut
into leaves of _LEAF rows, and the leaves are the bottom level of the
aligned binary tree of row blocks, a block of level k holding 2^k
leaves.  A leaf's own cells are one triangle.  Every block takes its
far columns: those at least its own width below its first row that the
block above it left, so each column of a row falls in one block; a leaf
also takes, exactly, the fewer than _LEAF columns left between its far
columns and its triangle.  Every sum is one call of _block_sum, the
one place that chooses its route: the triangles of node_integral and
inner_integral, the transpose in inner_integral_adjoint, and the
rectangles of the solves, which go by halves (_by_halves), a solved
half entering the rows to its right as one _block_sum over the tree of
those rows.  A leaf's own dense matrix (_leaf_triangle) is not a sum.

A walk is built from a plan (_plan), cached per shape of the walk, that
holds only block starts and widths.  On the uniform grid the blocks of
one level have the same shape, so one evaluator call takes as many
same-shape pieces (far, near or triangle) as fit under _BLOCK_SAMPLES.
Each call's samples are reduced along rows (columns, for the transpose)
before the next call, so memory grows as N.  A non-finite value raises
KernelContract naming where it is: a sum's first bad row (column), on
either route, a half-cell sample, or a factor of a lag integrand,
checked before an FFT spreads it over every row.

An integrand passed as SmoothInT (KernelSpec.integrand gives one for
kernels that declare smooth_in_t) is analytic in t off the diagonal.  A
block of more than _CHEB rows then takes its far columns at _CHEB
Chebyshev times in t and interpolates them to its rows (Fong & Darve's
black-box interpolation, in t alone): 17 samples per column, the exact
first row included, in place of one per row.  Every block's far columns
lie at least its width away, so the interpolation is as accurate at
every level, and a walk takes O(N log N) samples.  A block whose
interpolant misses its exact first row by more than _CHEB_TOL of that
row's largest value, or is not finite, is walked exactly, so a false
declaration costs samples, not accuracy, wherever a block's first row
sees it; a walk with such blocks logs one DEBUG record on
volterra.quadrature.  The sums apply the interpolation matrix after
reducing a block, the transpose applies its transpose to the weights
first.

The second route of _block_sum serves integrands w(t - tau) z(x)
passed as a LagIntegrand (KernelSpec.integrand gives one for kernels
that declare lag factors).  On the uniform grid r_i - m_j = r_{i-j} - m_0,
so every sum is one Toeplitz product, taken by FFT at O(N log N): the
triangle convolves the symbol w(r_k - m_0), zero at k = 0, with
z(x(m_j)) (times h(m_j)); a rectangle's symbol spans its R + C - 1
lags; the transpose runs the same symbol over the reversed weights.
A solve by halves then costs O(N log^2 N).

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

# Cap on the (t, tau) samples of one evaluator call.  A float64
# temporary of a full call then takes 64 KB, half glibc's default mmap
# threshold of 128 KB.  Larger temporaries are mapped afresh, or the heap
# top trimmed, from call to call, and their pages faulted in again: at
# a cap of 2^18 a CLI sensitivity run at N = 2000 made about 2,000
# minor faults, at 2^13 a few dozen.  It must exceed a leaf's triangle,
# _LEAF (_LEAF + 1) / 2 samples, taken in one call.
_BLOCK_SAMPLES = 1 << 13

# Rows per leaf of the one partition that every sum and solve walks.
_LEAF = 64

# Chebyshev times in t per far column of a block declared SmoothInT, and
# the largest miss of the block's exact first row, relative to that
# row's largest value, at which its interpolant is accepted.
_CHEB = 16
_CHEB_TOL = 1e-13

# The kinds of piece of a plan: rows by columns sampled exactly, a far
# block sampled at its Chebyshev times, and a leaf's own triangle.
_EXACT, _FAR, _TRI = range(3)

_KERNEL = "the kernel must be finite on tau < t"


def cell_midpoint_values(values: np.ndarray) -> np.ndarray:
    """Interpolate node values at cell midpoints; shape (N, dim)."""
    return 0.5 * (values[:-1] + values[1:])


def cell_quarter_values(values: np.ndarray) -> np.ndarray:
    """Interpolate node values at t_i + delta/4; shape (N, dim)."""
    return 0.75 * values[:-1] + 0.25 * values[1:]


def quarter_nodes(grid: Grid) -> np.ndarray:
    return grid.nodes[:-1] + 0.25 * grid.delta


def _by_halves(n: int, solve_leaf, merge, lo: int = 1) -> None:
    """Solve rows [lo, n) by halves, split only between leaves.

    Rows of several leaves split at mid, the leaf boundary that halves
    them: rows [lo, mid) are solved, merge(lo, mid, n) adds their cells
    [lo - 1, mid - 1) to rows [mid, n), and rows [mid, n) are solved.
    solve_leaf(c0, c1) visits the leaves [c0, c1) of _LEAF rows from
    row 1 (the last may be short) in order.
    """
    leaves = -(-(n - lo) // _LEAF)
    if leaves == 1:
        return solve_leaf(lo, n)
    mid = lo + (leaves + 1) // 2 * _LEAF
    _by_halves(mid, solve_leaf, merge, lo)
    merge(lo, mid, n)
    _by_halves(n, solve_leaf, merge, mid)


@functools.lru_cache(maxsize=64)
def _chebyshev(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The _CHEB first-kind Chebyshev points of [0, 1] and the (size, _CHEB)
    barycentric matrix that interpolates from them to size equispaced
    points from 0 to 1 (none of which is a Chebyshev point); built once
    per block height (a few dozen per grid) and read-only."""
    theta = (np.arange(_CHEB) + 0.5) * np.pi / _CHEB
    points = 0.5 + 0.5 * np.cos(theta)
    c = (-1.0) ** np.arange(_CHEB) * np.sin(theta) / np.subtract.outer(np.linspace(0.0, 1.0, size), points)
    M = c / c.sum(axis=1, keepdims=True)
    for a in (points, M):
        a.flags.writeable = False
    return points, M


@functools.cache
def _tril(size: int, by_column: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (p, q), q <= p < size, in row order (by_column: column
    order), and where each row's (column's) run of pairs starts; built
    once per leaf size and read-only."""
    if by_column:
        q, p = np.triu_indices(size)
    else:
        p, q = np.tril_indices(size)
    lead = q if by_column else p
    starts = np.flatnonzero(np.diff(lead, prepend=-1))
    for a in (p, q, starts):
        a.flags.writeable = False
    return p, q, starts


def _tiles(h: int, k: int, cap: int):
    """Yield (dr, rows, dj, cols): the sub-rectangles of h rows by k
    columns, each of at most cap samples (one sample at least)."""
    rows = min(h, cap)
    cols = max(1, cap // rows)
    for dr in range(0, h, rows):
        for dj in range(0, k, cols):
            yield dr, min(rows, h - dr), dj, min(cols, k - dj)


@functools.lru_cache(maxsize=64)
def _plan(n_rows: int, n_cols: int, offset: int, tri: bool, smooth: bool, transpose: bool,
          leaf: int, cap: int) -> tuple:
    """The stacks (kind, h, k, n, b0, db, j0, dj) of one walk.

    The walk's pieces cover rows [b0, b0 + h) by columns [j0, j0 + k), a
    triangle the pairs j0 + q <= j0 + p of its h rows.  Row k lies offset
    half cells after column k.  With tri, rows [1, n_rows) each take the
    columns below them and a leaf [c0, c1) the triangle of columns
    [c0 - 1, c1 - 1); else rows [0, n_rows) each take all n_cols columns.

    A stack is n pieces of k columns for one evaluator call, as many as
    fit under cap samples (a larger piece alone, in tiles), its m-th
    piece at columns from j0 + m dj and, h rows high, at rows from
    b0 + m db: every index of the call is a strided view.  Far pieces
    enter by their Chebyshev times alone, so their heights may differ: h
    and b0 are then arrays of each piece's and db is None.  No two
    pieces of a stack share a row (a column, for the transpose), so a
    call's sums add into a view without collisions.  Built once per walk
    shape, by nested functions alone, so that every walk of a shape
    makes the same calls; it holds a few integers per stack.
    """
    def pieces():
        # (kind, h, k, b0, j0): the far columns of the blocks, level by
        # level from the top, then each leaf's near columns and triangle
        r0 = 1 if tri else 0
        width = leaf
        while r0 + width < n_rows:
            width *= 2
        columns = np.arange(n_cols)
        taken = np.zeros(1, int)  # the far edge of each block of the level above
        while width >= leaf:
            b0 = np.arange(r0, n_rows, width)
            h = np.minimum(b0 + width, n_rows) - b0
            limit = b0 - 1 if tri else np.full(b0.size, n_cols)
            # a column exactly the width below the first row is far whatever
            # the rounding: columns lie on whole cells, rows on half cells
            first = b0 + 0.5 * offset
            edge = np.minimum(np.searchsorted(columns, 2 * first - (first + h - 1) + 0.25), limit)
            start = taken[np.arange(b0.size) // 2]
            taken = np.maximum(edge, start)
            for hb, rb, a, e in zip(h.tolist(), b0.tolist(), start.tolist(), taken.tolist()):
                if e > a:
                    yield _FAR if smooth and hb > _CHEB else _EXACT, hb, e - a, rb, a
            width //= 2
        for hb, rb, a, lim in zip(h.tolist(), b0.tolist(), taken.tolist(), limit.tolist()):
            if lim > a:
                yield _EXACT, hb, lim - a, rb, a
        if tri:
            for hb, rb in zip(h.tolist(), b0.tolist()):
                yield _TRI, hb, hb, rb, rb - 1

    def joins(stack, h, b0, j0):
        kind, heights, k, starts, j0s = stack
        if len(j0s) > 1 and j0 - j0s[-1] != j0s[1] - j0s[0]:
            return False  # the columns must stride on
        if kind != _FAR and len(starts) > 1 and b0 - starts[-1] != starts[1] - starts[0]:
            return False  # and the rows, but for far pieces
        if transpose:
            return abs(j0 - j0s[-1]) >= k
        return all(b0 + h <= b or b + g <= b0 for b, g in zip(starts, heights))

    stacks, open_ = [], {}
    for kind, h, k, b0, j0 in pieces():
        size = h * (h + 1) // 2 if kind == _TRI else (_CHEB + 1 if kind == _FAR else h) * k
        group = open_.setdefault((kind, k) if kind == _FAR else (kind, h, k), [])
        stack = next((s for s in group if joins(s, h, b0, j0)), None)
        if stack is None:
            stack = (kind, [], k, [], [])
            group.append(stack)
            stacks.append(stack)
        stack[1].append(h)
        stack[3].append(b0)
        stack[4].append(j0)
        if len(stack[3]) == max(1, cap // size):
            group.remove(stack)
    plan = []
    for kind, heights, k, starts, j0s in stacks:
        n = len(starts)
        db, dj = (starts[1] - starts[0], j0s[1] - j0s[0]) if n > 1 else (0, 0)
        if kind != _FAR:
            plan.append((kind, heights[0], k, n, starts[0], db, j0s[0], dj))
            continue
        uniform = len(set(heights)) == 1 and all(b - a == db for a, b in zip(starts, starts[1:]))
        plan.append((kind, np.array(heights), k, n, np.array(starts), db if uniform else None,
                     j0s[0], dj))
    return tuple(plan)


def _view(a: np.ndarray, start: int, shape: tuple, steps: tuple) -> np.ndarray:
    """The view of the C-contiguous a whose element [i_0, ..., i_m] (then
    a's trailing axes) is a[start + steps[0] i_0 + ... + steps[m] i_m]: a
    strided window, broadcast along a zero step, writable if a is."""
    s = a.strides[0]
    return np.ndarray(shape + a.shape[1:], a.dtype, a, start * s,
                      tuple([step * s for step in steps]) + a.strides[1:])


def _far_ok(S: np.ndarray, first_row: np.ndarray) -> np.ndarray:
    """Per far block of S (block, 1 + _CHEB, column, ...): whether the
    interpolant, by the weights first_row, meets the exact first row
    S[:, 0] to _CHEB_TOL of its largest value (false where either is
    not finite)."""
    first = S[:, 0].reshape(len(S), -1)
    miss = np.abs(first_row @ S[:, 1:].reshape(len(S), _CHEB, -1) - first).max(axis=1)
    tol = _CHEB_TOL * np.abs(first).max(axis=1)
    return (miss <= tol) & (tol < math.inf)


def _add(v: np.ndarray, r: np.ndarray, ok: np.ndarray) -> bool:
    """v[m] += r[m] for each far block m that passed its check; whether
    all passed."""
    if ok.all():
        v += r
        return True
    if ok.any():
        v[ok] += r[ok]
    return False


def _sweep(f, plan: tuple, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray,
           hc: np.ndarray | None = None, w: np.ndarray | None = None) -> np.ndarray:
    """The sums over the pairs of plan of f(rows[i], cols[j], xc[j]).

    Along each row, applied to hc[j] if given; with w, along each column
    of the transpose, sum over i of f(rows[i], cols[j], xc[j])^T w[i].
    Rectangles reach the evaluator as read-only broadcast views.  A far
    block that fails its check is walked exactly in tiles of at most
    _BLOCK_SAMPLES samples.
    """
    rows, cols, xc = (np.ascontiguousarray(a) for a in (rows, cols, xc))
    hc, w = (None if a is None else np.ascontiguousarray(a) for a in (hc, w))
    out = np.zeros(((rows if w is None else cols).size, xc.shape[1]))

    def evaluate(t, j0, dj):
        # f on the broadcast rectangles of times t (n, h, k) and columns from j0 + m dj
        views = (t, _view(cols, j0, t.shape, (dj, 0, 1)), _view(xc, j0, t.shape, (dj, 0, 1)))
        for v in views:
            v.flags.writeable = False
        return np.asarray(f(*views), float)

    def exact(h, k, n, b0, db, j0, dj):
        S = evaluate(_view(rows, b0, (n, h, k), (db, 1, 0)), j0, dj)
        if w is None:
            v = _view(out, b0, (n, h), (db, 1))
            v += S.sum(axis=2) if hc is None else np.einsum(
                "nikab,nkb->nia", S, _view(hc, j0, (n, k), (dj, 1)))
        else:
            v = _view(out, j0, (n, k), (dj, 1))
            v += np.einsum("nikba,nib->nka", S, _view(w, b0, (n, h), (db, 1)))

    def far(h, k, n, b0, db, j0, dj):
        # far blocks: the first row and the Chebyshev times of each
        first, last = rows[b0][:, None], rows[b0 + h - 1][:, None]
        points, M = _chebyshev(int(h[0]))
        times = np.concatenate([first, first + (last - first) * points], axis=1)
        S = evaluate(_view(times.reshape(-1), 0, (n, _CHEB + 1, k), (_CHEB + 1, 1, 0)), j0, dj)
        ok = _far_ok(S, M[0])  # row 0 of each height's matrix: the first row
        S = S[:, 1:]
        if w is None:
            r = S.sum(axis=2) if hc is None else np.einsum(
                "nckab,nkb->nca", S, _view(hc, j0, (n, k), (dj, 1)))
            if db is not None:
                if _add(_view(out, int(b0[0]), (n, int(h[0])), (db, 1)), M @ r, ok):
                    return
            else:  # heights differ: each block's rows on their own
                for m in np.flatnonzero(ok).tolist():
                    out[b0[m] : b0[m] + h[m]] += _chebyshev(int(h[m]))[1] @ r[m]
        else:
            if db is None:
                wc = np.stack([_chebyshev(g)[1].T @ w[b : b + g]
                               for b, g in zip(b0.tolist(), h.tolist())])
            else:
                wc = M.T @ _view(w, int(b0[0]), (n, int(h[0])), (db, 1))
            if _add(_view(out, j0, (n, k), (dj, 1)), np.einsum("nckba,ncb->nka", S, wc), ok):
                return
        for m in np.flatnonzero(~ok).tolist():
            fell.append((b0[m], h[m], j0 + m * dj, k))
            for dr, hh, dc, kk in _tiles(int(h[m]), k, _BLOCK_SAMPLES):
                exact(hh, kk, 1, int(b0[m]) + dr, 0, j0 + m * dj + dc, 0)

    fell = []
    for kind, h, k, n, b0, db, j0, dj in plan:
        if kind == _TRI:
            p, q, starts = _tril(h, w is not None)
            ri = (b0 + db * np.arange(n))[:, None] + p
            ci = (j0 + dj * np.arange(n))[:, None] + q
            S = np.asarray(f(rows[ri], cols[ci], xc[ci]), float)
            if w is None:
                if hc is not None:
                    S = np.einsum("ntab,ntb->nta", S, hc[ci])
                v = _view(out, b0, (n, h), (db, 1))
            else:
                S = np.einsum("ntba,ntb->nta", S, w[ri])
                v = _view(out, j0, (n, h), (dj, 1))
            v += np.add.reduceat(S, starts, axis=1)
        elif kind == _EXACT:  # a piece too large for one call alone goes in tiles
            for dr, hh, dc, kk in _tiles(h, k, _BLOCK_SAMPLES // n):
                exact(hh, kk, n, b0 + dr, db, j0 + dc, dj)
        else:  # a far block with too many columns for one call goes in chunks
            step = max(1, _BLOCK_SAMPLES // (n * (_CHEB + 1)))
            for dc in range(0, k, step):
                far(h, min(step, k - dc), n, b0, db, j0 + dc, dj)
    if fell:
        import logging  # here, not at start-up, which it would cost 5 ms

        r0, h, j0, k = fell[0]
        logging.getLogger(__name__).debug(
            "%d far blocks fell back to exact samples; the first: rows [%d, %d) "
            "(t from %.10g), columns [%d, %d) (tau from %.10g)",
            len(fell), r0, r0 + h, rows[r0], j0, j0 + k, cols[j0])
    return out


def _block_sum(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray,
               hc: np.ndarray | None = None, zc: np.ndarray | None = None, *,
               tri: bool = False, w: np.ndarray | None = None, why: str = _KERNEL) -> np.ndarray:
    """sum over j of f(rows[i], cols[j], xc[j]), applied to hc[j] if given.

    With tri, row i takes the columns j < i alone, so row 0 takes none.
    With w, the transpose: per column j, the sum over i of
    f(rows[i], cols[j], xc[j])^T w[i].  rows and cols lie on one uniform
    grid of cells and half cells.  A LagIntegrand is one Toeplitz
    product, rows[i] - cols[j] being the lag rows[i - j] - cols[0] (the
    lag rows[0] - cols[j - i] for j > i); zc, if given, is its f.z(xc)
    from _lag_z, which a solve evaluates once and slices per block, and
    a non-finite factor raises KernelContract ending in why.  Any other
    f is walked over the tree of the rows' blocks.  This is the one
    place that chooses the route of a sum.
    """
    R, C = rows.size, cols.size
    if isinstance(f, LagIntegrand):
        # the symbol a: w at the lags rows[0] - cols[C - 1], ..., rows[R - 1] - cols[0]
        # (with tri: 0, then rows[1:] - cols[0]).  Row i reads entry s + i of
        # a's causal convolution with u, column j of the transpose entry
        # s + R - 1 - j of that with the reversed w; no entry read wraps.
        lags = rows[1:] - cols[0]
        if not tri:
            lags = np.concatenate([rows[0] - cols[::-1], lags])
        a, z = _lag_factors(f, lags, xc, cols, why, zc)
        if tri:
            a = np.concatenate([[0.0], a])
        s, size = a.size - R, _fft_size(R + C - 1)
        u = w[::-1] if w is not None else z if hc is None else np.einsum("jab,jb->ja", z, hc)
        A = np.fft.rfft(a, size).reshape((-1,) + (1,) * (u.ndim - 1))
        y = np.fft.irfft(A * np.fft.rfft(u, size, axis=0), size, axis=0)
        if w is not None:
            return np.einsum("jba,jb->ja", z, y[s + R - C : s + R][::-1])
        y = y[s : s + R]
        if tri:
            y[0] = 0.0  # row 0 has no samples; clear the FFT's rounding
        return y
    spacing = cols[1] - cols[0] if C > 1 else rows[1] - rows[0] if R > 1 else 1.0
    offset = round(2.0 * (rows[0] - cols[0]) / spacing)
    plan = _plan(R, C, offset, tri, isinstance(f, SmoothInT), w is not None, _LEAF, _BLOCK_SAMPLES)
    return _sweep(f, plan, rows, cols, xc, hc, w)


@functools.cache
def _lag_index(size: int) -> np.ndarray:
    """max(p - q + 1, 0) for all p, q < size, built once per leaf size
    and read-only."""
    k = np.maximum(np.subtract.outer(np.arange(size), np.arange(size)) + 1, 0)
    k.flags.writeable = False
    return k


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
        return a[_lag_index(L)].reshape((L, L) + (1,) * (zx.ndim - 1)) * zx
    p, q, _ = _tril(L, False)
    samples = np.asarray(f(rows[p], cols[q], xc[q]), float)
    out = np.zeros((L, L) + samples.shape[1:])
    out[p, q] = samples
    return out


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


def _row_sums(f, rows, grid: Grid, values, hvalues, at: str, why: str):
    """delta * sum over j < i of f(rows[i], m_j, x(m_j)), times h(m_j) if given."""
    hm = None if hvalues is None else cell_midpoint_values(hvalues)
    out = _block_sum(f, rows, grid.midpoints, cell_midpoint_values(values), hm, tri=True, why=why)
    _require_finite(out, f"the sum of the row at {at}", range(rows.size), why)
    return grid.delta * out


def _half_cells(f, grid: Grid, values: np.ndarray, why: str = _KERNEL) -> np.ndarray:
    """f(m_i, t_i + delta/4, x(t_i + delta/4)) for every cell i, checked:
    the sample of the trailing half cell of the inner rule."""
    tail = np.asarray(f(grid.midpoints, quarter_nodes(grid), cell_quarter_values(values)), float)
    return _require_finite(tail, "the half-cell sample at cell", range(grid.n_cells), why)


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
    tail = _half_cells(f, grid, values, why)
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
    _require_finite(weights, "the weight at cell", range(grid.n_cells), "weights must be finite")
    mids = grid.midpoints
    col = _block_sum(fmat, mids, mids, cell_midpoint_values(values), tri=True, w=weights)
    _require_finite(col, "the column sum at cell", range(grid.n_cells))
    q = 0.5 * d * np.einsum("pba,pb->pa", _half_cells(fmat, grid, values), weights)
    u = np.zeros((grid.n_cells + 1, weights.shape[1]))
    u[:-1] += 0.5 * d * col + 0.75 * q
    u[1:] += 0.5 * d * col + 0.25 * q
    return u
