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

A walk is laid out once per shape.  Its plan (_plan) holds the
evaluator calls as block starts and widths: on the uniform grid the
blocks of one level have the same shape, so one call takes as many
same-shape pieces (far, near or triangle) as fit under _BLOCK_SAMPLES,
and a stack too large for one call is several.  The walk of the shape
(_walk) owns buffers for the rows, columns, x, h or the weights, the far
times and the sums, and holds every call's views of them, a far call's
interpolation matrix, and the weights of the far check.  A walk copies
its grid and inputs in, derives the first row and Chebyshev times of
every far block in one gather, and per call only evaluates f, checks a
far call, reduces and adds; a triangle gathers its samples' t, tau and
x first.  A walk given a recorder keeps each call's samples, a far
call's with the outcome of its check; a later walk given them (a
replay, as neumann_solve takes after its first iteration) copies in h
or w alone and per call only reduces and adds: it reads neither the
grid nor x, gathers no triangle, and takes each far check's outcome as
recorded.  Nothing of one grid's values is kept for the next.  Each
call's samples are reduced along rows (columns, for the transpose)
before the next call, so memory grows as N.  A non-finite value raises
KernelContract naming where it is: a sum's first bad row (column), on
either route, a half-cell sample, or a factor of a lag integrand,
checked before an FFT spreads it over every row.  An FFT product past
the float range is spread so too, and reads as the sum's first row.

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
that declare lag factors).  A caller binds it once to its rows r and
columns m (_lattice): on the uniform grid r_i - m_j = r_{i-j} - m_0, so
w is evaluated and checked once, on the lags r_k - m_0, as a _LagTable,
and the sums read z(x(m_j)) where any other integrand reads x(m_j)
(_columns).  Every sum is one Toeplitz product, by FFT at O(N log N):
the triangle convolves the symbol w(r_k - m_0), zero at k = 0, with
z(x(m_j)) (times h(m_j)); a rectangle's symbol is the table's run over
its R + C - 1 lags; the transpose runs the same symbol over the
reversed weights.  A solve binds its grid's nodes and midpoints, so
every merge slices its symbol from one table, taking one FFT per shape,
every leaf reads one shared Toeplitz gather, and a solve by halves
costs O(N log^2 N).  A collocation solve whose T contracts goes by no
halves: each of its few steps is one product of the whole triangle, at
O(N log N).

The certification module evaluates declared growth bounds on exactly
these nodes.  That alignment matters: it turns the discrete coercivity
inequality into a chain of Cauchy-Schwarz steps with no quadrature
slack, so it holds to rounding error for every grid.
"""

from __future__ import annotations

import copy
import functools
import math
import threading

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


def _leaves(n: int, lo: int = 1) -> int:
    """The leaves of _LEAF rows that rows [lo, n) split into (the last
    may be short)."""
    return -(-(n - lo) // _LEAF)


def _by_halves(n: int, solve_leaf, merge, lo: int = 1) -> None:
    """Solve rows [lo, n) by halves, split only between leaves.

    Rows of several leaves split at mid, the leaf boundary that halves
    them: rows [lo, mid) are solved, merge(lo, mid, n) adds their cells
    [lo - 1, mid - 1) to rows [mid, n), and rows [mid, n) are solved.
    solve_leaf(c0, c1) visits the leaves [c0, c1) of _LEAF rows from
    row 1 (the last may be short) in order.
    """
    leaves = _leaves(n, lo)
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
def _tril(size: int, by_column: bool) -> tuple[np.ndarray, ...]:
    """The pairs (p, q), q <= p < size, in row order (by_column: column
    order), where each row's (column's) run of pairs starts, and the
    runs' lengths; built once per leaf size and read-only."""
    if by_column:
        q, p = np.triu_indices(size)
    else:
        p, q = np.tril_indices(size)
    lead = q if by_column else p
    starts = np.flatnonzero(np.diff(lead, prepend=-1))
    runs = np.diff(starts, append=lead.size)
    for a in (p, q, starts, runs):
        a.flags.writeable = False
    return p, q, starts, runs


@functools.lru_cache(maxsize=256)
def _tiles(h: int, k: int, cap: int) -> tuple:
    """The sub-rectangles (dr, rows, dj, cols) of h rows by k columns, each
    of at most cap samples (one sample at least); built once per shape."""
    rows = min(h, cap)
    cols = max(1, cap // rows)
    return tuple((dr, min(rows, h - dr), dj, min(cols, k - dj))
                 for dr in range(0, h, rows) for dj in range(0, k, cols))


@functools.lru_cache(maxsize=64)
def _plan(n_rows: int, n_cols: int, offset: int, tri: bool, smooth: bool, transpose: bool,
          leaf: int, cap: int) -> tuple:
    """The evaluator calls (kind, h, k, n, b0, db, j0, dj) of one walk.

    The walk's pieces cover rows [b0, b0 + h) by columns [j0, j0 + k), a
    triangle the pairs j0 + q <= j0 + p of its h rows.  Row k lies offset
    half cells after column k.  With tri, rows [1, n_rows) each take the
    columns below them and a leaf [c0, c1) the triangle of columns
    [c0 - 1, c1 - 1); else rows [0, n_rows) each take all n_cols columns.
    A block of such a rectangle whose far columns number _CHEB or fewer,
    too few to pay for a call of their own, leaves them to the level
    below: to its child blocks or, at a leaf, to its exact columns.  In a
    merge of the solves, rows right after the columns, the top block's
    are one or two.  In the triangle such pieces of several levels stack
    into one call, and the walk keeps the dyadic rule.

    A stack is n pieces of k columns, as many as fit under cap samples,
    its m-th piece at columns from j0 + m dj and, h rows high, at rows
    from b0 + m db: every index of the call is a strided view.  Far
    pieces enter by their Chebyshev times alone, so their heights may
    differ: h and b0 are then arrays of each piece's and db is None.  No
    two pieces of a stack share a row (a column, for the transpose), so
    a call's sums add into a view without collisions.  A stack too large
    for one call is several: an exact one in tiles of at most cap
    samples, a far one in chunks of its columns.  Built once per walk
    shape, by nested or cached helpers alone, so that every walk of a
    shape, the first included, calls the same module functions; it
    holds a few integers per call.
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
            if smooth and not tri:  # slivers go to the level below
                taken = np.where((taken - start <= _CHEB) & (h > _CHEB), start, taken)
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
    calls = []
    for kind, heights, k, starts, j0s in stacks:
        n = len(starts)
        db, dj = (starts[1] - starts[0], j0s[1] - j0s[0]) if n > 1 else (0, 0)
        if kind == _TRI:
            calls.append((kind, heights[0], k, n, starts[0], db, j0s[0], dj))
        elif kind == _EXACT:
            calls.extend((kind, hh, kk, n, starts[0] + dr, db, j0s[0] + dc, dj)
                         for dr, hh, dc, kk in _tiles(heights[0], k, cap // n))
        else:
            uniform = len(set(heights)) == 1 and all(b - a == db for a, b in zip(starts, starts[1:]))
            h, b0 = np.array(heights), np.array(starts)
            step = max(1, cap // (n * (_CHEB + 1)))
            calls.extend((kind, h, min(step, k - dc), n, b0, db if uniform else None, j0s[0] + dc, dj)
                         for dc in range(0, k, step))
    return tuple(calls)


@functools.lru_cache(maxsize=64)
def _walk(n_rows: int, n_cols: int, offset: int, tri: bool, smooth: bool, transpose: bool,
          leaf: int, cap: int, dim: int):
    """The walk of one shape: sums(f, rows, cols, xc, hc=None, w=None),
    the sums over the calls of _plan of f(rows[i], cols[j], xc[j]), for
    integrands of dim components.

    Along each row, applied to hc[j] if given; with w (transpose), along
    each column, sum over i of f(rows[i], cols[j], xc[j])^T w[i].  The
    walk owns a buffer for each of rows, cols, xc, hc or w, the far
    times and the sums, and every view of every call is built once, over
    them: rectangles reach the evaluator as read-only broadcast views, a
    triangle as arrays gathered from its strided views; a far call also
    holds its interpolation matrix.  A walk copies its inputs in,
    derives the first row and Chebyshev times of every far block in one
    gather, and then each call only evaluates f, checks a far call
    against its exact first rows, reduces and adds.  A far block that
    fails its check is walked exactly in tiles of at most cap samples.
    Evaluators must not keep their inputs past a call.  A walk of the
    shape while this one is in use (an evaluator's own walk, another
    thread) builds a walk of its own.  Built by nested or cached helpers
    alone, as _plan is.

    Given an empty list recorded, a walk appends its shape and one entry
    per evaluator call: the float samples, or for a far call the pair of
    samples and the outcome of each of its blocks' checks.  A later walk
    given the list replays them in order, never calling f, as its calls
    follow from its shape and samples alone.  A replay copies in hc or w
    and per call only reduces and adds, interpolating the far blocks that
    passed and walking the recorded exact samples of those that fell
    back, so it logs and gives the recorded walk's sums bit for bit for
    the same hc or w.  It skips whatever only f or the far check reads:
    rows, cols and xc are not copied in (nor read: its DEBUG record names
    rows_in and cols_in), no far times are built, no triangle gathers its
    t, tau and x, and no far check is taken again.  A walk of another
    shape raises RuntimeError.
    """
    size = _CHEB + 1
    rows, cols = np.empty(n_rows), np.empty(n_cols)
    xc = np.empty((n_cols, dim))
    hc_or_w = np.empty((n_rows if transpose else n_cols, dim))
    out = np.empty((n_cols if transpose else n_rows, dim))
    # the weights on a far call's 1 + _CHEB rows of samples that give the
    # interpolant's miss of the first row, and that row itself: row 0 of
    # every height's matrix interpolates to the first row
    points, M = _chebyshev(size)
    checks = np.zeros((2, size))
    checks[0, 0], checks[0, 1:], checks[1, 0] = -1.0, M[0], 1.0
    # the far blocks in call order (column chunks of a stack share its blocks)
    plan = _plan(n_rows, n_cols, offset, tri, smooth, transpose, leaf, cap)
    blocks, firsts, lasts = {}, [], []
    for kind, h, k, n, b0, db, j0, dj in plan:
        if kind == _FAR and (key := (tuple(b0.tolist()), tuple(h.tolist()))) not in blocks:
            blocks[key] = len(firsts)
            firsts.extend(b0.tolist())
            lasts.extend((b0 + h - 1).tolist())
    firsts, lasts = np.array(firsts, int), np.array(lasts, int)
    times = np.empty((firsts.size, size))

    def view(a, shape, start, steps, writable=False):
        # the window of a whose element [i] (a row, if a is 2-D) is
        # a[start + steps . i], broadcast along a zero step
        s = a.strides[0]
        v = np.ndarray(shape + a.shape[1:], float, a, s * start,
                       tuple([step * s for step in steps]) + a.strides[1:])
        v.flags.writeable = writable
        return v

    def sides(n, h, k, b0, db, j0, dj):
        # the (n, h) rows of out or w and the (n, k) columns of hc or out
        r = view(out if not transpose else hc_or_w, (n, h), b0, (db, 1), not transpose)
        c = view(hc_or_w if not transpose else out, (n, k), j0, (dj, 1), transpose)
        return r, c

    def exact(h, k, n, b0, db, j0, dj):
        shape = (n, h, k)
        return (_EXACT, view(rows, shape, b0, (db, 1, 0)), view(cols, shape, j0, (dj, 0, 1)),
                view(xc, shape, j0, (dj, 0, 1)), *sides(n, h, k, b0, db, j0, dj))

    calls = []
    for kind, h, k, n, b0, db, j0, dj in plan:
        if kind == _EXACT:
            calls.append(exact(h, k, n, b0, db, j0, dj))
        elif kind == _TRI:
            p, q, starts, runs = _tril(h, transpose)
            r, c = sides(n, h, h, b0, db, j0, dj)
            calls.append((_TRI, view(rows, (n, h), b0, (db, 1)), view(cols, (n, h), j0, (dj, 1)),
                          view(xc, (n, h), j0, (dj, 1)), r, c, p, q, starts, runs))
        else:
            shape, fb = (n, size, k), blocks[(tuple(b0.tolist()), tuple(h.tolist()))]
            r, c = sides(n, int(h[0]), k, int(b0[0]), db or 0, j0, dj)
            heights = None if db is not None else tuple(
                (b, g, _chebyshev(g)[1]) for b, g in zip(b0.tolist(), h.tolist()))
            calls.append((_FAR, view(times.reshape(-1), shape, size * fb, (size, 1, 0)),
                          view(cols, shape, j0, (dj, 0, 1)), view(xc, shape, j0, (dj, 0, 1)),
                          r, c, _chebyshev(int(h[0]))[1], heights,
                          (h.tolist(), b0.tolist(), k, j0, dj)))
    lock = threading.Lock()
    walk_shape = (n_rows, n_cols, offset, tri, smooth, transpose, leaf, cap, dim)

    def sums(f, rows_in, cols_in, xc_in, hc=None, w=None, recorded=None):
        if not lock.acquire(blocking=False):
            return _walk.__wrapped__(*walk_shape)(f, rows_in, cols_in, xc_in, hc, w, recorded)
        try:
            if hc is not None or w is not None:
                hc_or_w[:] = w if transpose else hc
            out.fill(0.0)
            if recorded:  # a replay reads its samples and far checks, never the grid
                if recorded[0] != walk_shape:
                    raise RuntimeError(f"a walk of shape {walk_shape} cannot replay the samples "
                                       f"of a walk of shape {recorded[0]}")
                fell = run(None, None, iter(recorded[1:]).__next__, hc is not None)
            else:
                rows[:], cols[:], xc[:] = rows_in, cols_in, xc_in
                if firsts.size:  # the first row and the Chebyshev times of every far block
                    a = rows[firsts][:, None]
                    times[:] = np.concatenate([a, a + (rows[lasts][:, None] - a) * points], axis=1)
                keep = None if recorded is None else recorded.append
                if keep:
                    keep(walk_shape)
                fell = run(f.f if isinstance(f, SmoothInT) else f, keep, None, hc is not None)
            if fell:
                import logging  # here, not at start-up, which it would cost 5 ms

                r0, h, j0, k = fell[0]
                logging.getLogger(__name__).debug(
                    "%d far blocks fell back to exact samples; the first: rows [%d, %d) "
                    "(t from %.10g), columns [%d, %d) (tau from %.10g)",
                    len(fell), r0, r0 + h, rows_in[r0], j0, j0 + k, cols_in[j0])
            return out.copy()
        finally:
            lock.release()

    def run(f, keep, replayed, with_h):
        # the calls in order, f's samples evaluated and kept if keep is given
        # (a far call's with its check), or replayed as kept; the far blocks
        # that fell back
        def evaluated(t, tau, x):
            S = np.asarray(f(t, tau, x), float)
            if keep:
                keep(S)
            return S

        def sample_exact(call):
            _, t, tau, x, r, c = call
            S = replayed() if replayed else evaluated(t, tau, x)
            if transpose:
                c += np.einsum("nikba,nib->nka", S, r)
            elif with_h:
                r += np.einsum("nikab,nkb->nia", S, c)
            else:
                r += add(S, 2)

        def sample_far(call):
            _, t, tau, x, r, c, M, heights, (h, b0, k, j0, dj) = call
            if replayed:
                S, ok = replayed()
            else:
                S = np.asarray(f(t, tau, x), float)
                # per block, the largest miss of its exact first row by the
                # interpolant and that row's largest value, by one product;
                # the bound must be finite, and no non-finite miss meets it
                check = largest(np.abs(checks @ S.reshape(len(S), size, -1)), 2).tolist()
                ok = [miss <= _CHEB_TOL * top < math.inf for miss, top in check]
                if keep:
                    keep((S, ok))
            n, passed = len(S), all(ok)
            S = S[:, 1:]
            if transpose:
                if heights is None:
                    wc = M.T @ r
                else:
                    wc = np.stack([Mg.T @ hc_or_w[b : b + g] for b, g, Mg in heights])
                v, s = c, np.einsum("nckba,ncb->nka", S, wc)
            else:
                s = np.einsum("nckab,nkb->nca", S, c) if with_h else add(S, 2)
                if heights is None:
                    v, s = r, M @ s
                else:  # heights differ: each block's rows on their own
                    v = None
                    for m in range(n):
                        if ok[m]:
                            b, g, Mg = heights[m]
                            out[b : b + g] += Mg @ s[m]
            if passed:
                if v is not None:
                    v += s
                return
            ok = np.array(ok)
            if v is not None and ok.any():
                v[ok] += s[ok]
            for m in np.flatnonzero(~ok).tolist():
                fell.append((b0[m], h[m], j0 + m * dj, k))
                for dr, hh, dc, kk in _tiles(h[m], k, cap):
                    sample_exact(exact(hh, kk, 1, b0[m] + dr, 0, j0 + m * dj + dc, 0))

        def sample_triangle(call):
            _, t, tau, x, r, c, p, q, starts, runs = call
            if replayed:
                S = replayed()
            else:
                if transpose:  # in column order: column q repeats over its run
                    t, tau, x = t.take(p, 1), tau.repeat(runs, 1), x.repeat(runs, 1)
                else:  # in row order: row p repeats over its run
                    t, tau, x = t.repeat(runs, 1), tau.take(q, 1), x.take(q, 1)
                S = evaluated(t, tau, x)
            if transpose:
                c += np.add.reduceat(np.einsum("ntba,ntb->nta", S, r.take(p, 1)), starts, 1)
            elif with_h:
                r += np.add.reduceat(np.einsum("ntab,ntb->nta", S, c.take(q, 1)), starts, 1)
            else:
                r += np.add.reduceat(S, starts, 1)

        fell, sample, add, largest = [], (sample_exact, sample_far, sample_triangle), \
            np.add.reduce, np.maximum.reduce
        for call in calls:
            sample[call[0]](call)
        return fell

    return sums


def _block_sum(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray,
               hc: np.ndarray | None = None, *, tri: bool = False, w: np.ndarray | None = None,
               recorded: list | None = None) -> np.ndarray:
    """sum over j of f(rows[i], cols[j], xc[j]), applied to hc[j] if given.

    With tri, row i takes the columns j < i alone, so row 0 takes none.
    With w, the transpose: per column j, the sum over i of
    f(rows[i], cols[j], xc[j])^T w[i].  rows and cols lie on one uniform
    grid of cells and half cells, and xc is what _columns(f, ...) gives.
    A _LagTable (_lattice) is one Toeplitz product: rows[i] - cols[j] is
    the lag rows[i - j] - cols[0], so its symbol is the run of the
    table's w values from the integer lag of rows[0] - cols[-1] (with
    tri, the rows and columns it was bound to), times the columns
    z(x(m_j)).  Any other f is walked over the tree of the rows' blocks,
    recording or replaying its samples in recorded if given (_walk).
    This is the one place that chooses the route of a sum.
    """
    R, C = rows.size, cols.size
    if isinstance(f, _LagTable):
        # the symbol: w at the lags rows[0] - cols[C - 1], ..., rows[R - 1] - cols[0]
        # (with tri: 0, then rows[1:] - cols[0]), n entries of the table from
        # k0.  Row i reads entry s + i of its causal convolution with u,
        # column j of the transpose entry s + R - 1 - j of that with the
        # reversed w; no entry read wraps.
        # A product past the float range reads inf or nan on every row from
        # the first, for the caller's check of its sums to name.
        k0 = 0 if tri else round((rows[0] - cols[-1] - f.lag0) / f.delta)
        n = R if tri else R + C - 1
        s, size = n - R, _fft_size(R + C - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            u = w[::-1] if w is not None else xc if hc is None else np.einsum("jab,jb->ja", xc, hc)
            A = f.spectrum(k0, n, size).reshape((-1,) + (1,) * (u.ndim - 1))
            y = np.fft.irfft(A * np.fft.rfft(u, size, axis=0), size, axis=0)
            if w is not None:
                return np.einsum("jba,jb->ja", xc, y[s + R - C : s + R][::-1])
        y = y[s : s + R]
        if tri:
            y[0] = 0.0  # row 0 has no samples; clear the FFT's rounding
        return y
    spacing = cols[1] - cols[0] if C > 1 else rows[1] - rows[0] if R > 1 else 1.0
    offset = round(2.0 * (rows[0] - cols[0]) / spacing)
    walk = _walk(R, C, offset, tri, isinstance(f, SmoothInT), w is not None, _LEAF,
                 _BLOCK_SAMPLES, xc.shape[1])
    return walk(f, rows, cols, xc, hc, w, recorded)


@functools.cache
def _lag_index(size: int) -> np.ndarray:
    """max(p - q + 1, 0) for all p, q < size, built once per leaf size
    and read-only."""
    k = np.maximum(np.subtract.outer(np.arange(size), np.arange(size)) + 1, 0)
    k.flags.writeable = False
    return k


class _LagTable:
    """A LagIntegrand bound to the lags of a grid of rows and columns.

    a[k] = w(rows[k] - cols[0]) for k >= 1, evaluated and checked once,
    and a[0] = 0, the causal zero; z is the integrand's, which _columns
    applies to the values x(m_j) of a sum's columns.  On the uniform
    grid rows[i] - cols[j] is the lag of entry i - j, so a block's symbol
    is a run of a, whose FFT spectrum takes once per run and size, and a
    leaf of L node rows on its L midpoint columns reads gather(L), the
    L x L Toeplitz gather a[max(p - q + 1, 0)], taken once per L.  A
    table lives as long as the solve or sum that bound it.
    """

    def __init__(self, f: LagIntegrand, rows: np.ndarray, cols: np.ndarray, why: str):
        lags = rows[1:] - cols[0]
        self.a = np.zeros(rows.size)
        self.a[1:] = _require_finite(_shaped(f.w(lags), lags.shape), "the factor w at t - tau =",
                                     lags, why)
        self.w, self.z, self.why = f.w, f.z, why
        # entry k's lag is lag0 + k delta (a rectangle needs two columns)
        self.lag0, self.delta = rows[0] - cols[0], cols[1] - cols[0] if cols.size > 1 else math.nan
        self._spectra, self._gathers = {}, {}

    def spectrum(self, k0: int, n: int, size: int) -> np.ndarray:
        """The rfft of a[k0 : k0 + n] at size, read-only."""
        key = (k0, n, size)
        if key not in self._spectra:
            self._spectra[key] = A = np.fft.rfft(self.a[k0 : k0 + n], size)
            A.flags.writeable = False
        return self._spectra[key]

    def gather(self, L: int) -> np.ndarray:
        """a[max(p - q + 1, 0)] for p, q < L, read-only."""
        if L not in self._gathers:
            self._gathers[L] = G = self.a[_lag_index(L)]
            G.flags.writeable = False
        return self._gathers[L]


def _lattice(f, rows: np.ndarray, cols: np.ndarray, why: str = _KERNEL, like=None):
    """f as the sums on rows and cols take it: a LagIntegrand as the
    _LagTable of its w on the lags rows[k] - cols[0] (a non-finite value
    raises KernelContract ending in why), or like's w, spectra and
    gathers if like is a table of the same w; any other f unchanged."""
    if not isinstance(f, LagIntegrand):
        return f
    if isinstance(like, _LagTable) and like.w is f.w:
        table = copy.copy(like)
        table.z = f.z
        return table
    return _LagTable(f, rows, cols, why)


def _columns(f, xm: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """What a sum of f reads per column taus[j] from xm[j] = x(m_j): for a
    _LagTable z(x(m_j)), checked, naming its tau; for any other f xm."""
    if isinstance(f, _LagTable):
        return _require_finite(np.asarray(f.z(xm), float), "the factor z at tau =", taus, f.why)
    return xm


def _leaf_triangle(f, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """f(rows[p], cols[q], xc[q]) for q <= p, in one evaluator call.

    rows, cols and xc are L long, xc what _columns(f, ...) gives; the
    result has shape (L, L) + value shape and is zero for q > p.  A
    _LagTable takes a solve's leaf, node rows on midpoint columns: its
    gather(L) times the columns xc, both checked (0 * nan is nan).
    """
    L = rows.size
    if isinstance(f, _LagTable):
        return f.gather(L).reshape((L, L) + (1,) * (xc.ndim - 1)) * xc
    p, q = _tril(L, False)[:2]
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


def _fft_size(n: int) -> int:
    return 1 << max(0, n - 1).bit_length()


def _row_sums(f, rows, grid: Grid, values, hvalues, at: str, why: str = _KERNEL, recorded=None):
    """delta * sum over j < i of f(rows[i], m_j, x(m_j)), times h(m_j) if given."""
    hm, mids = None if hvalues is None else cell_midpoint_values(hvalues), grid.midpoints
    f = _lattice(f, rows, mids, why)
    xc = _columns(f, cell_midpoint_values(values), mids)
    out = _block_sum(f, rows, mids, xc, hm, tri=True, recorded=recorded)
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
    return _row_sums(f, grid.nodes, grid, values, hvalues, "node")


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
    f = _lattice(fmat, mids, mids)
    col = _block_sum(f, mids, mids, _columns(f, cell_midpoint_values(values), mids), tri=True,
                     w=weights)
    _require_finite(col, "the column sum at cell", range(grid.n_cells))
    q = 0.5 * d * np.einsum("pba,pb->pa", _half_cells(fmat, grid, values), weights)
    u = np.zeros((grid.n_cells + 1, weights.shape[1]))
    u[:-1] += 0.5 * d * col + 0.75 * q
    u[1:] += 0.5 * d * col + 0.25 * q
    return u
