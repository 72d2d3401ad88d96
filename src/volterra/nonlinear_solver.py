"""Marching, damped Newton and natural-gradient descent for V(x) = y.

The discrete system apply_V(x) = y is lower triangular in time, so
solve_march solves it step by step: leaf by leaf of quadrature._LEAF
nodes, each a damped Newton on its own unknowns after the solved cells
have entered its rows once, by halves.  That walks the causal triangle
of v about once per solve, or costs O(N log^2 N) with lag factors.

Newton solves the linearized discrete system by collocation and damps
each step by backtracking on the derivative norm of that same residual
y - V(x), so a trial costs one apply_V; it takes any start, which
multistart_uniqueness needs.  The gradient route descends the
least-squares functional F, its merit, along the Riesz representative
of its gradient in the derivative inner product, which costs two
cumulative sums per step and avoids assembling any second derivative
of the kernel.  The line search's slope is that gradient's dot product
with the step, so no forward-mode derivative is taken.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import LineSearchStalled, MaxIterExceeded
from .function_space import GridFunction, ac_norm, axpy, random_anchored
from .linear_solver import _require_kernel_dim, _require_same, _solve_leaf, collocation_solve
from .operator import apply_V, functional_F, functional_gradient
from .quadrature import (_block_sum, _by_halves, _leaf_triangle, _require_finite,
                         cell_midpoint_values)

_MIN_STEP = 2.0**-20


@dataclass
class SolveReport:
    method: str
    iterations: int
    residual_history: list
    functional_history: list
    converged: bool
    multistart_spread: float | None = None
    failed_starts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def solve_newton(kernel, y: GridFunction, x_init: GridFunction | None = None,
                 tol: float = 1e-10, max_iter: int = 50
                 ) -> tuple[GridFunction, SolveReport]:
    """Solve V(x) = y; returns (solution, report).

    The default start is y itself: the operator is a compact
    perturbation of the identity, so y is already an O(||integral||)
    guess.  A trial step is accepted once it strictly lowers the
    residual norm; the report's functional_history stays empty.  Raises
    MaxIterExceeded or LineSearchStalled with the partial report
    attached.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = x_init if x_init is not None else y
    r = y - apply_V(kernel, x)
    res = ac_norm(r)
    report = SolveReport("newton", 0, [res], [], False)

    for _ in range(max_iter):
        if res <= tol:
            report.converged = True
            return x, report
        delta = collocation_solve(kernel, x, r)
        s = 1.0
        while True:
            x_trial = axpy(s, delta, x)
            r_trial = y - apply_V(kernel, x_trial)
            res_trial = ac_norm(r_trial)
            if res_trial < res:
                break
            s *= 0.5
            if s < _MIN_STEP:
                raise LineSearchStalled(
                    f"no decrease above step {_MIN_STEP}", report=report
                )
        x, r, res = x_trial, r_trial, res_trial
        report.iterations += 1
        report.residual_history.append(res)

    if res <= tol:
        report.converged = True
        return x, report
    raise MaxIterExceeded(
        f"newton: residual {res:.3e} > tol {tol:.1e} after {max_iter} iterations",
        report=report,
    )


def solve_march(kernel, y: GridFunction, x_init: GridFunction | None = None,
                tol: float = 1e-10, max_iter: int = 50
                ) -> tuple[GridFunction, SolveReport]:
    """Solve V(x) = y leaf by leaf in time; returns (solution, report).

    Row i of apply_V(x) = y involves x_0, ..., x_i only, so the nodes
    are solved in leaves [c0, c1) of quadrature._LEAF rows by halves
    (quadrature._by_halves): a solved range of nodes enters the rows to
    its right once, as history, in v column chunks or, with lag
    factors, one Toeplitz product.  Each leaf then solves a damped
    Newton on its own rows, with collocation's leaf matrix of v_x as
    its Jacobian; a trial is accepted once it strictly lowers the
    2-norm of the leaf residual.  With b_i = y_i - delta * history_i,
    row i reads b_i - x_i - delta * sum over the leaf's own cells of v;
    a leaf is done when every row residual is at the rounding floor of
    that sum, 8 eps times |b_i| + |x_i| + delta * sum |v|.

    A leaf starts from x_init, or by default from b.  The report's
    iterations count the local Newton steps of all leaves, and
    residual_history holds the derivative norm of the final row
    residuals, y - apply_V(x) up to rounding.  max_iter caps each
    leaf's steps: a leaf that exhausts it raises MaxIterExceeded; a
    stalled line search, or a final residual above tol, raises
    LineSearchStalled; each with the partial report attached.  A
    non-finite sample of v or v_x raises KernelContract naming where.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _require_kernel_dim(kernel, y)
    if x_init is not None:
        _require_same(x_init, y)
    grid = y.grid
    d, nodes, mids = grid.delta, grid.nodes, grid.midpoints
    fv, fvx = kernel.integrand("v"), kernel.integrand("v_x")
    floor = 8.0 * np.finfo(float).eps
    x = (y if x_init is None else x_init).values.copy()
    history = np.zeros_like(x)
    r = np.zeros_like(x)  # each leaf's final row residuals
    report = SolveReport("march", 0, [], [], False)

    def merge(lo, mid, hi):
        history[mid:hi] += _block_sum(fv, nodes[mid:hi], mids[lo - 1 : mid - 1],
                                      cell_midpoint_values(x[lo - 1 : mid]))

    def leaf(c0, c1):
        rows, cols = nodes[c0:c1], mids[c0 - 1 : c1 - 1]
        base = _require_finite(y.values[c0:c1] - d * history[c0:c1],
                               "the history of the row at node", range(c0, c1))

        def residual(xl):
            # rows [c0, c1) less the history, and the rounding floor of each
            xm = cell_midpoint_values(np.concatenate([x[c0 - 1 : c0], xl]))
            V = _leaf_triangle(fv, rows, cols, xm)
            R = _require_finite(base - xl - d * V.sum(axis=1), "the residual of the row at node",
                                range(c0, c1))
            return R, floor * (np.abs(base) + np.abs(xl) + d * np.abs(V).sum(axis=1)), xm

        xl = base if x_init is None else x[c0:c1]
        R, tiny, xm = residual(xl)
        steps = 0
        while np.any(np.abs(R) > tiny):
            # a failure reports the residual of the rows marched so far
            r[c0:c1] = R
            if steps == max_iter:
                report.residual_history = [_ac_rows(r[:c1], d)]
                raise MaxIterExceeded(f"march: leaf at node {c0}: residual above its "
                                      f"rounding floor after {max_iter} iterations",
                                      report=report)
            step = _solve_leaf(_leaf_triangle(fvx, rows, cols, xm), R, d, c0)
            res, s = np.linalg.norm(R), 1.0
            while True:
                trial = residual(xl + s * step)
                if np.linalg.norm(trial[0]) < res:
                    break
                s *= 0.5
                if s < _MIN_STEP:
                    report.residual_history = [_ac_rows(r[:c1], d)]
                    raise LineSearchStalled(f"march: leaf at node {c0}: no decrease "
                                            f"above step {_MIN_STEP}", report=report)
            xl = xl + s * step
            R, tiny, xm = trial
            steps += 1
            report.iterations += 1
        x[c0:c1], r[c0:c1] = xl, R

    _by_halves(grid.n_cells + 1, leaf, merge)
    res = _ac_rows(r, d)
    report.residual_history = [res]
    if res > tol:
        raise LineSearchStalled(
            f"march: residual {res:.3e} at the rounding floor exceeds tol {tol:.1e}",
            report=report,
        )
    report.converged = True
    return GridFunction(grid, x), report


def _ac_rows(r: np.ndarray, d: float) -> float:
    # ac_norm of node values r on cells of width d
    diff = np.diff(r, axis=0)
    return float(np.sqrt((diff * diff).sum() / d))


def _ac_riesz(grid, g_nodes: np.ndarray) -> GridFunction:
    # The a pinned at alpha with <a, h>_AC = <g, h> for every direction h.
    # <a, h>_AC = sum_k s_k (h_k - h_{k-1}) with slopes s_k, so s_j - s_{j+1}
    # = g_j (s_{N+1} = 0): the slopes are the reverse cumulative sum of g.
    slopes = np.cumsum(g_nodes[:0:-1], axis=0)[::-1]
    vals = np.zeros_like(g_nodes, dtype=float)
    vals[1:] = grid.delta * np.cumsum(slopes, axis=0)
    return GridFunction(grid, vals)


def solve_gradient(kernel, y: GridFunction, x_init: GridFunction | None = None,
                   tol: float = 1e-6, max_iter: int = 500
                   ) -> tuple[GridFunction, SolveReport]:
    """Minimize the least-squares functional by preconditioned descent.

    The descent direction is the negative gradient represented in the
    derivative inner product; the slope of F along it is the gradient's
    dot product with its node values (functional_gradient's identity
    with directional_dF), so a step walks v_tx once.  Convergence means
    F(x) <= tol^2.  Slower than Newton but needs no linear solves
    against the kernel.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = x_init if x_init is not None else y
    F = functional_F(kernel, x, y)
    res = ac_norm(y - apply_V(kernel, x))
    report = SolveReport("gradient", 0, [res], [F], False)
    ftol = tol * tol

    for _ in range(max_iter):
        if F <= ftol:
            report.converged = True
            return x, report
        g_nodes = functional_gradient(kernel, x, y)
        direction = -1.0 * _ac_riesz(x.grid, g_nodes)
        slope = float(np.sum(g_nodes * direction.values))
        if slope >= 0:
            break  # numerically stationary; fall through to the final check
        s = 1.0
        F_trial = functional_F(kernel, axpy(s, direction, x), y)
        # One parabolic refinement from phi(0), phi'(0), phi(s).
        denom = F_trial - F - slope * s
        if denom > 0:
            s_star = -slope * s * s / (2.0 * denom)
            if 0 < s_star:
                F_star = functional_F(kernel, axpy(s_star, direction, x), y)
                if F_star < F_trial:
                    s, F_trial = s_star, F_star
        while F_trial >= F:
            s *= 0.5
            if s < _MIN_STEP:
                break
            F_trial = functional_F(kernel, axpy(s, direction, x), y)
        if F_trial >= F:
            break
        x, F = axpy(s, direction, x), F_trial
        res = ac_norm(y - apply_V(kernel, x))
        report.iterations += 1
        report.residual_history.append(res)
        report.functional_history.append(F)

    if F <= ftol:
        report.converged = True
        return x, report
    raise MaxIterExceeded(
        f"gradient: F {F:.3e} > tol^2 {ftol:.1e} after {report.iterations} iterations",
        report=report,
    )


def multistart_uniqueness(kernel, y: GridFunction, n_starts: int,
                          tol: float = 1e-10, max_iter: int = 80,
                          seed: int = 0, start_norm: float = 10.0
                          ) -> tuple[GridFunction | None, SolveReport]:
    """Probe uniqueness by Newton from scattered random starts.

    Starts are deterministic given seed: anchored Brownian draws with
    ac_norm spread uniformly up to start_norm.  The report carries the
    max pairwise distance among converged results in multistart_spread
    and marks failed starts instead of propagating their errors.
    """
    if n_starts < 2:
        raise ValueError("n_starts must be at least 2")
    rng = np.random.default_rng(seed)
    solutions = []
    report = SolveReport("newton", 0, [], [], False, multistart_spread=None)
    for start in range(n_starts):
        target = start_norm * rng.uniform(0.0, 1.0)
        x0 = random_anchored(y.grid, y.dim, rng, norm=target)
        try:
            x, rep = solve_newton(kernel, y, x_init=x0, tol=tol, max_iter=max_iter)
        except (MaxIterExceeded, LineSearchStalled):
            report.failed_starts.append(start)
            continue
        solutions.append(x)
        report.iterations += rep.iterations
        report.residual_history.append(rep.residual_history[-1])

    spread = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            spread = max(spread, ac_norm(solutions[i] - solutions[j]))
    report.multistart_spread = spread
    report.converged = not report.failed_starts and bool(solutions)
    best = solutions[0] if solutions else None
    return best, report
