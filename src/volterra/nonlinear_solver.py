"""Marching, damped Newton and conjugate directions for V(x) = y.

The discrete system apply_V(x) = y is lower triangular in time, so
solve_march solves it step by step: leaf by leaf of quadrature._LEAF
nodes, each a damped Newton on its own unknowns after the solved cells
have entered its rows once, by halves.  That walks the causal triangle
of v about once per solve, or costs O(N log^2 N) with lag factors.

Newton solves each linearized discrete system by collocation, inexactly:
to the forcing term min(1/2, ||y - V(x)||), which binds where a lag
kernel's collocation contracts, and to rounding on every other route.
It damps each step by backtracking on the derivative norm of that same
residual y - V(x), so a trial costs one sum of v on the tables it bound
once per solve; it takes any start, which multistart_uniqueness needs.
The gradient route minimizes the least-squares functional F, its merit.
It starts with Picard steps, x less the running integral of the defect
d/dt V(x) - y' that the last merit returned, each one merit evaluation
(one v_t walk) and no gradient, for as long as they strictly lower F;
on example1 they alone converge.  At the first that does not, it goes
on along Polak-Ribiere+ conjugate directions built from the Riesz
representative of the gradient in the derivative inner product, which
costs two cumulative sums and one v_tx walk per step and avoids
assembling any second derivative of the kernel.  The line search's slope is that gradient's
dot product with the step, so no forward-mode derivative is taken, and
a trial that already meets tol^2 ends the search without a refinement.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import LineSearchStalled, MaxIterExceeded
from .function_space import (GridFunction, _ac_norm_of, _require_count, _require_positive, ac_norm,
                             axpy, random_anchored)
from .linear_solver import (_collocate, _require_budget, _require_kernel_dim, _require_same,
                            _solve_leaf)
from .operator import _merit, apply_V, functional_gradient
from .quadrature import (_block_sum, _by_halves, _columns, _lattice, _leaf_triangle,
                         _require_finite, cell_midpoint_values, node_integral)

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
    guess.  Each iteration solves the linearization (I + T(x_k)) delta =
    r_k inexactly, to the forcing term eta_k = min(1/2, ||r_k||), r_k =
    y - V(x_k) and ||r_k|| its derivative norm (Dembo, Eisenstat and
    Steihaug, 1982): linear_solver._collocate, whose contracting lag
    route stops once ||delta + T delta - r_k||_inf <= eta_k
    ||r_k||_inf is certified; every other route solves to rounding, as
    collocation_solve does.  So the iterates, and the number of
    iterations, may differ from exact Newton's on a contracting lag
    route: on example2_linw_atan over [0, 0.9] at 4000 cells, y = sin 5t
    takes 3 iterations and 11 Toeplitz products where exact Newton takes
    2 and 18.  A trial step is accepted once it strictly lowers the
    residual norm; the report's functional_history stays empty.

    v and v_x are bound to the grid once (quadrature._lattice); with lag
    factors they share w, evaluated once per solve on the grid's N lags,
    and each trial residual y - apply_V(x) is one node_integral on that
    table.  converged means ||y - V(x)|| <= tol as apply_V measures it.
    x_init is checked against y, and the kernel's dim against y's,
    before any walk.  Raises MaxIterExceeded or
    LineSearchStalled with the partial report attached.
    """
    _require_budget(tol, max_iter)
    _require_kernel_dim(kernel, y)
    if x_init is not None:
        _require_same(x_init, y)
    grid = y.grid
    nodes, mids = grid.nodes, grid.midpoints
    fv = _lattice(kernel.integrand("v"), nodes, mids)
    fvx = _lattice(kernel.integrand("v_x"), nodes, mids, like=fv)  # v and v_x share w

    def residual(x):
        # y - apply_V(kernel, x), on the bound table
        return y - GridFunction(grid, x.values + node_integral(fv, grid, x.values))

    x = x_init if x_init is not None else y
    r = residual(x)
    res = ac_norm(r)
    report = SolveReport("newton", 0, [res], [], False)

    for _ in range(max_iter):
        if res <= tol:
            report.converged = True
            return x, report
        delta = _collocate(fvx, x, r, min(0.5, res))
        s = 1.0
        while True:
            x_trial = axpy(s, delta, x)
            r_trial = residual(x_trial)
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
    its right once, as history, by quadrature._block_sum, the one sum of
    the package, which walks the tree of those rows' blocks or, with lag
    factors, takes one Toeplitz product.  Each leaf then solves a damped
    Newton on its own rows, with collocation's leaf matrix of v_x as its
    Jacobian; a trial is accepted once it strictly lowers the
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

    v and v_x are bound to the grid once (quadrature._lattice); with lag
    factors they share w, evaluated on the grid's N lags, which every
    merge, trial triangle of v and Jacobian of v_x reads.  Each trial of
    a leaf takes its columns of v (quadrature._columns: z at its
    midpoints with lag factors) and each Jacobian its columns of v_x;
    the merges read the columns of each leaf's accepted trial.
    """
    _require_budget(tol, max_iter)
    _require_kernel_dim(kernel, y)
    if x_init is not None:
        _require_same(x_init, y)
    grid = y.grid
    d, nodes, mids = grid.delta, grid.nodes, grid.midpoints
    fv = _lattice(kernel.integrand("v"), nodes, mids)
    fvx = _lattice(kernel.integrand("v_x"), nodes, mids, like=fv)  # v and v_x share w
    floor = 8.0 * np.finfo(float).eps
    x = (y if x_init is None else x_init).values.copy()
    history = np.zeros_like(x)
    r = np.zeros_like(x)  # each leaf's final row residuals
    xc = np.zeros_like(x[1:])  # the columns of each leaf's accepted trial, for the merges
    report = SolveReport("march", 0, [], [], False)

    def merge(lo, mid, hi):
        history[mid:hi] += _block_sum(fv, nodes[mid:hi], mids[lo - 1 : mid - 1],
                                      xc[lo - 1 : mid - 1])

    def leaf(c0, c1):
        rows, cols = nodes[c0:c1], mids[c0 - 1 : c1 - 1]
        base = _require_finite(y.values[c0:c1] - d * history[c0:c1],
                               "the history of the row at node", range(c0, c1))

        def residual(xl):
            # rows [c0, c1) less the history, the rounding floor of each,
            # and the leaf's midpoint values and columns
            xm = cell_midpoint_values(np.concatenate([x[c0 - 1 : c0], xl]))
            cl = _columns(fv, xm, cols)
            V = _leaf_triangle(fv, rows, cols, cl)
            R = _require_finite(base - xl - d * V.sum(axis=1), "the residual of the row at node",
                                range(c0, c1))
            return R, floor * (np.abs(base) + np.abs(xl) + d * np.abs(V).sum(axis=1)), xm, cl

        xl = base if x_init is None else x[c0:c1]
        R, tiny, xm, cl = residual(xl)
        steps = 0
        while np.any(np.abs(R) > tiny):
            # a failure reports the residual of the rows marched so far
            r[c0:c1] = R
            if steps == max_iter:
                report.residual_history = [_ac_norm_of(r[:c1], d)]
                raise MaxIterExceeded(f"march: leaf at node {c0}: residual above its "
                                      f"rounding floor after {max_iter} iterations",
                                      report=report)
            step = _solve_leaf(_leaf_triangle(fvx, rows, cols, _columns(fvx, xm, cols)), R, d, c0)
            res, s = np.linalg.norm(R), 1.0
            while True:
                trial = residual(xl + s * step)
                if np.linalg.norm(trial[0]) < res:
                    break
                s *= 0.5
                if s < _MIN_STEP:
                    report.residual_history = [_ac_norm_of(r[:c1], d)]
                    raise LineSearchStalled(f"march: leaf at node {c0}: no decrease "
                                            f"above step {_MIN_STEP}", report=report)
            xl = xl + s * step
            R, tiny, xm, cl = trial
            steps += 1
            report.iterations += 1
        x[c0:c1], r[c0:c1], xc[c0 - 1 : c1 - 1] = xl, R, cl

    _by_halves(grid.n_cells + 1, leaf, merge)
    res = _ac_norm_of(r, d)
    report.residual_history = [res]
    if res > tol:
        raise LineSearchStalled(
            f"march: residual {res:.3e} at the rounding floor exceeds tol {tol:.1e}",
            report=report,
        )
    report.converged = True
    return GridFunction(grid, x), report


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
    """Minimize the least-squares functional by Picard steps, then along
    conjugate directions.

    The solve starts with Picard steps x_k <- x_k - delta sum_{i<k} D_i
    at every node k, the anchor kept at 0, where D = d/dt V(x) - y' is
    the defect of the last accepted merit: successive approximation of
    x = y - integral of v, the chord step with the Jacobian cut down to
    its identity part.  A Picard step costs one merit evaluation and no
    gradient, and is kept only when its F is strictly below the current
    F; a trial point or merit that is not finite is not below.  At the
    first step that is not, the trial is discarded and the rest of the
    solve runs along conjugate directions from the current x.

    With g_k the node gradient of F and P = _ac_riesz its Riesz map in
    the derivative inner product, the direction is Polak-Ribiere+:

        d_k = -P g_k + beta_k d_{k-1},
        beta_k = max(0, <g_k, P g_k - P g_{k-1}> / <g_{k-1}, P g_{k-1}>),

    with Euclidean dot products of node values, which are the AC inner
    products of the Riesz representatives; d_0 = -P g_0, and d_k
    restarts at -P g_k whenever <g_k, d_k> >= 0.  Near a solution F's
    Hessian in that metric is the identity plus a compact operator, on
    which conjugate directions converge superlinearly.  The slope of F
    along d_k is the gradient's dot product with its node values
    (functional_gradient's identity with directional_dF), so a step
    walks v_tx once.  Each line search tries s = 1 and accepts it at
    once if F(1) <= tol^2; else it refines once by a parabola through
    F(0), its slope and F(1), then halves until F decreases.  Each
    merit evaluation walks v_t once; the gradient takes the defect D of
    the accepted one, so it walks no v_t of its own.  On example1 with
    a_bar <= 2 the Picard steps alone converge, in 2 or 3 steps at
    tol 1e-7: 3 or 4 walks of v_t and none of v_tx or v_x.  A kernel
    whose first Picard trial climbs pays that one merit and then takes
    the conjugate steps.  Convergence means F(x) <= tol^2.

    The report's iterations count the steps of both kinds, which
    max_iter caps together; its functional_history holds F at the start
    and after each accepted step.  Its residual_history holds one
    entry, ac_norm(y - apply_V(x)) at the x returned, or at the last
    iterate with the report attached to a failure, so a solve walks v
    once, for its report.  Raises
    MaxIterExceeded when max_iter steps leave F above tol^2, and
    LineSearchStalled when a conjugate step finds no decrease above the
    least step or a direction whose slope is not negative.
    """
    _require_budget(tol, max_iter)
    x = x_init if x_init is not None else y
    F, D = _merit(kernel, x, y)
    report = SolveReport("gradient", 0, [], [F], False)
    ftol = tol * tol

    # Picard steps for as long as they lower F, then conjugate directions
    while report.iterations < max_iter and F > ftol:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = x.values.copy()
            vals[1:] -= x.grid.delta * np.cumsum(D, axis=0)
        if not np.isfinite(vals).all():
            break
        x_trial = GridFunction(x.grid, vals)
        F_trial, D_trial = _merit(kernel, x_trial, y)
        if not F_trial < F:  # nan is not lower; F >= 0, so a lower F_trial is finite
            break
        x, F, D = x_trial, F_trial, D_trial
        report.iterations += 1
        report.functional_history.append(F)

    stall = None
    g_prev = pg_prev = d_prev = None
    for _ in range(max_iter - report.iterations):
        if F <= ftol:
            break
        g_nodes = functional_gradient(kernel, x, y, defect=D)
        pg = _ac_riesz(x.grid, g_nodes)
        direction = -pg
        if g_prev is not None:
            beta = max(0.0, float(np.sum(g_nodes * (pg.values - pg_prev.values)))
                       / float(np.sum(g_prev * pg_prev.values)))
            conjugate = direction + beta * d_prev
            if float(np.sum(g_nodes * conjugate.values)) < 0:
                direction = conjugate  # else restart along -P g
        g_prev, pg_prev = g_nodes, pg
        slope = float(np.sum(g_nodes * direction.values))
        if slope >= 0:
            stall = "the slope along the direction is not negative"
            break
        s = 1.0
        F_trial, D_trial = _merit(kernel, axpy(s, direction, x), y)
        # One parabolic refinement from phi(0), phi'(0), phi(s), unless
        # the trial already converged (F > ftol here, so it also decreased).
        denom = F_trial - F - slope * s
        if F_trial > ftol and denom > 0:
            s_star = -slope * s * s / (2.0 * denom)
            if 0 < s_star:
                F_star, D_star = _merit(kernel, axpy(s_star, direction, x), y)
                if F_star < F_trial:
                    s, F_trial, D_trial = s_star, F_star, D_star
        while F_trial >= F:
            s *= 0.5
            if s < _MIN_STEP:
                break
            F_trial, D_trial = _merit(kernel, axpy(s, direction, x), y)
        if F_trial >= F:
            stall = f"no decrease above step {_MIN_STEP}"
            break
        x, F, D, d_prev = axpy(s, direction, x), F_trial, D_trial, direction
        report.iterations += 1
        report.functional_history.append(F)

    report.residual_history = [ac_norm(y - apply_V(kernel, x))]
    if F <= ftol:
        report.converged = True
        return x, report
    if stall is not None:
        raise LineSearchStalled(
            f"gradient: F {F:.3e} > tol^2 {ftol:.1e} after {report.iterations} iterations: "
            f"{stall}", report=report)
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
    _require_count(n_starts, "n_starts", 2)
    _require_positive(start_norm, "start_norm")
    _require_count(seed, "seed", 0)
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
