"""The integral operator, its derivative, and the least-squares functional.

V(x)(t) = x(t) + integral over [alpha, t] of v(t, tau, x(tau)).  The
least-squares functional is evaluated in the derivative norm through the
analytic expansion

    d/dt V(x)(t) = x'(t) + v(t, t, x(t)) + integral of v_t(t, tau, x(tau)),

never by differencing apply_V output: the expansion keeps quadrature
away from the diagonal singularity of v_t and makes the directional
derivative of the discrete functional exact rather than approximate.
"""

from __future__ import annotations

import numpy as np

from .function_space import GridFunction
from .linear_solver import _require_kernel_dim, _require_same, apply_T
from .quadrature import (_require_finite, cell_midpoint_values, inner_integral,
                         inner_integral_adjoint, node_integral)


def apply_V(kernel, x: GridFunction) -> GridFunction:
    """Evaluate the operator at the nodes.

    The integral to t_i samples the i cell midpoints, so the integrand
    is never evaluated on the diagonal and the result vanishes at alpha
    by construction.
    """
    _require_kernel_dim(kernel, x)
    vals = node_integral(kernel.integrand("v"), x.grid, x.values)
    return GridFunction(x.grid, x.values + vals)


def apply_V_dt(kernel, x: GridFunction) -> np.ndarray:
    """Cell-midpoint samples of d/dt V(x); shape (n_cells, dim).

    Per cell i: the difference-quotient slope of x, plus the diagonal
    value v(m_i, m_i, x(m_i)), plus the quadrature of v_t over
    [alpha, m_i] (full cells at their midpoints, the trailing half cell
    at t_i + delta/4).
    """
    _require_kernel_dim(kernel, x)
    grid = x.grid
    slope = np.diff(x.values, axis=0) / grid.delta
    return slope + _diagonal(kernel.v, x) + inner_integral(kernel.integrand("v_t"), grid, x.values)


def _diagonal(f, x: GridFunction) -> np.ndarray:
    """f(m_i, m_i, x(m_i)) for every cell i, checked finite."""
    m = x.grid.midpoints
    return _require_finite(np.asarray(f(m, m, cell_midpoint_values(x.values)), float),
                           "the diagonal sample at cell", range(len(m)),
                           "v and v_x must be finite on tau = t")


def frechet_apply(kernel, x0: GridFunction, h: GridFunction) -> GridFunction:
    """Derivative of the operator at x0 applied to h: h + T h."""
    return h + apply_T(kernel, x0, h)


def frechet_dt(kernel, x0: GridFunction, h: GridFunction) -> np.ndarray:
    """Cell-midpoint samples of d/dt (V'(x0) h); shape (n_cells, dim).

    Mirrors apply_V_dt with v_x on the diagonal and v_tx under the
    integral.
    """
    _require_same(x0, h)
    _require_kernel_dim(kernel, x0)
    grid = x0.grid
    slope = np.diff(h.values, axis=0) / grid.delta
    diag = np.einsum("pab,pb->pa", _diagonal(kernel.v_x, x0), cell_midpoint_values(h.values))
    inner = inner_integral(kernel.integrand("v_tx"), grid, x0.values, h.values)
    return slope + diag + inner


def _defect(kernel, x: GridFunction, y: GridFunction) -> np.ndarray:
    """D = d/dt V(x) - y' at the cell midpoints; one walk of v_t."""
    return apply_V_dt(kernel, x) - np.diff(y.values, axis=0) / y.grid.delta


def _merit(kernel, x: GridFunction, y: GridFunction) -> tuple[float, np.ndarray]:
    """F(x) and the defect D = d/dt V(x) - y' it squares, shape (n_cells, dim)."""
    _require_same(x, y)
    D = _defect(kernel, x, y)
    return float(0.5 * x.grid.delta * (D * D).sum()), D


def functional_F(kernel, x: GridFunction, y: GridFunction) -> float:
    """Half the squared derivative-norm defect of V(x) against y."""
    return _merit(kernel, x, y)[0]


def directional_dF(kernel, x: GridFunction, y: GridFunction,
                   h: GridFunction) -> float:
    """Exact directional derivative of the discrete functional at x.

    Differentiates the quadrature formula itself, so central finite
    differences of functional_F reproduce it to truncation error.
    """
    _require_same(x, y)
    _require_same(x, h)
    D = _defect(kernel, x, y)
    S = frechet_dt(kernel, x, h)
    return float(x.grid.delta * (D * S).sum())


def functional_gradient(kernel, x: GridFunction, y: GridFunction,
                        defect: np.ndarray | None = None) -> np.ndarray:
    """Euclidean gradient of the discrete functional in node values.

    Shape (n_cells + 1, dim); row 0 is zero since the anchored value is
    not a degree of freedom.  Satisfies <gradient, h.values> =
    directional_dF(..., h) exactly.  The gradient is the adjoint walk of
    v_tx applied to the defect D = d/dt V(x) - y'.  A caller that has D
    from the merit at x (solve_gradient does) passes it as defect, which
    saves the v_t walk that computes it; it must have shape
    (n_cells, dim) (ValueError) and be finite (KernelContract).
    """
    _require_same(x, y)
    _require_kernel_dim(kernel, x)
    grid = x.grid
    d = grid.delta
    if defect is None:
        D = _defect(kernel, x, y)
    else:
        D = np.asarray(defect, float)
        if D.shape != (grid.n_cells, x.dim):
            raise ValueError(f"defect must have shape {(grid.n_cells, x.dim)}, got {D.shape}")
        _require_finite(D, "the defect at cell", range(grid.n_cells), "the defect must be finite")

    # Transpose of frechet_dt in h, term by term, weighted by delta D.
    g = inner_integral_adjoint(kernel.integrand("v_tx"), grid, x.values, d * D)
    # Slope term: dD_i picks up (dv_{i+1} - dv_i)/delta, weighted by delta D_i.
    g[1:] += D
    g[:-1] -= D

    w_diag = 0.5 * d * np.einsum("pba,pb->pa", _diagonal(kernel.v_x, x), D)
    g[:-1] += w_diag
    g[1:] += w_diag

    g[0] = 0.0
    return g
