"""Directional sensitivity of the solution map a -> x_a.

Differentiating V(x_a) = a in a direction h gives the linearized
equation s + T s = h at the base solution, so one nonlinear solve plus
one triangular linear solve yields the derivative.  The finite-difference
check re-solves the nonlinear problem at a +/- eps*h and compares; on a
shared grid the two constructions discretize the same map, so the
discrepancy measures only solver tolerance and the O(eps^2) quotient
truncation.  Every nonlinear solve here is solve_march, which solves
to the rounding floor, by Toeplitz products for kernels with lag factors.
"""

from __future__ import annotations

import numpy as np

from .function_space import (GridFunction, _require_count, _require_positive, ac_norm, axpy,
                             random_anchored, scale, sub)
from .linear_solver import _require_same, collocation_solve
from .nonlinear_solver import solve_march


def directional_sensitivity(kernel, a: GridFunction, h: GridFunction,
                            tol: float = 1e-10, max_iter: int = 50) -> GridFunction:
    """Derivative of the solution map at a in direction h."""
    x_a, _ = solve_march(kernel, a, tol=tol, max_iter=max_iter)
    return collocation_solve(kernel, x_a, h)


def fd_sensitivity_check(kernel, a: GridFunction, h: GridFunction,
                         epsilon: float, tol: float = 1e-11,
                         max_iter: int = 50) -> float:
    """Relative derivative-norm gap between the linearized sensitivity
    and the central difference quotient of the solution map."""
    _require_positive(epsilon, "epsilon")
    s_lin = directional_sensitivity(kernel, a, h, tol=tol, max_iter=max_iter)
    return fd_discrepancy(kernel, a, h, s_lin, epsilon, tol=tol, max_iter=max_iter)


def fd_discrepancy(kernel, a: GridFunction, h: GridFunction, s_lin: GridFunction,
                   epsilon: float, tol: float = 1e-11, max_iter: int = 50) -> float:
    """Relative derivative-norm gap between a linearized sensitivity
    s_lin, taken at a in direction h, and the central difference
    quotient of the solution map; two nonlinear solves."""
    _require_positive(epsilon, "epsilon")
    _require_same(a, s_lin)  # h meets a in axpy, before either solve
    x_plus, _ = solve_march(kernel, axpy(epsilon, h, a), tol=tol, max_iter=max_iter)
    x_minus, _ = solve_march(kernel, axpy(-epsilon, h, a), tol=tol, max_iter=max_iter)
    s_fd = scale(1.0 / (2.0 * epsilon), sub(x_plus, x_minus))
    gap = ac_norm(sub(s_lin, s_fd))
    denom = max(ac_norm(s_fd), ac_norm(s_lin))
    return gap / max(denom, 1e-300)


def robustness_modulus(kernel, a: GridFunction, n_probes: int, delta: float,
                       tol: float = 1e-10, max_iter: int = 50,
                       seed: int = 0) -> float:
    """Worst observed solution shift per unit data shift.

    Probes are deterministic unit-norm anchored draws (fixed generator
    seeded by seed); for each the problem is re-solved at a + delta * h
    from the base solution and the scaled displacement is recorded.
    """
    _require_count(n_probes, "n_probes")
    _require_positive(delta, "delta")
    x_a, _ = solve_march(kernel, a, tol=tol, max_iter=max_iter)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        h = random_anchored(a.grid, a.dim, rng, norm=1.0)
        x_shift, _ = solve_march(kernel, axpy(delta, h, a), x_init=x_a,
                                 tol=tol, max_iter=max_iter)
        worst = max(worst, ac_norm(sub(x_shift, x_a)) / delta)
    return worst
