"""Numerical certification of the well-posedness conditions.

Two sufficient conditions are checked, named A3 and A4 in reports.  A3
applies to kernels vanishing on the diagonal and requires the declared
majorant c0 of the time derivative to satisfy

    ||c0||_{L2(triangle)} < sqrt(2) / (2 (beta - alpha)),

strictly.  A4 drops the diagonal requirement and instead bounds the
combined majorant

    ctilde(t) = sqrt(t - alpha) c1(t)
                + (beta - alpha)/sqrt(2) * (integral of c2(t, .)^2)^(1/2)

by ||ctilde||_{L2} < 1/2, strictly.  Margins are threshold minus norm;
a margin of exactly zero fails.  One builder, _verdict, makes every
report, the closed forms' included.  All integrals run on the shared
triangle quadrature, on the same nodes the operator module uses, so the
derived coercivity constants transfer to the discrete functional without
quadrature slack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import MissingBounds
from .function_space import Grid, _require_positive, _require_real
from .kernels import KernelSpec, LagBound, LagIntegrand
from .quadrature import _require_finite, inner_integral

_DIAG_SAMPLES = 50
_DIAG_ATOL = 1e-10


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of one certification check.

    passed holds iff margin > 0 and, for the A3 variant, the diagonal
    sampling found no violation.  samples_used counts every kernel or
    bound evaluation that fed the verdict, for auditability.
    """

    variant: str
    diagonal_zero_ok: bool
    norm_value: float
    threshold: float
    margin: float
    passed: bool
    samples_used: int

    def to_dict(self) -> dict:
        return asdict(self)


def _inner_bound(f2, grid: Grid) -> np.ndarray:
    """Inner rule of a bound f2(t, tau) at each cell midpoint; shape (N,).

    A LagBound is summed as a Toeplitz product, any other callable by
    the generic walk.
    """
    if isinstance(f2, LagBound):
        f = LagIntegrand(f2.w, np.ones_like)
    else:
        def f(t, tau, x):
            return np.broadcast_to(np.asarray(f2(t, tau), float), np.shape(t))[..., None]

    return inner_integral(f, grid, np.zeros((grid.n_cells + 1, 1)),
                          why="the declared bounds must be finite on tau < t")[:, 0]


def _squared(f2):
    """f2(t, tau)^2, still a LagBound when f2 is one."""
    if isinstance(f2, LagBound):
        return LagBound(lambda s: np.asarray(f2.w(s), float) ** 2)
    return lambda t, tau: np.asarray(f2(t, tau), float) ** 2


def _sample_diagonal(kernel: KernelSpec, grid: Grid) -> tuple[bool, int]:
    """Max |v(t, t, x)| over a t-lattice times an x-lattice (or ball),
    its samples checked finite."""
    t = np.linspace(grid.alpha, grid.beta, _DIAG_SAMPLES)
    if kernel.dim == 1:
        xs = np.linspace(-10.0, 10.0, _DIAG_SAMPLES)[:, None]
    else:
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((_DIAG_SAMPLES, kernel.dim))
        mags = np.sqrt((xs * xs).sum(axis=1, keepdims=True))
        xs *= 10.0 * rng.uniform(0, 1, size=(_DIAG_SAMPLES, 1)) / np.maximum(mags, 1e-30)
    tt = np.repeat(t, _DIAG_SAMPLES)
    xx = np.tile(xs, (_DIAG_SAMPLES, 1))
    vals = _require_finite(np.asarray(kernel.v(tt, tt, xx), float), "the diagonal sample at t =",
                           tt, "v must be finite on tau = t")
    ok = bool(np.abs(vals).max() <= _DIAG_ATOL)
    return ok, tt.size


def _triangle_integral(f2, grid: Grid) -> float:
    """Midpoint product rule of a bound f2(t, tau) over the triangle."""
    return float(grid.delta * _inner_bound(f2, grid).sum())


def _triangle_samples(grid: Grid) -> int:
    """Samples of the triangle rule: N (N - 1) / 2 full cells, N half cells."""
    return grid.n_cells * (grid.n_cells - 1) // 2 + grid.n_cells


def _verdict(variant: str, norm_value: float, threshold: float, samples_used: int,
             diagonal_zero_ok: bool = True, diagonal_gates: bool = True) -> HypothesisReport:
    """The report of norm_value against threshold, the one place a
    verdict is reached: margin = threshold - norm_value, passed iff the
    margin is strictly positive and, where diagonal_gates, the diagonal
    condition holds."""
    margin = threshold - norm_value
    return HypothesisReport(
        variant=variant,
        diagonal_zero_ok=diagonal_zero_ok,
        norm_value=norm_value,
        threshold=threshold,
        margin=margin,
        passed=bool(margin > 0 and (diagonal_zero_ok or not diagonal_gates)),
        samples_used=samples_used,
    )


def check_A3(kernel: KernelSpec, grid: Grid) -> HypothesisReport:
    """Certify the diagonal-vanishing condition on the given grid.

    Needs declared bounds c0, d0 (MissingBounds otherwise).  norm_value
    is the triangle L2 norm of c0 by midpoint product quadrature;
    the diagonal condition is verified by direct sampling of v(t, t, x).
    """
    b = kernel.bounds
    if b is None or b.c0 is None or b.d0 is None:
        raise MissingBounds(f"kernel {kernel.name} declares no c0/d0 bounds")
    diag_ok, n_diag = _sample_diagonal(kernel, grid)
    norm_value = math.sqrt(max(_triangle_integral(_squared(b.c0), grid), 0.0))
    return _verdict("A3", norm_value, math.sqrt(2.0) / (2.0 * grid.length),
                    n_diag + _triangle_samples(grid), diag_ok)


def _at_midpoints(f1, name: str, grid: Grid) -> np.ndarray:
    """A declared bound f1(t) at each cell midpoint, checked finite."""
    m = grid.midpoints
    return _require_finite(np.broadcast_to(np.asarray(f1(m), float), m.shape),
                           f"the bound {name} at the midpoint", m,
                           "the declared bounds must be finite")


def _ctilde_at_midpoints(c1, c2, grid: Grid) -> np.ndarray:
    inner = _inner_bound(_squared(c2), grid)
    root = np.sqrt(grid.midpoints - grid.alpha) * _at_midpoints(c1, "c1", grid)
    return root + grid.length / math.sqrt(2.0) * np.sqrt(np.maximum(inner, 0.0))


def check_A4(kernel: KernelSpec, grid: Grid) -> HypothesisReport:
    """Certify the diagonal-growth condition on the given grid.

    Needs declared bounds c1, d1, c2, d2 (MissingBounds otherwise).
    ctilde is assembled at the cell midpoints with the shared inner
    quadrature; norm_value is its outer-midpoint L2 norm, checked
    against the threshold 1/2.  The declared diagonal_zero is reported,
    not required.
    """
    b = kernel.bounds
    if b is None or any(f is None for f in (b.c1, b.d1, b.c2, b.d2)):
        raise MissingBounds(f"kernel {kernel.name} declares no c1/d1/c2/d2 bounds")
    ct = _ctilde_at_midpoints(b.c1, b.c2, grid)
    norm_value = math.sqrt(float(grid.delta * (ct * ct).sum()))
    return _verdict("A4", norm_value, 0.5, _triangle_samples(grid) + grid.n_cells,
                    kernel.diagonal_zero, diagonal_gates=False)


def coercivity_constants(kernel: KernelSpec, grid: Grid) -> tuple[float, float]:
    """Discrete coercivity pair (||ctilde||, ||dtilde||) for the functional.

    For kernels declaring only c0/d0 (diagonal-vanishing style), those
    play the roles of c2/d2 with c1 = d1 = 0.  Evaluation runs on the
    operator module's quadrature nodes; with these constants

        F_0(x) >= (1/2 - ||ctilde||) ||x||^2 - ||dtilde|| ||x||

    holds for the discrete functional up to rounding.
    """
    b = kernel.bounds
    if b is None:
        raise MissingBounds(f"kernel {kernel.name} declares no bounds")
    if b.c1 is not None and b.c2 is not None:
        c1, c2 = b.c1, b.c2
        d1 = b.d1 if b.d1 is not None else np.zeros_like
        d2 = b.d2 if b.d2 is not None else LagBound(np.zeros_like)
    elif b.c0 is not None and b.d0 is not None:
        if not kernel.diagonal_zero:
            raise MissingBounds(
                f"kernel {kernel.name} declares only c0/d0 but is not diagonal-zero"
            )
        c1 = d1 = np.zeros_like
        c2, d2 = b.c0, b.d0
    else:
        raise MissingBounds(f"kernel {kernel.name} bounds are incomplete")

    ct = _ctilde_at_midpoints(c1, c2, grid)
    dt = _at_midpoints(d1, "d1", grid) + _inner_bound(d2, grid)
    c_norm = math.sqrt(float(grid.delta * (ct * ct).sum()))
    d_norm = math.sqrt(float(grid.delta * (dt * dt).sum()))
    return c_norm, d_norm


def check_example1(a_bar: float, length: float = 1.0) -> HypothesisReport:
    """Closed-form admissibility of the logarithmic kernel on an interval
    of the given length inside [0, 1].

    c0 depends on t - tau alone, so on [alpha, alpha + L] the triangle L2
    norm of c0 is sqrt(4/35) |a_bar| L^(5/3) exactly, against the
    threshold sqrt(2) / (2 L): the condition reduces to
    a_bar^2 L^(16/3) < 35/8, which on [0, 1] reads a_bar^2 < 35/8.
    """
    _require_real(a_bar, "a_bar")
    if not 0 < length <= 1:
        raise ValueError(f"length must lie in (0, 1], got {length}")
    L = float(length)
    norm_value = 2.0 * abs(float(a_bar)) * L ** (5.0 / 3.0) / math.sqrt(35.0)
    return _verdict("A3", norm_value, math.sqrt(2.0) / (2.0 * L), 0)


def check_example2(w_prime, A: float, T: float, grid: Grid) -> HypothesisReport:
    """Admissibility of the convolution kernel w(t - tau) z(x) on [0, T].

    Reports the double integral of w'(t - tau)^2 over the triangle in
    norm_value against the threshold 1 / (2 A^2 T^2); the certified
    condition is strict.  The grid must span [0, T].  w'^2 is a bound
    of the lag alone, so the integral is the Toeplitz sum check_A3 takes.
    """
    _require_positive(A, "A")
    _require_positive(T, "T")
    if abs(grid.alpha) > 1e-12 or abs(grid.beta - T) > 1e-12 * max(1.0, T):
        raise ValueError(f"grid [{grid.alpha}, {grid.beta}] must span [0, {T}]")
    value = _triangle_integral(_squared(LagBound(w_prime)), grid)
    return _verdict("A3", value, 1.0 / (2.0 * A * A * T * T), _triangle_samples(grid))
