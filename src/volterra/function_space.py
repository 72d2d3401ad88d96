"""Uniform-grid model of anchored absolutely continuous functions.

A function is stored by its values on the nodes of a uniform grid and
identified with its piecewise-linear interpolant.  Interpolants that
vanish at the left endpoint form an exact finite-dimensional subspace of
the space of absolutely continuous functions with square-integrable
derivative, so every norm below is an exact property of the interpolant,
not a quadrature approximation.  The native norm is the L2 norm of the
derivative; for piecewise-linear data it reduces to the per-cell
difference quotients:

    ac_norm(x)^2 = sum_i |x_{i+1} - x_i|^2 / delta.

Vector-valued functions (dim n >= 1) are supported throughout; per-node
magnitudes are Euclidean.
"""

from __future__ import annotations

import math
import numbers
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimMismatch, GridMismatch, NotAnchoredAtAlpha

# Absolute slack used by boolean float predicates throughout the package.
PREDICATE_SLACK = 1e-12

# |f(alpha)| above this is treated as a genuine anchoring violation.
ANCHOR_ATOL = 1e-10

_UNIFORMITY_RTOL = 1e-12


def _is_real(value) -> bool:
    """value a real of finite float value, not a bool nor an int past the float range."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _require_real(value, name: str) -> None:
    """value a finite real number; else a ValueError naming the argument."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _require_positive(value, name: str) -> None:
    """value a finite real number > 0; else a ValueError naming the argument."""
    if not (_is_real(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_count(value, name: str, least: int = 1) -> None:
    """value an integer >= least within the float range, numpy integers
    included; else a ValueError naming the argument."""
    if not (isinstance(value, numbers.Integral) and _is_real(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_interval(alpha, beta) -> None:
    """Finite real endpoints with beta > alpha; else a ValueError saying which."""
    _require_real(alpha, "alpha")
    _require_real(beta, "beta")
    if not beta > alpha:
        raise ValueError(f"need beta > alpha, got [{alpha}, {beta}]")


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [alpha, beta] into n_cells cells."""

    alpha: float
    beta: float
    n_cells: int

    def __post_init__(self):
        _require_interval(self.alpha, self.beta)
        n = self.n_cells  # a whole number >= 1 of any real type but bool
        if not (_is_real(n) and int(n) == n and n >= 1):
            raise ValueError(f"n_cells must be a positive integer, got {n!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))  # 2.0 -> 2, for linspace

    @cached_property
    def delta(self) -> float:
        return (self.beta - self.alpha) / self.n_cells

    @cached_property
    def nodes(self) -> np.ndarray:
        arr = np.linspace(self.alpha, self.beta, self.n_cells + 1)
        arr.setflags(write=False)
        return arr

    @cached_property
    def midpoints(self) -> np.ndarray:
        arr = self.nodes[:-1] + 0.5 * self.delta
        arr.setflags(write=False)
        return arr

    @property
    def length(self) -> float:
        return self.beta - self.alpha

    @classmethod
    def from_nodes(cls, nodes) -> "Grid":
        """Build a Grid from an explicit node sequence.

        The sequence must be strictly increasing and uniform to within
        1e-12 relative spacing; anything else is rejected.
        """
        arr = np.asarray(nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need at least two nodes")
        d = np.diff(arr)
        if not np.all(d > 0):
            raise ValueError("nodes must be strictly increasing")
        mean = float(d.mean())
        if np.abs(d - mean).max() > _UNIFORMITY_RTOL * max(mean, abs(arr[-1]), abs(arr[0])):
            raise ValueError("nodes are not uniformly spaced")
        return cls(float(arr[0]), float(arr[-1]), arr.size - 1)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Node values of a piecewise-linear function anchored at alpha.

    values has shape (n_cells + 1, dim); a 1-d array is promoted to a
    single column.  Non-finite values are rejected.  values[0] is
    required to vanish (up to ANCHOR_ATOL) and is stored as exact zero.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n_cells + 1:
            raise ValueError(
                f"values shape {np.shape(self.values)} does not match grid with "
                f"{self.grid.n_cells} cells"
            )
        if v.shape[1] < 1:
            raise ValueError("dim must be at least 1")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        if np.abs(v[0]).max() > ANCHOR_ATOL:
            raise NotAnchoredAtAlpha(
                f"|x(alpha)| = {np.abs(v[0]).max():.3e} exceeds {ANCHOR_ATOL:.0e}"
            )
        v[0] = 0.0
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def _require_compatible(self, other: "GridFunction"):
        if self.grid != other.grid:
            raise GridMismatch(f"{self.grid} vs {other.grid}")
        if self.dim != other.dim:
            raise DimMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._require_compatible(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._require_compatible(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, a) -> "GridFunction":
        return GridFunction(self.grid, float(a) * self.values)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def __repr__(self):
        return (
            f"GridFunction(n_cells={self.grid.n_cells}, dim={self.dim}, "
            f"interval=[{self.grid.alpha}, {self.grid.beta}])"
        )


def zeros(grid: Grid, dim: int = 1) -> GridFunction:
    return GridFunction(grid, np.zeros((grid.n_cells + 1, dim)))


def axpy(a: float, x: GridFunction, y: GridFunction) -> GridFunction:
    """a*x + y on a shared grid."""
    x._require_compatible(y)
    return GridFunction(x.grid, float(a) * x.values + y.values)


def sub(x: GridFunction, y: GridFunction) -> GridFunction:
    return x - y


def scale(a: float, x: GridFunction) -> GridFunction:
    return float(a) * x


def ac_norm(x: GridFunction) -> float:
    """Exact derivative norm of the interpolant."""
    return _ac_norm_of(x.values, x.grid.delta)


def _ac_norm_of(values: np.ndarray, delta: float) -> float:
    """ac_norm of node values on cells of width delta.  The differences are
    scaled by the largest only when the plain sum of squares overflows, so
    every result that does not is the plain one."""
    d = np.diff(values, axis=0)
    with np.errstate(over="ignore"):
        squares = (d * d).sum() / delta
    if squares < math.inf:
        return float(np.sqrt(squares))
    top = float(np.abs(d).max())
    d /= top
    return top * math.sqrt((d * d).sum() / delta)


def sup_norm(x: GridFunction) -> float:
    """Max of per-node Euclidean magnitudes.

    Exact for the interpolant: on each cell the squared magnitude is
    convex, so the maximum over the cell sits at an endpoint.
    """
    return float(np.sqrt((x.values * x.values).sum(axis=1)).max())


def l2_norm(x: GridFunction) -> float:
    """Exact L2 norm of the piecewise-linear interpolant."""
    u = x.values[:-1]
    w = x.values[1:]
    per_cell = (u * u + u * w + w * w).sum(axis=1)
    return float(np.sqrt(x.grid.delta / 3.0 * per_cell.sum()))


def verify_embedding(x: GridFunction) -> bool:
    """Check the two continuous-embedding inequalities on x.

    |x(t_i)| <= sqrt(t_i - alpha) * ac_norm(x) at every node, and
    l2_norm(x)^2 <= (beta - alpha)^2 / 2 * ac_norm(x)^2, each with
    absolute slack PREDICATE_SLACK.
    """
    nrm = ac_norm(x)
    mags = np.sqrt((x.values * x.values).sum(axis=1))
    pointwise = np.sqrt(x.grid.nodes - x.grid.alpha) * nrm
    if np.any(mags > pointwise + PREDICATE_SLACK):
        return False
    return l2_norm(x) ** 2 <= 0.5 * x.grid.length**2 * nrm**2 + PREDICATE_SLACK


def from_callable(f: Callable, grid: Grid, dim: int = 1) -> GridFunction:
    """Sample f at the nodes.

    f maps a scalar t to a scalar (dim == 1) or a length-dim vector.
    Raises NotAnchoredAtAlpha when |f(alpha)| > ANCHOR_ATOL; otherwise
    the first row is forced to exact zero.
    """
    rows = [np.atleast_1d(np.asarray(f(t), dtype=float)) for t in grid.nodes]
    vals = np.stack(rows)
    if vals.shape[1] != dim:
        raise DimMismatch(f"f returns dim {vals.shape[1]}, expected {dim}")
    return GridFunction(grid, vals)


def random_anchored(grid: Grid, dim: int, rng: np.random.Generator,
                    norm: float | None = None) -> GridFunction:
    """Random element with independent Gaussian increments per cell.

    When norm is given the result is rescaled to that exact ac_norm
    (degenerate draws of all-zero increments are left at zero).
    """
    incr = rng.standard_normal((grid.n_cells, dim))
    vals = np.vstack([np.zeros((1, dim)), np.cumsum(incr, axis=0)])
    x = GridFunction(grid, vals)
    if norm is not None:
        cur = ac_norm(x)
        if cur > 0:
            x = (float(norm) / cur) * x
    return x


_HEADER_RE = re.compile(r"^t(,x_\d+)+$")


def write_csv(x: GridFunction, path) -> None:
    """Serialize as CSV: header t,x_1,...,x_n, one row per node, %.17g, LF."""
    cols = ",".join(f"x_{k + 1}" for k in range(x.dim))
    rows = np.column_stack([x.grid.nodes, x.values])
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"t,{cols}\n" + (row * rows.shape[0]) % tuple(rows.ravel().tolist()))


def read_csv(path) -> GridFunction:
    """Inverse of write_csv; validates the header and grid uniformity."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not _HEADER_RE.match(header):
            raise ValueError(f"unexpected CSV header {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows; the check below says so
            arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if arr.shape[1] != header.count(",") + 1:
        raise ValueError("CSV rows do not match header")
    grid = Grid.from_nodes(arr[:, 0])
    return GridFunction(grid, arr[:, 1:])
