"""Problem configuration: JSON schema, validation, and materialization.

Configs are strict: unknown keys anywhere are rejected so a typo cannot
silently fall back to a default.  Right-hand-side expressions are
anchored families ('t' means t - alpha and so on) so every named rhs
satisfies the membership condition x(alpha) = 0 on any interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, KernelContract, NotAnchoredAtAlpha
from .function_space import (Grid, GridFunction, _require_count, _require_positive, _require_real,
                             read_csv)
from .kernels import (
    KernelSpec,
    example1_kernel,
    example2_kernel,
    linear_kernel,
    zero_kernel,
)

_TOP_KEYS = {"kernel", "interval", "n_cells", "rhs", "tol", "max_iter", "seed"}
_REQUIRED = {"kernel", "interval", "n_cells", "rhs", "tol"}
_KERNEL_KEYS = {"name", "params"}
_RHS_KEYS = {"expression", "csv"}
# the built-in rhs expressions of s = t - alpha, evaluated on all nodes at once
_RHS_EXPRESSIONS = {"t": lambda s: s, "t^2": lambda s: s ** 2, "sin": np.sin}
_MIN_CELLS = 16

KERNEL_NAMES = ("zero", "linear", "example1", "example2_linw_atan")


@dataclass(frozen=True)
class ProblemConfig:
    kernel_name: str
    kernel_params: dict
    alpha: float
    beta: float
    n_cells: int
    rhs: dict
    tol: float
    max_iter: int = 50
    seed: int = 0

    @classmethod
    def from_file(cls, path) -> "ProblemConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ProblemConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = _REQUIRED - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")

        kern = raw["kernel"]
        if not isinstance(kern, dict) or set(kern) - _KERNEL_KEYS or "name" not in kern:
            raise ConfigError("kernel must be an object with keys 'name' and optional 'params'")
        name = kern["name"]
        if name not in KERNEL_NAMES:
            raise ConfigError(f"unknown kernel {name!r}; choose from {KERNEL_NAMES}")
        params = kern.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("kernel params must be an object")

        interval, rhs = raw["interval"], raw["rhs"]
        if not isinstance(interval, (list, tuple)) or len(interval) != 2:
            raise ConfigError("interval must be [alpha, beta], two finite numbers")
        if not isinstance(rhs, dict) or len(set(rhs) & _RHS_KEYS) != 1 or set(rhs) - _RHS_KEYS:
            raise ConfigError("rhs must carry exactly one of 'expression' or 'csv'")
        if "expression" in rhs and rhs["expression"] not in _RHS_EXPRESSIONS:
            raise ConfigError(f"unknown rhs expression {rhs['expression']!r}; "
                              f"choose from {tuple(_RHS_EXPRESSIONS)} or a csv")
        n_cells, tol = raw["n_cells"], raw["tol"]
        max_iter, seed = raw.get("max_iter", 50), raw.get("seed", 0)

        # every number by the library's own rules; kernel params and interval
        # compatibility are part of the schema, not something to discover at
        # solve time
        try:
            _require_count(n_cells, "n_cells", _MIN_CELLS)
            Grid(*interval, n_cells)
            _require_positive(tol, "tol")
            _require_count(max_iter, "max_iter")
            _require_count(seed, "seed", 0)
            for key, val in params.items():
                _require_real(val, f"kernel {name!r}: param {key!r}")
            alpha, beta = float(interval[0]), float(interval[1])
            _build_kernel(name, dict(params), alpha, beta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        return cls(kernel_name=name, kernel_params=dict(params), alpha=alpha,
                   beta=beta, n_cells=n_cells, rhs=dict(rhs), tol=float(tol),
                   max_iter=max_iter, seed=seed)

    def to_dict(self) -> dict:
        return {
            "kernel": {"name": self.kernel_name, "params": self.kernel_params},
            "interval": [self.alpha, self.beta],
            "n_cells": self.n_cells,
            "rhs": self.rhs,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "seed": self.seed,
        }

    def build_grid(self) -> Grid:
        return Grid(self.alpha, self.beta, self.n_cells)

    def build_kernel(self) -> KernelSpec:
        return _build_kernel(self.kernel_name, self.kernel_params,
                             self.alpha, self.beta)

    def build_rhs(self, grid: Grid) -> GridFunction:
        if "expression" in self.rhs:
            f = _RHS_EXPRESSIONS[self.rhs["expression"]]
            return GridFunction(grid, f(grid.nodes - grid.alpha))
        return _resample_csv(self.rhs["csv"], grid, "rhs csv", self.build_kernel().dim)


def _check_params(name: str, params: dict, required: set, optional: set = frozenset()):
    extra = set(params) - required - optional
    if extra:
        raise ConfigError(f"kernel {name!r}: unknown params {sorted(extra)}")
    missing = required - set(params)
    if missing:
        raise ConfigError(f"kernel {name!r}: missing params {sorted(missing)}")


def _atan_offset(A: float) -> float:
    """sup over u >= 0 of atan(u) - A u, the least B with |atan x| <= A|x| + B
    (A >= 0): 0 for A >= 1, pi/2 for A = 0, else its value at u = sqrt(1/A - 1)."""
    if A >= 1.0:
        return 0.0
    if A == 0.0:
        return math.pi / 2.0
    u = math.sqrt(1.0 / A - 1.0)
    return math.atan(u) - A * u


def _linw_atan_majorant(params: dict) -> tuple[float, float]:
    """example2_linw_atan's A and B of |atan x| <= A|x| + B, defaults 1 and 0."""
    return float(params.get("A", 1.0)), float(params.get("B", 0.0))


def _build_kernel(name: str, params: dict, alpha: float, beta: float) -> KernelSpec:
    if name == "zero":
        _check_params(name, params, set())
        return zero_kernel()
    if name == "linear":
        _check_params(name, params, {"lambda"})
        return linear_kernel(float(params["lambda"]))
    if name == "example1":
        _check_params(name, params, {"a_bar"})
        if alpha < -1e-12 or beta > 1.0 + 1e-12:
            raise ConfigError("example1 kernel lives on [0, 1]; interval must fit inside")
        return example1_kernel(float(params["a_bar"]))
    if name == "example2_linw_atan":
        _check_params(name, params, set(), optional={"A", "B"})
        if abs(alpha) > 1e-12:
            raise ConfigError("example2_linw_atan requires alpha = 0")
        A, B = _linw_atan_majorant(params)
        if A >= 0 and B < _atan_offset(A):
            raise ConfigError(f"example2_linw_atan: |atan x| <= A|x| + B needs B >= "
                              f"{_atan_offset(A):.17g} for A = {A}, got B = {B}")
        try:
            return example2_kernel(
                w=lambda s: np.asarray(s, float),
                w_prime=lambda s: np.ones_like(np.asarray(s, float)),
                z=np.arctan,
                z_prime=lambda x: 1.0 / (1.0 + np.asarray(x, float) ** 2),
                A=A, B=B, T=beta,
            )
        except KernelContract as exc:
            raise ConfigError(f"example2_linw_atan: {exc}") from exc
    raise ConfigError(f"unknown kernel {name!r}")


def _resample_csv(path, grid: Grid, role: str, dim: int) -> GridFunction:
    """The csv at path, of dim value columns, interpolated to the grid's
    nodes; a ConfigError names the file by its role ("rhs csv",
    "direction csv")."""
    try:
        data = read_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {role}: {exc}") from exc
    except (ValueError, NotAnchoredAtAlpha) as exc:
        raise ConfigError(f"bad {role}: {exc}") from exc
    if data.dim != dim:
        raise ConfigError(f"{role} has {data.dim} value columns; the kernel takes {dim}")
    src = data.grid
    pad = 1e-12 * max(1.0, abs(grid.alpha), abs(grid.beta))
    if src.alpha > grid.alpha + pad or src.beta < grid.beta - pad:
        raise ConfigError(
            f"{role} covers [{src.alpha}, {src.beta}] but the grid needs "
            f"[{grid.alpha}, {grid.beta}]"
        )
    cols = [
        np.interp(grid.nodes, src.nodes, data.values[:, k])
        for k in range(data.dim)
    ]
    vals = np.stack(cols, axis=1)
    try:
        return GridFunction(grid, vals)
    except NotAnchoredAtAlpha as exc:
        raise ConfigError(f"{role} does not vanish at alpha: {exc}") from exc
