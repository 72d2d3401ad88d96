"""The benchmark workloads: their inputs, one operation, and its gates.

Each workload is a closed loop with one caller: an operation starts
when the previous one has ended.  Inputs come only from the seed.  The
module imports no volterra code at import time, so the harness in
run.py can write inputs without loading the program it times; the
worker-side methods (setup, op, gate) import it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Outputs on this seed are compared with REFERENCE_DIR/<workload>.npy.
# Each file holds one output of one seed-0 operation of the package as it
# stood when the benchmark was added, before any optimisation: the
# sensitivity column of the CLI's s.csv (cli-sensitivity-ex1), and the
# node values of the solution x (ex2-long: solve_newton; ex1-iterative:
# solve_gradient).  They are data, not regenerated by the benchmark.
REFERENCE_SEED = 0


def ac_norm(values, delta: float) -> float:
    """Derivative norm of the piecewise-linear function with these node values."""
    d = np.diff(np.asarray(values, float), axis=0)
    return math.sqrt(float((d * d).sum()) / delta)


def anchored_draw(n_cells: int, delta: float, seed, norm: float) -> np.ndarray:
    """Node values of a seeded path through 0 with the given AC norm.

    Independent Gaussian increments per cell, the construction of
    volterra.random_anchored, drawn here so the program sees only data.
    """
    rng = np.random.default_rng(seed)
    values = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n_cells))])
    return values * (norm / ac_norm(values, delta))


def write_csv(path: Path, nodes: np.ndarray, values: np.ndarray) -> None:
    """The program's CSV wire format: header t,x_1 then one row per node."""
    rows = "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(nodes, values))
    path.write_text("t,x_1\n" + rows)


class Workload:
    """Common parameters and set-up of a workload.

    kernel, interval, n_cells and tol are written into the problem
    config that set-up reads; rhs_norm is the AC norm of the seeded
    perturbation added to the rhs t (0 keeps the plain expression).
    """

    name = ""
    why = ""
    not_moved = ""

    def __init__(self, kernel: dict, interval: tuple, n_cells: int, tol: float,
                 rhs_norm: float = 0.0):
        self.kernel = kernel
        self.interval = interval
        self.n_cells = n_cells
        self.tol = tol
        self.rhs_norm = rhs_norm

    @property
    def delta(self) -> float:
        return (self.interval[1] - self.interval[0]) / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.interval[0], self.interval[1], self.n_cells + 1)

    def params(self) -> dict:
        return {"kernel": self.kernel, "interval": list(self.interval),
                "n_cells": self.n_cells, "tol": self.tol, "rhs_norm": self.rhs_norm}

    def write_inputs(self, work: Path, seed: int) -> None:
        """Write the problem config (and any data file) for this seed."""
        self.write_config(work, "", seed, seed)

    def write_config(self, work: Path, suffix: str, seed: int, draw_seed) -> None:
        """Write config<suffix>.json, whose rhs perturbation is drawn from draw_seed."""
        if self.rhs_norm:
            rhs_values = (self.nodes - self.interval[0]) + anchored_draw(
                self.n_cells, self.delta, draw_seed, self.rhs_norm)
            write_csv(work / f"rhs{suffix}.csv", self.nodes, rhs_values)
            rhs = {"csv": str(work / f"rhs{suffix}.csv")}
        else:
            rhs = {"expression": "t"}
        config = {"kernel": self.kernel, "interval": list(self.interval),
                  "n_cells": self.n_cells, "rhs": rhs, "tol": self.tol,
                  "max_iter": 50, "seed": seed}
        (work / f"config{suffix}.json").write_text(json.dumps(config, indent=2) + "\n")

    def setup(self, work: Path) -> dict:
        """Import volterra and build the config, grid, kernel and rhs."""
        import volterra
        from volterra.config import ProblemConfig

        config = ProblemConfig.from_file(work / "config.json")
        grid = config.build_grid()
        return {"vt": volterra, "work": work, "config": config, "grid": grid,
                "kernel": config.build_kernel(), "y": config.build_rhs(grid)}

    def op(self, state: dict):
        raise NotImplementedError

    def gate(self, state: dict, out, seed: int) -> list[str]:
        """Failed checks of one operation's output; empty when all pass."""
        raise NotImplementedError

    def check_reference(self, values: np.ndarray, seed: int, rtol: float) -> list[str]:
        if seed != REFERENCE_SEED:
            return []
        ref = np.load(REFERENCE_DIR / f"{self.name}.npy")
        if values.shape != ref.shape:
            return [f"output shape {values.shape} != reference {ref.shape}"]
        rel = ac_norm(values - ref, self.delta) / ac_norm(ref, self.delta)
        return [] if rel <= rtol else [f"relative distance to reference {rel:.3e} > {rtol:.0e}"]


class CliSensitivity(Workload):
    """`volterra sensitivity` on example1, one fresh process per operation.

    The op run in-process (for tracing) calls volterra.cli.main with the
    same arguments.  The CLI does not emit the base solution, so its
    residual is taken from the report's solve section.
    """

    name = "cli-sensitivity-ex1"
    why = ("The CLI user's whole path: import is ~1.4 s of a ~8 s op; in-process, "
           "kernel eval ~38%, quadrature ~40%, 4 Newton and 10 collocation solves; "
           "CSV and config I/O <1%.")
    not_moved = "a convolution (FFT) fast path: example1 is not a convolution kernel"
    sensitivity_residual_max = 1e-12
    fd_discrepancy_max = 1e-6
    reference_rtol = 1e-8

    def __init__(self, n_cells: int = 2000):
        super().__init__({"name": "example1", "params": {"a_bar": 1.0}},
                         (0.0, 1.0), n_cells, 1e-10)

    def params(self) -> dict:
        return {**super().params(), "direction_norm": 1.0, "fd_epsilon": 1e-3}

    def write_inputs(self, work: Path, seed: int) -> None:
        super().write_inputs(work, seed)
        write_csv(work / "direction.csv", self.nodes,
                  anchored_draw(self.n_cells, self.delta, seed, 1.0))

    def argv(self, work: Path) -> list[str]:
        return ["sensitivity", str(work / "config.json"),
                "--direction", str(work / "direction.csv"),
                "-o", str(work / "s.csv"), "--report", str(work / "report.json")]

    def clear_outputs(self, work: Path) -> None:
        for name in ("s.csv", "report.json"):
            (work / name).unlink(missing_ok=True)

    def op(self, state: dict):
        from volterra.cli import main

        work = state["work"]
        self.clear_outputs(work)
        return main(self.argv(work))

    def gate(self, state: dict, out, seed: int) -> list[str]:
        return self.check_outputs(state["work"], out, seed)

    def read_solution(self, work: Path) -> np.ndarray:
        return np.loadtxt(work / "s.csv", delimiter=",", skiprows=1, ndmin=2)

    def check_outputs(self, work: Path, exit_code: int, seed: int) -> list[str]:
        """Gates on the files one CLI run wrote."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            report = json.loads((work / "report.json").read_text())
            data = self.read_solution(work)
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        fails = []
        solve, sens = report.get("solve") or {}, report.get("sensitivity") or {}
        if solve.get("converged") is not True:
            fails.append("base solve did not converge")
        if not solve.get("final_residual", math.inf) <= self.tol:
            fails.append(f"final_residual {solve.get('final_residual')} > {self.tol}")
        if not sens.get("residual", math.inf) <= self.sensitivity_residual_max:
            fails.append(f"sensitivity residual {sens.get('residual')}")
        if not sens.get("fd_discrepancy", math.inf) <= self.fd_discrepancy_max:
            fails.append(f"fd_discrepancy {sens.get('fd_discrepancy')}")
        if data.shape != (self.n_cells + 1, 2) or not np.all(np.isfinite(data)):
            fails.append(f"sensitivity csv has shape {data.shape} or non-finite values")
            return fails
        if np.abs(data[:, 0] - self.nodes).max() > 1e-12:
            fails.append("sensitivity csv is not on the problem grid")
        return fails + self.check_reference(data[:, 1], seed, self.reference_rtol)


class NewtonLong(Workload):
    """check_A3 + check_example2 + solve_newton on the arctan feedback kernel."""

    name = "ex2-long"
    why = ("Long horizon, cheap convolution kernel: quadrature self time ~60%, "
           "kernel eval ~24%, linear_solver ~16% of the op; 640 MB peak allocation; "
           "2 Newton iterations.")
    not_moved = "the gradient path: functional_gradient, apply_T and neumann_solve are never called"
    reference_rtol = 1e-8

    def __init__(self, n_cells: int = 4000):
        super().__init__({"name": "example2_linw_atan", "params": {"A": 1.0, "B": 0.0}},
                         (0.0, 0.9), n_cells, 1e-10, rhs_norm=0.5)

    def op(self, state: dict):
        vt, grid, kernel = state["vt"], state["grid"], state["kernel"]
        a3 = vt.check_A3(kernel, grid)
        ex2 = vt.check_example2(np.ones_like, A=1.0, T=grid.beta, grid=grid)
        x, report = vt.solve_newton(kernel, state["y"], tol=self.tol,
                                    max_iter=state["config"].max_iter)
        return a3, ex2, x, report

    def gate(self, state: dict, out, seed: int) -> list[str]:
        vt, kernel, y = state["vt"], state["kernel"], state["y"]
        a3, ex2, x, report = out
        fails = [f"{r.variant} check not passed" for r in (a3, ex2) if not r.passed]
        if not report.converged:
            fails.append("newton did not converge")
        residual = ac_norm(y.values - vt.apply_V(kernel, x).values, self.delta)
        if not residual <= self.tol:
            fails.append(f"residual {residual:.3e} > tol {self.tol:.0e}")
        return fails + self.check_reference(x.values[:, 0], seed, self.reference_rtol)


class Iterative(Workload):
    """solve_gradient on example1, then neumann_solve of the linearization,
    for each of two right-hand sides drawn from the seed.

    Whether the gradient method needs 6 or 7 iterations depends on the
    draw, about half of draws each, and the extra iteration costs ~15% of
    a solve.  Two draws per operation halve the run-to-run spread that
    adds to op_s.  The first draw is the one the reference was stored for.
    """

    name = "ex1-iterative"
    why = ("The triangle used the other way round, on 2 rhs per op: functional_gradient "
           "~27%, 30 merit evals, 12 apply_T; quadrature ~50%, kernel eval ~40%; "
           "estimate_l_rho <0.1%; no collocation_solve.")
    not_moved = "collocation_solve (0 calls), so a collocation change predicts no change"
    neumann_tol = 1e-10
    reference_rtol = 1e-5

    def __init__(self, n_cells: int = 1000):
        super().__init__({"name": "example1", "params": {"a_bar": 1.0}},
                         (0.0, 1.0), n_cells, 1e-6, rhs_norm=0.5)

    def params(self) -> dict:
        return {**super().params(), "neumann_tol": self.neumann_tol, "draws": 2}

    def write_inputs(self, work: Path, seed: int) -> None:
        super().write_inputs(work, seed)
        self.write_config(work, "-1", seed, [seed, 1])

    def setup(self, work: Path) -> dict:
        from volterra.config import ProblemConfig

        state = super().setup(work)
        second = ProblemConfig.from_file(work / "config-1.json").build_rhs(state["grid"])
        return {**state, "ys": [state["y"], second]}

    def op(self, state: dict):
        vt, kernel = state["vt"], state["kernel"]
        outs = []
        for y in state["ys"]:
            x, report = vt.solve_gradient(kernel, y, tol=self.tol)
            h, neumann = vt.neumann_solve(kernel, x, y, tol=self.neumann_tol)
            outs.append((x, report, h, neumann))
        return outs

    def gate(self, state: dict, out, seed: int) -> list[str]:
        vt, kernel = state["vt"], state["kernel"]
        fails = []
        for k, (y, (x, report, h, neumann)) in enumerate(zip(state["ys"], out)):
            if not (report.converged and neumann.converged):
                fails.append(f"draw {k}: gradient or neumann did not converge")
            F = vt.functional_F(kernel, x, y)
            if not F <= self.tol ** 2:
                fails.append(f"draw {k}: F {F:.3e} > tol^2 {self.tol ** 2:.0e}")
            Th = vt.apply_T(kernel, x, h)
            residual = ac_norm(h.values + Th.values - y.values, self.delta)
            if not residual <= self.neumann_tol:
                fails.append(f"draw {k}: neumann residual {residual:.3e} > {self.neumann_tol:.0e}")
        return fails + self.check_reference(out[0][0].values[:, 0], seed, self.reference_rtol)


WORKLOADS = {w.name: w for w in (CliSensitivity, NewtonLong, Iterative)}
