"""What one tree walk of quadrature costs, and how much of it is the kernel.

For example1_kernel(1.0) at x = 2 sin 3t, prints per N the time of the
v_t walk of inner_integral and of the v_tx transpose of
inner_integral_adjoint, each with example1's evaluator and with a free
one that returns a cached zero array of the shape asked for, and the
evaluator calls per walk.  The free walk is quadrature's own cost: the
views, the far checks, the reductions and the scatter.  Each v_t row
also gives apply_T's v_x walk at its N, evaluated, and replayed from
the walk's recorder as neumann_solve replays it after its first
iteration, so that the walk's own cost per Neumann iteration shows
(transpose rows print "-").

A second table gives the lag route: collocation_solve at Newton's
solution, solve_march, solve_newton and neumann_solve at Newton's
solution, on the example2_linw_atan problem of the CLI on [0, 0.9]
with y = t, per --lag-cells N, with the ms per solve, the calls per
solve of the kernel's lag factors w (w and w') and z (z and z'), and
the Toeplitz products per solve (quadrature._block_sum on a lag table:
the march's merges, collocation's contracting steps, Newton's trial
residuals and the contracting steps of its linearizations, and the
Neumann iterations).  Each solve evaluates w once, on the grid's N
lags, and collocation_solve and neumann_solve take z' once, at x0's
midpoints; neumann_solve's estimate of l_rho samples the kernel's own
evaluators, which the counts leave out.
Times are the best of --repeat runs in one process.

    python scripts/walk_cost.py [--cells 1000 2000 16000] [--lag-cells 4000 100000]
                                [--repeat 20]
"""

import argparse
import contextlib
import dataclasses
import time

import numpy as np

import volterra as vt
from volterra.kernels import LagFactors, SmoothInT
from volterra.quadrature import (_block_sum, _LagTable, cell_midpoint_values, inner_integral,
                                 inner_integral_adjoint, node_integral)


def _free(trailing):
    """A SmoothInT evaluator that returns a cached zero array of the
    shape of t (quadrature passes t and tau at the sample shape) plus
    trailing."""
    zeros = {}

    def ev(t, tau, x):
        shape = t.shape + trailing
        if shape not in zeros:
            zeros[shape] = np.zeros(shape)
        return zeros[shape]

    return SmoothInT(ev)


def _counted(f):
    """f as a SmoothInT evaluator, and the count of its calls."""
    calls = [0]

    def ev(t, tau, x):
        calls[0] += 1
        return f(t, tau, x)

    return SmoothInT(ev), calls


def _replaying(f, grid, x, h):
    """apply_T's walk of f applied to h, replaying f's samples from the
    second walk on."""
    integrand, recorded = SmoothInT(f), []
    xm, hm = cell_midpoint_values(x), cell_midpoint_values(h)
    return lambda: _block_sum(integrand, grid.nodes, grid.midpoints, xm, hm, tri=True,
                              recorded=recorded)


def _counted_factors(kernel):
    """kernel with its lag factors counted: calls["w"] counts the calls of
    w and w', calls["z"] those of z and z'."""
    calls = {"w": 0, "z": 0}

    def counted(name, fn):
        def factor(arg):
            calls[name] += 1
            return fn(arg)
        return factor

    lag = kernel.lag
    factors = LagFactors(counted("w", lag.w), counted("w", lag.w_prime),
                         counted("z", lag.z), counted("z", lag.z_prime))
    return dataclasses.replace(kernel, lag=factors), calls


@contextlib.contextmanager
def _counted_products(calls):
    """Count the Toeplitz products of every lag table under calls["products"]
    while in the block: each _block_sum on a table takes its symbol's
    spectrum once."""
    spectrum = _LagTable.spectrum

    def counted(self, *args):
        calls["products"] += 1
        return spectrum(self, *args)

    _LagTable.spectrum = counted
    try:
        yield
    finally:
        _LagTable.spectrum = spectrum


def lag_table(cells, repeat):
    """ms, w calls, z calls and Toeplitz products per solve on the lag
    route, per N."""
    print(f"\n{'solve':>17} {'N':>6} {'ms':>9} {'w calls':>8} {'z calls':>8} {'products':>9}")
    for n in cells:
        config = vt.ProblemConfig.from_dict({
            "kernel": {"name": "example2_linw_atan"}, "interval": [0.0, 0.9], "n_cells": n,
            "rhs": {"expression": "t"}, "tol": 1e-10})
        grid, kernel = config.build_grid(), config.build_kernel()
        y = config.build_rhs(grid)
        x, _ = vt.solve_newton(kernel, y, tol=config.tol)
        counted, calls = _counted_factors(kernel)
        for name, solve in (("collocation_solve", lambda k: vt.collocation_solve(k, x, y)),
                            ("solve_march", lambda k: vt.solve_march(k, y, tol=config.tol)),
                            ("solve_newton", lambda k: vt.solve_newton(k, y, tol=config.tol)),
                            ("neumann_solve", lambda k: vt.neumann_solve(k, x, y, tol=config.tol))):
            best = _best(lambda: solve(kernel), repeat)
            calls.update(w=0, z=0, products=0)
            with _counted_products(calls):
                solve(counted)
            print(f"{name:>17} {n:>6} {1e3 * best:>9.3f} {calls['w']:>8} {calls['z']:>8} "
                  f"{calls['products']:>9}")


def _best(walk, repeat):
    walk()  # a shape is laid out on its first walk
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        walk()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, nargs="+", default=[1000, 2000, 16000])
    ap.add_argument("--lag-cells", type=int, nargs="+", default=[4000, 100000])
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()
    kernel = vt.example1_kernel(1.0)
    print(f"{'walk':>5} {'N':>6} {'example1 ms':>12} {'free ms':>9} {'free/ex1':>9} {'calls':>6} "
          f"{'v_x ms':>8} {'replay ms':>10}")
    for which, trailing in (("v_t", (1,)), ("v_tx", (1, 1))):
        for n in args.cells:
            grid = vt.Grid(0.0, 1.0, n)
            x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * t), grid).values
            w = np.cos(7.0 * grid.midpoints)[:, None]
            counted, calls = _counted(getattr(kernel, which))
            evaluators = (kernel.integrand(which), _free(trailing), counted)
            if which == "v_t":
                walks = [lambda f=f: inner_integral(f, grid, x) for f in evaluators]
            else:
                walks = [lambda f=f: inner_integral_adjoint(f, grid, x, w) for f in evaluators]
            t_ex1, t_free = (_best(walk, args.repeat) for walk in walks[:2])
            walks[2]()
            name = which if which == "v_t" else "v_tx'"
            v_x = f"{'-':>8} {'-':>10}"
            if which == "v_t":
                h = vt.from_callable(lambda t: t * np.cos(5.0 * t), grid).values
                t_eval = _best(lambda: node_integral(kernel.integrand("v_x"), grid, x, h), args.repeat)
                t_replay = _best(_replaying(kernel.v_x, grid, x, h), args.repeat)
                v_x = f"{1e3 * t_eval:>8.3f} {1e3 * t_replay:>10.3f}"
            print(f"{name:>5} {n:>6} {1e3 * t_ex1:>12.3f} {1e3 * t_free:>9.3f} "
                  f"{t_free / t_ex1:>9.2f} {calls[0]:>6} {v_x}")
    lag_table(args.lag_cells, args.repeat)


if __name__ == "__main__":
    main()
