"""How many walks of the triangle solve_gradient takes, per problem.

For each kernel x rhs x N of the solve set, prints the iterations, the
merit evaluations (one v_t walk each), the gradients (one v_tx walk
each), their sum, the final F, the converged flag and the wall time of
one solve_gradient.  The solve set is example1 with a_bar in {0.5, 1,
1.5, 2}, linear(0.5) and linear(2), and v = c atan(kappa x) with
(c, kappa) in {(2, 1), (5, 2), (10, 3)}, each on y in {t, sin 5t, 3t^2}.
The counts come from wrapping nonlinear_solver._merit and
nonlinear_solver.functional_gradient, so the script reads the same
columns from any version of the solver that keeps those names.

    python scripts/gradient_walks.py [--cells 100 500 2000] [--tol 1e-7]
"""

import argparse
import time

import numpy as np

import volterra as vt
from volterra import SolverError, nonlinear_solver

RHS = {"t": lambda t: t, "sin5t": lambda t: np.sin(5.0 * t), "3t^2": lambda t: 3.0 * t * t}


def _atan(c, kappa):
    # v = c atan(kappa x) does not depend on t, so it is smooth in t
    return vt.scalar_kernel(lambda t, tau, x: c * np.arctan(kappa * x),
                            lambda t, tau, x: 0.0 * x,
                            lambda t, tau, x: c * kappa / (1.0 + (kappa * x) ** 2),
                            lambda t, tau, x: 0.0 * x, smooth_in_t=True)


def kernels() -> dict:
    out = {f"example1({a})": vt.example1_kernel(a) for a in (0.5, 1.0, 1.5, 2.0)}
    out.update({f"linear({lam})": vt.linear_kernel(lam) for lam in (0.5, 2.0)})
    out.update({f"atan({c}, {k})": _atan(c, k) for c, k in ((2, 1), (5, 2), (10, 3))})
    return out


def _counting(counts):
    """Wrap the solver's merit and gradient so that each call counts."""
    def counted(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return call

    nonlinear_solver._merit = counted("merits", nonlinear_solver._merit)
    nonlinear_solver.functional_gradient = counted("gradients",
                                                   nonlinear_solver.functional_gradient)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, nargs="+", default=[100, 500, 2000])
    parser.add_argument("--tol", type=float, default=1e-7)
    args = parser.parse_args()
    counts = {"merits": 0, "gradients": 0}
    _counting(counts)
    print(f"{'kernel':<16} {'rhs':<6} {'N':>5} {'iters':>5} {'merits':>6} {'grads':>5} "
          f"{'walks':>5} {'F':>9} {'conv':>5} {'ms':>8}")
    for name, kernel in kernels().items():
        for rhs, f in RHS.items():
            for n in args.cells:
                y = vt.from_callable(f, vt.Grid(0.0, 1.0, n))
                counts.update(merits=0, gradients=0)
                start = time.perf_counter()
                try:
                    _, report = vt.solve_gradient(kernel, y, tol=args.tol)
                except SolverError as err:
                    report = err.report
                ms = 1e3 * (time.perf_counter() - start)
                walks = counts["merits"] + counts["gradients"]
                print(f"{name:<16} {rhs:<6} {n:>5} {report.iterations:>5} "
                      f"{counts['merits']:>6} {counts['gradients']:>5} {walks:>5} "
                      f"{report.functional_history[-1]:>9.2e} {str(report.converged):>5} "
                      f"{ms:>8.1f}")


if __name__ == "__main__":
    main()
