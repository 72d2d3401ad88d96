"""Grid-refinement study for the two solver paths.

Sweeps n_cells and prints AC-norm errors against the closed-form
resolvent for the linear kernel, plus self-convergence of the
log-kernel solution against a fine reference.  Both are solved by
solve_march, the CLI's solver: the linear kernel declares lag factors,
so its march takes Toeplitz products, and the log kernel marches on
the generic route.  Expected slope: second order for the
linear problem, a bit under that for the weakly singular time
derivative of the log kernel.
"""

import argparse
import math

import volterra as vt


def linear_sweep(cells):
    print("linear kernel (lambda=0.5), exact x = 2(1 - e^(-t/2))")
    print(f"{'n_cells':>8} {'ac_rel_err':>12} {'rate':>6}")
    prev = None
    for n in cells:
        g = vt.Grid(0.0, 1.0, n)
        x, _ = vt.solve_march(vt.linear_kernel(0.5),
                              vt.from_callable(lambda t: t, g), tol=1e-13)
        exact = vt.from_callable(lambda t: 2.0 * (1.0 - math.exp(-t / 2.0)), g)
        err = vt.ac_norm(vt.sub(x, exact)) / vt.ac_norm(exact)
        rate = "" if prev is None else f"{math.log2(prev / err):.2f}"
        print(f"{n:>8} {err:>12.3e} {rate:>6}")
        prev = err


def example1_sweep(cells, n_ref):
    print(f"\nlog kernel (a_bar=1.0), reference at n_cells={n_ref}")
    g_ref = vt.Grid(0.0, 1.0, n_ref)
    # The march solves every leaf to its rounding floor and tol only
    # accepts the result; the floor's derivative norm grows as n_cells.
    ref, _ = vt.solve_march(vt.example1_kernel(1.0),
                            vt.from_callable(lambda t: t, g_ref), tol=1e-12)
    print(f"{'n_cells':>8} {'ac_rel_err':>12} {'rate':>6}")
    prev = None
    for n in cells:
        g = vt.Grid(0.0, 1.0, n)
        x, _ = vt.solve_march(vt.example1_kernel(1.0),
                              vt.from_callable(lambda t: t, g), tol=1e-12)
        # compare on the coarse nodes; n divides n_ref so they are shared
        stride = n_ref // n
        diff = x.values[:, 0] - ref.values[::stride, 0]
        err = max(abs(d) for d in diff) / vt.sup_norm(ref)
        rate = "" if prev is None else f"{math.log2(prev / err):.2f}"
        print(f"{n:>8} {err:>12.3e} {rate:>6}")
        prev = err


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, nargs="+",
                    default=[25, 50, 100, 200, 400])
    ap.add_argument("--ref-cells", type=int, default=3200)
    args = ap.parse_args()
    linear_sweep(args.cells)
    example1_sweep([n for n in args.cells if args.ref_cells % n == 0],
                   args.ref_cells)


if __name__ == "__main__":
    main()
