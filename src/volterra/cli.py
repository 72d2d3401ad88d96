"""Command-line interface.

Exit codes: 0 for certified / converged runs, 1 when a check is not
certified or a solver fails to converge, 2 for configuration errors (a
non-finite number in the config among them) and unwritable outputs.
Reports are single JSON objects with hypothesis / solve / sensitivity
sections plus metadata; apart from the timestamp, identical configs and
seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certification import check_A3, check_A4, check_example1, check_example2
from .config import ProblemConfig, _linw_atan_majorant
from .errors import ConfigError, SolverError, VolterraError
from .function_space import ac_norm, from_callable, sub, write_csv
from .linear_solver import apply_T, collocation_solve
from .nonlinear_solver import solve_march
from .sensitivity import fd_discrepancy

_FD_EPSILON = 1e-3


def _report(config: ProblemConfig, hypothesis: dict | None = None) -> dict:
    meta = {
        "grid": {"alpha": config.alpha, "beta": config.beta, "n_cells": config.n_cells},
        "seed": config.seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return {"hypothesis": hypothesis, "solve": None, "sensitivity": None, "meta": meta}


def _write_report(report: dict, path) -> None:
    """The report as JSON in the file at path, or on stdout if path is None."""
    text = json.dumps(report, indent=2)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")


def _run_checks(config: ProblemConfig, kernel, grid) -> dict:
    """Run every check the kernel's declared bounds support.

    The example kernels also take their closed-form A3, recorded as
    closed_form, and are certified only when that passes too: example1
    by check_example1 on the config's interval, since the grid's
    midpoint rule falls short of the exact norm of c0 and near the
    threshold a coarse grid passes a kernel the paper's condition
    refuses; example2_linw_atan, w' = 1 with |atan x| <= A|x| + B, by
    check_example2 when A > 0 (for A = 0, c0 vanishes).
    """
    section: dict = {"A3": None, "A4": None, "certified": False}
    b = kernel.bounds
    if b is not None and b.c0 is not None and b.d0 is not None:
        section["A3"] = check_A3(kernel, grid).to_dict()
    if b is not None and all(f is not None for f in (b.c1, b.d1, b.c2, b.d2)):
        section["A4"] = check_A4(kernel, grid).to_dict()
    section["certified"] = any(
        rep is not None and rep["passed"] for rep in (section["A3"], section["A4"])
    )
    params, closed = config.kernel_params, None
    if config.kernel_name == "example1":
        closed = check_example1(params["a_bar"], grid.length)
    elif config.kernel_name == "example2_linw_atan":
        A = _linw_atan_majorant(params)[0]
        closed = check_example2(np.ones_like, A, T=grid.beta, grid=grid) if A > 0 else None
    if closed is not None:
        section["closed_form"] = closed.to_dict()
        section["certified"] = section["certified"] and closed.passed
    return section


def cmd_check(args) -> int:
    config = ProblemConfig.from_file(args.config)
    grid = config.build_grid()
    kernel = config.build_kernel()
    hyp = _run_checks(config, kernel, grid)
    _write_report(_report(config, hyp), args.report)
    if hyp["certified"]:
        print(f"certified: kernel {kernel.name} on [{grid.alpha}, {grid.beta}]",
              file=sys.stderr)
        return 0
    print(f"not certified: kernel {kernel.name} on [{grid.alpha}, {grid.beta}]",
          file=sys.stderr)
    return 1


def _solve_section(kernel, config, y):
    x, rep = solve_march(kernel, y, tol=config.tol, max_iter=config.max_iter)
    section = rep.to_dict()
    section["final_residual"] = rep.residual_history[-1]
    return x, section


def _sensitivity_section(kernel, config, x, y, h):
    """Sensitivity at the solved base point x of V(x) = y in direction h,
    with its residual and the finite-difference check."""
    s = collocation_solve(kernel, x, h)
    resid = ac_norm(sub(s + apply_T(kernel, x, s), h))
    fd_gap = fd_discrepancy(kernel, y, h, s, epsilon=_FD_EPSILON,
                            tol=min(config.tol, 1e-11), max_iter=config.max_iter)
    return s, {"residual": resid, "fd_epsilon": _FD_EPSILON, "fd_discrepancy": fd_gap}


def cmd_solve(args) -> int:
    config = ProblemConfig.from_file(args.config)
    grid = config.build_grid()
    kernel = config.build_kernel()
    y = config.build_rhs(grid)
    hyp = _run_checks(config, kernel, grid)
    if not hyp["certified"]:
        print("warning: hypotheses not certified; solving anyway", file=sys.stderr)
    report = _report(config, hyp)
    try:
        x, section = _solve_section(kernel, config, y)
    except SolverError as exc:
        report["solve"] = exc.report.to_dict() if exc.report is not None else {"error": str(exc)}
        _write_report(report, args.report)
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    report["solve"] = section
    write_csv(x, args.output)
    _write_report(report, args.report)
    print(f"solution written to {args.output}", file=sys.stderr)
    return 0


def cmd_sensitivity(args) -> int:
    from .config import _resample_csv

    config = ProblemConfig.from_file(args.config)
    grid = config.build_grid()
    kernel = config.build_kernel()
    y = config.build_rhs(grid)
    h = _resample_csv(args.direction, grid, "direction csv", kernel.dim)
    report = _report(config)
    try:
        x, solve_section = _solve_section(kernel, config, y)
        s, sens_section = _sensitivity_section(kernel, config, x, y, h)
    except SolverError as exc:
        report["sensitivity"] = {"error": str(exc)}
        _write_report(report, args.report)
        print(f"sensitivity failed: {exc}", file=sys.stderr)
        return 1
    report["solve"] = solve_section
    report["sensitivity"] = sens_section
    write_csv(s, args.output)
    _write_report(report, args.report)
    print(f"sensitivity written to {args.output}", file=sys.stderr)
    return 0


_DEMO = {"n_cells": 500, "rhs": {"expression": "t"}, "tol": 1e-10, "max_iter": 50, "seed": 0}
_DEMOS = {
    "example1": {"kernel": {"name": "example1", "params": {"a_bar": 1.0}},
                 "interval": [0.0, 1.0], **_DEMO},
    "example2": {"kernel": {"name": "example2_linw_atan", "params": {"A": 1.0, "B": 0.0}},
                 "interval": [0.0, 0.9], **_DEMO},
}


def cmd_demo(args) -> int:
    if args.name not in _DEMOS:
        print(f"unknown demo {args.name!r}; choose from {sorted(_DEMOS)}", file=sys.stderr)
        return 2
    config = ProblemConfig.from_dict(_DEMOS[args.name])
    out_dir = Path(args.out_dir) / args.name
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config.to_dict(), indent=2) + "\n")

    grid = config.build_grid()
    kernel = config.build_kernel()
    y = config.build_rhs(grid)
    h = from_callable(lambda t: t - grid.alpha, grid)
    hyp = _run_checks(config, kernel, grid)
    report = _report(config, hyp)
    ok = hyp["certified"]
    print(f"[demo {args.name}] check: {'certified' if ok else 'NOT certified'}",
          file=sys.stderr)

    if ok:
        try:
            x, solve_section = _solve_section(kernel, config, y)
            report["solve"] = solve_section
            write_csv(x, out_dir / "solution.csv")
            print(f"[demo {args.name}] solve: {solve_section['iterations']} iterations, "
                  f"residual {solve_section['final_residual']:.3e}", file=sys.stderr)

            s, report["sensitivity"] = _sensitivity_section(kernel, config, x, y, h)
            write_csv(s, out_dir / "sensitivity.csv")
            print(f"[demo {args.name}] sensitivity: fd discrepancy "
                  f"{report['sensitivity']['fd_discrepancy']:.3e}", file=sys.stderr)
        except SolverError as exc:
            report["solve"] = report["solve"] or {"error": str(exc)}
            ok = False
            print(f"[demo {args.name}] solver failed: {exc}", file=sys.stderr)

    _write_report(report, out_dir / "report.json")
    print(f"[demo {args.name}] artifacts in {out_dir}", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterra",
        description="Second-kind Volterra equations: certification, solving, sensitivity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="certify well-posedness hypotheses")
    p.add_argument("config")
    p.add_argument("--report", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_check)

    p = subs.add_parser("solve", help="solve V(x) = rhs")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True, help="solution CSV path")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_solve)

    p = subs.add_parser("sensitivity", help="directional sensitivity of the solution map")
    p.add_argument("config")
    p.add_argument("--direction", required=True, help="direction CSV path")
    p.add_argument("-o", "--output", required=True, help="sensitivity CSV path")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_sensitivity)

    p = subs.add_parser("demo", help="run a canonical end-to-end example")
    p.add_argument("name", help="example1 or example2")
    p.add_argument("--out-dir", default="demo_out")
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except VolterraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
