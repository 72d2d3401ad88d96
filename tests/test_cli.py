"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

import volterra as vt
from volterra.cli import main


def _write_cfg(tmp_path, **over):
    cfg = {
        "kernel": {"name": "linear", "params": {"lambda": 0.5}},
        "interval": [0.0, 1.0],
        "n_cells": 100,
        "rhs": {"expression": "t"},
        "tol": 1e-10,
    }
    cfg.update(over)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


class TestCheck:
    def test_certified_kernel_exits_zero(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        assert main(["check", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hypothesis"]["certified"] is True
        assert report["hypothesis"]["A4"]["passed"] is True
        assert report["hypothesis"]["A3"] is None  # no c0/d0 declared

    def test_uncertified_kernel_exits_one(self, tmp_path):
        cfg = _write_cfg(tmp_path, kernel={"name": "linear", "params": {"lambda": 0.9}})
        assert main(["check", str(cfg)]) == 1

    @pytest.mark.parametrize("excess, n_cells", [(1e-4, 50), (1e-5, 200)])
    def test_example1_past_its_closed_form_threshold_exits_one(self, tmp_path, capsys,
                                                                excess, n_cells):
        # A3 for example1 reads a_bar^2 < 35/8 exactly; on these grids the
        # midpoint norm of c0 falls short of the exact one, so the grid
        # check alone passes
        a_bar = math.sqrt(35.0 / 8.0) + excess
        cfg = _write_cfg(tmp_path, kernel={"name": "example1", "params": {"a_bar": a_bar}},
                         n_cells=n_cells)
        assert main(["check", str(cfg)]) == 1
        captured = capsys.readouterr()
        hyp = json.loads(captured.out)["hypothesis"]
        assert "not certified" in captured.err
        assert hyp["A3"]["passed"] is True
        assert hyp["closed_form"] == vt.check_example1(a_bar).to_dict()
        assert hyp["closed_form"]["passed"] is False
        assert hyp["certified"] is False
        rep_path = tmp_path / "rep.json"
        assert main(["solve", str(cfg), "-o", str(tmp_path / "x.csv"),
                     "--report", str(rep_path)]) == 0
        assert "hypotheses not certified" in capsys.readouterr().err
        assert json.loads(rep_path.read_text())["hypothesis"] == hyp

    @pytest.mark.parametrize("a_bar, interval", [(2.0, [0.0, 1.0]), (3.0, [0.1, 0.9])])
    def test_example1_within_its_closed_form_threshold_exits_zero(self, tmp_path, capsys,
                                                                  a_bar, interval):
        # the closed form is taken on the config's interval: a_bar = 3
        # fails A3 on [0, 1] and holds on a sub-interval of length 0.8
        cfg = _write_cfg(tmp_path, kernel={"name": "example1", "params": {"a_bar": a_bar}},
                         interval=interval)
        assert main(["check", str(cfg)]) == 0
        hyp = json.loads(capsys.readouterr().out)["hypothesis"]
        assert hyp["closed_form"] == vt.check_example1(a_bar, interval[1] - interval[0]).to_dict()
        assert hyp["A3"]["passed"] and hyp["closed_form"]["passed"] and hyp["certified"]

    @pytest.mark.parametrize("params, A", [({"A": 1.0}, 1.0), ({}, 1.0), ({"A": 2.5}, 2.5)])
    def test_example2_config_is_gated_on_its_closed_form(self, tmp_path, capsys, params, A):
        # A^2 T^4 < 1 on [0, 0.9] for A = 1 (the default), not for A = 2.5
        cfg = _write_cfg(tmp_path, kernel={"name": "example2_linw_atan", "params": params},
                         interval=[0.0, 0.9])
        closed = vt.check_example2(np.ones_like, A, T=0.9, grid=vt.Grid(0.0, 0.9, 100))
        assert main(["check", str(cfg)]) == (0 if A == 1.0 else 1)
        hyp = json.loads(capsys.readouterr().out)["hypothesis"]
        assert hyp["closed_form"] == closed.to_dict()
        assert hyp["A3"]["passed"] == closed.passed == hyp["certified"]
        rep_path = tmp_path / "rep.json"
        assert main(["solve", str(cfg), "-o", str(tmp_path / "x.csv"),
                     "--report", str(rep_path)]) == 0
        assert json.loads(rep_path.read_text())["hypothesis"] == hyp

    def test_example2_config_with_zero_slope_bound_has_no_closed_form(self, tmp_path, capsys):
        # A = 0 and B = pi/2 declare c0 = 0, a true majorant of atan: A3
        # holds and there is nothing to gate
        cfg = _write_cfg(tmp_path, kernel={"name": "example2_linw_atan",
                                           "params": {"A": 0.0, "B": math.pi / 2}},
                         interval=[0.0, 0.9])
        assert main(["check", str(cfg)]) == 0
        captured = capsys.readouterr()
        hyp = json.loads(captured.out)["hypothesis"]
        assert "closed_form" not in hyp and hyp["certified"] is True
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("A, B", [(0.0, 0.0), (0.5, 0.0), (0.5, 0.2)])
    def test_example2_config_with_a_false_majorant_exits_two(self, tmp_path, capsys, A, B):
        # |atan x| <= A|x| + B needs B >= atan(u) - A u at u = sqrt(1/A - 1),
        # 0.2854 for A = 0.5, and B >= pi/2 for A = 0
        cfg = _write_cfg(tmp_path, kernel={"name": "example2_linw_atan",
                                           "params": {"A": A, "B": B}},
                         interval=[0.0, 0.9])
        assert main(["check", str(cfg)]) == 2
        assert "atan" in capsys.readouterr().err

    def test_example2_config_with_the_least_offset_is_accepted(self, tmp_path):
        u = 1.0  # A = 0.5: the offset peaks at u = 1
        cfg = _write_cfg(tmp_path, kernel={"name": "example2_linw_atan",
                                           "params": {"A": 0.5, "B": math.atan(u) - 0.5 * u}},
                         interval=[0.0, 0.9])
        assert main(["check", str(cfg)]) == 0

    def test_report_file_written(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        rep_path = tmp_path / "report.json"
        assert main(["check", str(cfg), "--report", str(rep_path)]) == 0
        report = json.loads(rep_path.read_text())
        assert set(report) == {"hypothesis", "solve", "sensitivity", "meta"}
        assert report["meta"]["grid"] == {"alpha": 0.0, "beta": 1.0, "n_cells": 100}
        assert "timestamp" in report["meta"]

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_malformed_config_exits_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert main(["check", str(p)]) == 2

    def test_bad_schema_exits_two(self, tmp_path):
        cfg = _write_cfg(tmp_path, n_cells=4)
        assert main(["check", str(cfg)]) == 2

    @pytest.mark.parametrize("text, message", [
        ("[]", "config must be a JSON object"),
        (json.dumps({"kernel": "linear", "interval": [0.0, 1.0], "n_cells": 100,
                     "rhs": {"expression": "t"}, "tol": 1e-10}), "kernel must be an object"),
        (json.dumps({"kernel": {"name": "linear", "params": [0.5]}, "interval": [0.0, 1.0],
                     "n_cells": 100, "rhs": {"expression": "t"}, "tol": 1e-10}),
         "kernel params must be an object"),
        (json.dumps({"kernel": {"name": "example2_linw_atan", "params": {"A": -1.0}},
                     "interval": [0.0, 0.9], "n_cells": 100, "rhs": {"expression": "t"},
                     "tol": 1e-10}), "example2_linw_atan: need A, B >= 0"),
    ], ids=["array", "kernel", "params", "negative-A"])
    def test_a_config_off_the_schema_exits_two(self, tmp_path, capsys, text, message):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        assert main(["check", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")


class TestSolve:
    def test_an_rhs_csv_not_vanishing_at_alpha_exits_two(self, tmp_path, capsys):
        # anchored on its own grid [-0.5, 1], 0.5 at the config's alpha = 0
        rhs = tmp_path / "rhs.csv"
        vt.write_csv(vt.from_callable(lambda t: t + 0.5, vt.Grid(-0.5, 1.0, 30)), rhs)
        cfg = _write_cfg(tmp_path, rhs={"csv": str(rhs)})
        assert main(["solve", str(cfg), "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: rhs csv does not vanish at alpha")
        assert not (tmp_path / "x.csv").exists()

    def test_writes_solution_and_report(self, tmp_path):
        cfg = _write_cfg(tmp_path, n_cells=500)
        out = tmp_path / "x.csv"
        rep_path = tmp_path / "rep.json"
        assert main(["solve", str(cfg), "-o", str(out), "--report", str(rep_path)]) == 0
        x = vt.read_csv(out)
        exact = vt.from_callable(lambda t: 2.0 * (1.0 - math.exp(-t / 2.0)), x.grid)
        assert vt.ac_norm(vt.sub(x, exact)) / vt.ac_norm(exact) < 1e-4
        report = json.loads(rep_path.read_text())
        assert report["solve"]["converged"] is True
        assert report["solve"]["final_residual"] <= 1e-10

    def test_matches_library_call_exactly(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["solve", str(cfg), "-o", str(out)]) == 0
        x_cli = vt.read_csv(out)
        g = vt.Grid(0.0, 1.0, 100)
        x_lib, _ = vt.solve_march(vt.linear_kernel(0.5),
                                  vt.from_callable(lambda t: t, g), tol=1e-10)
        assert np.array_equal(x_cli.values, x_lib.values)

    def test_uncertified_still_solves_with_warning(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, kernel={"name": "linear", "params": {"lambda": 0.9}})
        out = tmp_path / "x.csv"
        assert main(["solve", str(cfg), "-o", str(out)]) == 0
        assert "not certified" in capsys.readouterr().err
        assert out.exists()

    def test_nonconvergence_exits_one_with_report(self, tmp_path):
        cfg = _write_cfg(tmp_path,
                         kernel={"name": "example1", "params": {"a_bar": 1.0}},
                         tol=1e-15, max_iter=1)
        out = tmp_path / "x.csv"
        rep_path = tmp_path / "rep.json"
        code = main(["solve", str(cfg), "-o", str(out), "--report", str(rep_path)])
        assert code == 1
        report = json.loads(rep_path.read_text())
        assert report["solve"]["converged"] is False
        assert not out.exists()


def _csv_with(tmp_path, name, index, value):
    # t on a 100-cell grid with one entry replaced
    g = vt.Grid(0.0, 1.0, 100)
    vals = g.nodes.copy()
    vals[index] = value
    lines = ["t,x_1"] + [f"{t:.17g},{v:.17g}" for t, v in zip(g.nodes, vals)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestNonFiniteInput:
    @pytest.mark.parametrize("index, value", [(0, math.nan), (40, math.inf)])
    def test_rhs_csv_exits_two(self, tmp_path, capsys, index, value):
        rhs = _csv_with(tmp_path, "rhs.csv", index, value)
        cfg = _write_cfg(tmp_path, rhs={"csv": str(rhs)})
        out = tmp_path / "x.csv"
        assert main(["solve", str(cfg), "-o", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("index, value", [(0, math.nan), (40, -math.inf)])
    def test_direction_csv_exits_two(self, tmp_path, index, value):
        h = _csv_with(tmp_path, "h.csv", index, value)
        cfg = _write_cfg(tmp_path)
        assert main(["sensitivity", str(cfg), "--direction", str(h),
                     "-o", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("over", [
        {"interval": [0.0, math.inf]},
        {"interval": [-math.inf, 1.0]},
        {"interval": [0.0, math.nan]},
        {"interval": [0, 10**400]},
        {"kernel": {"name": "example1", "params": {"a_bar": math.nan}}},
        {"kernel": {"name": "linear", "params": {"lambda": math.inf}}},
        {"kernel": {"name": "example2_linw_atan", "params": {"B": math.inf}},
         "interval": [0.0, 0.9]},
        {"tol": math.inf},
        {"tol": math.nan},
        {"tol": 10**400},
    ], ids=["beta=inf", "alpha=-inf", "beta=nan", "beta=10^400", "a_bar=nan", "lambda=inf",
            "B=inf", "tol=inf", "tol=nan", "tol=10^400"])
    def test_nonfinite_config_number_exits_two(self, tmp_path, capsys, command, over):
        # json reads NaN, Infinity and 1e400 as floats, 10^400 as an int
        argv = [command, str(_write_cfg(tmp_path, **over))]
        out = tmp_path / "x.csv"
        if command == "solve":
            argv += ["-o", str(out)]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert err.startswith("config error: ") and "finite" in err, err
        assert stdout == ""
        assert not out.exists()


    @pytest.mark.parametrize("broken", ["v", "v_x"])
    def test_nonfinite_kernel_exits_one(self, tmp_path, capsys, monkeypatch, broken):
        # v = sin(x) / 2 with one evaluator nan for t > 1/2
        from volterra.config import ProblemConfig

        formulas = {"v": lambda t, tau, x: 0.5 * np.sin(x),
                    "v_x": lambda t, tau, x: 0.5 * np.cos(x)}
        good = formulas[broken]
        formulas[broken] = lambda t, tau, x: np.where(t > 0.5, np.nan, good(t, tau, x))
        ker = vt.scalar_kernel(formulas["v"], lambda t, tau, x: 0.0 * x,
                               formulas["v_x"], lambda t, tau, x: 0.0 * x)
        monkeypatch.setattr(ProblemConfig, "build_kernel", lambda self: ker)
        out = tmp_path / "x.csv"
        assert main(["solve", str(_write_cfg(tmp_path)), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and "node 51 " in err
        assert not out.exists()

    def test_nonfinite_declared_bound_exits_one(self, tmp_path, capsys, monkeypatch):
        # linear(0.5) with c1 nan for t > 1/2: no NaN margin reaches a report
        from volterra.config import ProblemConfig

        ker = vt.linear_kernel(0.5)
        c1 = ker.bounds.c1
        bounds = replace(ker.bounds, c1=lambda t: np.where(np.asarray(t) > 0.5, np.nan, c1(t)))
        monkeypatch.setattr(ProblemConfig, "build_kernel", lambda self: replace(ker, bounds=bounds))
        rep_path = tmp_path / "report.json"
        cfg = _write_cfg(tmp_path)
        assert main(["check", str(cfg), "--report", str(rep_path)]) == 1
        assert main(["check", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert err.count("error: ") == 2 and "declared bounds must be finite" in err
        assert "NaN" not in out
        assert not rep_path.exists()

    def test_nonfinite_diagonal_sample_exits_one(self, tmp_path, capsys, monkeypatch):
        # example1 with v nan for t > 1/2: an error, not "not certified"
        from volterra.config import ProblemConfig

        ker = vt.example1_kernel(1.0)
        v = ker.v
        broken = replace(ker, v=lambda t, tau, x: np.where(np.asarray(t)[..., None] > 0.5,
                                                           np.nan, v(t, tau, x)))
        monkeypatch.setattr(ProblemConfig, "build_kernel", lambda self: broken)
        rep_path = tmp_path / "report.json"
        assert main(["check", str(_write_cfg(tmp_path)), "--report", str(rep_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "v must be finite on tau = t" in err
        assert not rep_path.exists()


class TestSensitivity:
    def test_zero_kernel_returns_direction(self, tmp_path):
        cfg = _write_cfg(tmp_path, kernel={"name": "zero", "params": {}})
        g = vt.Grid(0.0, 1.0, 100)
        h = vt.from_callable(lambda t: t * t, g)
        h_path = tmp_path / "h.csv"
        vt.write_csv(h, h_path)
        out = tmp_path / "s.csv"
        assert main(["sensitivity", str(cfg), "--direction", str(h_path),
                     "-o", str(out)]) == 0
        s = vt.read_csv(out)
        assert np.allclose(s.values, h.values, atol=1e-12)

    def test_linear_kernel_matches_closed_form(self, tmp_path):
        cfg = _write_cfg(tmp_path, n_cells=500)
        g = vt.Grid(0.0, 1.0, 500)
        vt.write_csv(vt.from_callable(lambda t: t, g), tmp_path / "h.csv")
        out = tmp_path / "s.csv"
        rep_path = tmp_path / "rep.json"
        assert main(["sensitivity", str(cfg), "--direction", str(tmp_path / "h.csv"),
                     "-o", str(out), "--report", str(rep_path)]) == 0
        s = vt.read_csv(out)
        exact = vt.from_callable(lambda t: 2.0 * (1.0 - math.exp(-t / 2.0)), g)
        assert vt.ac_norm(vt.sub(s, exact)) / vt.ac_norm(exact) < 1e-4
        report = json.loads(rep_path.read_text())
        assert report["sensitivity"]["fd_discrepancy"] <= 1e-2

    @pytest.mark.parametrize("argv", [["sensitivity"], ["demo", "example2"]])
    def test_base_problem_solved_once(self, tmp_path, monkeypatch, argv):
        # one base solve plus the two of the finite-difference check, each
        # a march: example1 on the generic route, the lag kernel of
        # example2 by Toeplitz products
        import volterra.cli as cli
        import volterra.sensitivity as sens

        methods = []

        def counted(fn):
            def solve(*args, **kwargs):
                x, rep = fn(*args, **kwargs)
                methods.append(rep.method)
                return x, rep
            return solve

        for mod in (cli, sens):
            for name in ("solve_march", "solve_newton"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
        if argv == ["sensitivity"]:
            cfg = _write_cfg(tmp_path, kernel={"name": "example1", "params": {"a_bar": 1.0}})
            vt.write_csv(vt.from_callable(lambda t: t * t, vt.Grid(0.0, 1.0, 100)),
                         tmp_path / "h.csv")
            argv = argv + [str(cfg), "--direction", str(tmp_path / "h.csv"),
                           "-o", str(tmp_path / "s.csv")]
        else:
            argv = argv + ["--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert methods == ["march"] * 3

    def test_solver_failure_exits_one_without_csv(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, kernel={"name": "example1", "params": {"a_bar": 1.0}},
                         tol=1e-15, max_iter=1)
        vt.write_csv(vt.from_callable(lambda t: t, vt.Grid(0.0, 1.0, 100)), tmp_path / "h.csv")
        out, rep_path = tmp_path / "s.csv", tmp_path / "rep.json"
        assert main(["sensitivity", str(cfg), "--direction", str(tmp_path / "h.csv"),
                     "-o", str(out), "--report", str(rep_path)]) == 1
        report = json.loads(rep_path.read_text())
        assert set(report["sensitivity"]) == {"error"}
        assert report["solve"] is None
        assert "sensitivity failed" in capsys.readouterr().err
        assert not out.exists()

    def test_direction_resampled_from_other_grid(self, tmp_path):
        cfg = _write_cfg(tmp_path, kernel={"name": "zero", "params": {}}, n_cells=64)
        fine = vt.Grid(0.0, 1.0, 512)
        vt.write_csv(vt.from_callable(lambda t: t, fine), tmp_path / "h.csv")
        out = tmp_path / "s.csv"
        assert main(["sensitivity", str(cfg), "--direction", str(tmp_path / "h.csv"),
                     "-o", str(out)]) == 0
        s = vt.read_csv(out)
        assert s.grid.n_cells == 64

    def test_bad_direction_csv_exits_two(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        bad = tmp_path / "h.csv"
        bad.write_text("not,a,grid\n")
        assert main(["sensitivity", str(cfg), "--direction", str(bad),
                     "-o", str(tmp_path / "s.csv")]) == 2

    def test_bad_direction_file_is_named_as_the_direction(self, tmp_path, capsys):
        # each error names the direction csv, never the rhs, and exits 2
        cfg = _write_cfg(tmp_path)
        lifted = tmp_path / "lifted.csv"
        vt.write_csv(vt.from_callable(lambda t: t, vt.Grid(0.0, 1.0, 100)), lifted)
        lifted.write_text(lifted.read_text().replace("\n0,0\n", "\n0,1\n", 1))
        short = tmp_path / "short.csv"
        vt.write_csv(vt.from_callable(lambda t: t, vt.Grid(0.0, 0.5, 50)), short)
        cases = [(lifted, "config error: bad direction csv: |x(alpha)| = 1.000e+00"),
                 (short, "config error: direction csv covers [0.0, 0.5] but the grid "
                         "needs [0.0, 1.0]"),
                 (tmp_path / "missing.csv", "config error: cannot read direction csv: ")]
        for path, message in cases:
            assert main(["sensitivity", str(cfg), "--direction", str(path),
                         "-o", str(tmp_path / "s.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(message), err
            assert "rhs" not in err
            assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("role", ["rhs", "direction"])
    def test_a_csv_of_the_wrong_dim_exits_two(self, tmp_path, capsys, role):
        # two value columns for a dim-1 kernel: rejected with the file's role
        wide = tmp_path / "wide.csv"
        vt.write_csv(vt.from_callable(lambda t: [t, t * t], vt.Grid(0.0, 1.0, 100), dim=2), wide)
        out = tmp_path / "out.csv"
        if role == "rhs":
            argv = ["solve", str(_write_cfg(tmp_path, rhs={"csv": str(wide)}))]
        else:
            argv = ["sensitivity", str(_write_cfg(tmp_path)), "--direction", str(wide)]
        assert main(argv + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {role} csv has 2 value columns; "
                              f"the kernel takes 1"), err
        assert not out.exists()


class TestDemo:
    def test_example1_artifacts_and_report(self, tmp_path):
        out_dir = tmp_path / "demo"
        assert main(["demo", "example1", "--out-dir", str(out_dir)]) == 0
        base = out_dir / "example1"
        for name in ("config.json", "report.json", "solution.csv", "sensitivity.csv"):
            assert (base / name).exists()
        report = json.loads((base / "report.json").read_text())
        assert report["hypothesis"]["A3"]["norm_value"] ** 2 == approx(4.0 / 35.0, rel=1e-3)
        assert report["hypothesis"]["certified"] is True
        assert report["solve"]["converged"] is True
        assert report["sensitivity"]["fd_discrepancy"] <= 1e-2

    def test_example2_reports_closed_form_numbers(self, tmp_path):
        out_dir = tmp_path / "demo"
        assert main(["demo", "example2", "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "example2" / "report.json").read_text())
        cf = report["hypothesis"]["closed_form"]
        assert cf["norm_value"] == approx(0.405, abs=1e-6)
        assert cf["threshold"] == approx(0.6172839506172839, abs=1e-6)
        assert cf["passed"] is True

    def test_solver_failure_exits_one_with_report(self, tmp_path, capsys, monkeypatch):
        import volterra.cli as cli

        monkeypatch.setitem(cli._DEMOS, "example1",
                            {**cli._DEMOS["example1"], "tol": 1e-15, "max_iter": 1})
        assert main(["demo", "example1", "--out-dir", str(tmp_path)]) == 1
        base = tmp_path / "example1"
        report = json.loads((base / "report.json").read_text())
        assert report["hypothesis"]["certified"] is True
        assert set(report["solve"]) == {"error"} and report["sensitivity"] is None
        assert not (base / "solution.csv").exists()
        assert "solver failed" in capsys.readouterr().err

    def test_unknown_name_exits_two(self, tmp_path):
        assert main(["demo", "nope", "--out-dir", str(tmp_path)]) == 2

    def test_runs_are_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["demo", "example1", "--out-dir", str(a_dir)]) == 0
        assert main(["demo", "example1", "--out-dir", str(b_dir)]) == 0
        a, b = a_dir / "example1", b_dir / "example1"
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
        assert (a / "sensitivity.csv").read_bytes() == (b / "sensitivity.csv").read_bytes()
        assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        ra["meta"].pop("timestamp")
        rb["meta"].pop("timestamp")
        assert ra == rb


def test_no_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unwritable_output_exits_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "missing" / "x.csv"
    assert main(["solve", str(cfg), "-o", str(out)]) == 2
    assert "io error: " in capsys.readouterr().err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert vt.__version__ in capsys.readouterr().out


def test_import_loads_no_scipy():
    # every CLI op is a fresh process that pays the import again, and
    # the Neumann tail certificate sums its series without scipy
    src = str(Path(vt.__file__).resolve().parents[1])
    scipy_mods = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    neumann = ("g = volterra.Grid(0.0, 1.0, 40); "
               "y = volterra.from_callable(lambda t: t, g); "
               "h, rep = volterra.neumann_solve(volterra.example1_kernel(1.0), y, y, tol=1e-8); "
               "assert rep.converged and rep.tail_bound > 0.0; ")
    for run in ("", neumann):
        code = f"import sys, volterra; {run}{scipy_mods}"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert out.stdout.strip() == "[]"
