"""Problem configuration: strict schema, kernel registry, rhs construction."""

import json
import math

import numpy as np
import pytest
from pytest import approx

import volterra as vt
from volterra import ConfigError, ProblemConfig


def _base(**over):
    cfg = {
        "kernel": {"name": "linear", "params": {"lambda": 0.5}},
        "interval": [0.0, 1.0],
        "n_cells": 100,
        "rhs": {"expression": "t"},
        "tol": 1e-10,
    }
    cfg.update(over)
    return cfg


class TestSchema:
    def test_minimal_config_parses(self):
        cfg = ProblemConfig.from_dict(_base())
        assert cfg.kernel_name == "linear"
        assert cfg.alpha == 0.0 and cfg.beta == 1.0
        assert cfg.n_cells == 100
        assert cfg.max_iter == 50 and cfg.seed == 0  # defaults

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(solver="newton"))

    def test_missing_required_key_rejected(self):
        bad = _base()
        del bad["tol"]
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(bad)

    @pytest.mark.parametrize("field,value", [
        ("n_cells", 10.5),
        ("n_cells", True),
        ("n_cells", 8),            # below the minimum
        ("interval", [0.0]),
        ("interval", [1.0, 0.0]),  # reversed
        ("interval", [False, 1.0]),
        pytest.param("n_cells", 10**400, id="n_cells-10^400"),
        ("tol", -1e-10),
        ("tol", "tight"),
        ("max_iter", 0),
        ("seed", 1.5),
        ("seed", -1),
    ])
    def test_bad_field_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(**{field: value}))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(kernel={"name": "mystery", "params": {}}))

    def test_missing_kernel_param_rejected(self):
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(kernel={"name": "linear", "params": {}}))

    def test_extra_kernel_param_rejected(self):
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(
                kernel={"name": "linear", "params": {"lambda": 0.5, "mu": 1.0}}))

    def test_roundtrips_through_to_dict(self):
        cfg = ProblemConfig.from_dict(_base(seed=42))
        again = ProblemConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_base()))
        cfg = ProblemConfig.from_file(p)
        assert cfg.kernel_name == "linear"

    def test_from_file_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            ProblemConfig.from_file(p)

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigError):
            ProblemConfig.from_file(tmp_path / "nope.json")


class TestKernelRegistry:
    def test_zero_takes_no_params(self):
        cfg = ProblemConfig.from_dict(_base(kernel={"name": "zero", "params": {}}))
        k = cfg.build_kernel()
        assert k.name == "zero"

    def test_log_kernel_interval_must_fit_unit_triangle(self):
        ok = ProblemConfig.from_dict(_base(
            kernel={"name": "example1", "params": {"a_bar": 1.0}}))
        assert ok.build_kernel().name == "example1(1.0)"
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(
                kernel={"name": "example1", "params": {"a_bar": 1.0}},
                interval=[0.0, 2.0]))

    def test_convolution_kernel_defaults(self):
        cfg = ProblemConfig.from_dict(_base(
            kernel={"name": "example2_linw_atan", "params": {}},
            interval=[0.0, 0.9]))
        k = cfg.build_kernel()
        v = k.v(np.array([0.9]), np.array([0.4]), np.array([[1.0]]))
        assert v[0, 0] == approx(0.5 * math.atan(1.0), rel=1e-12)

    def test_convolution_kernel_requires_zero_alpha(self):
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(
                kernel={"name": "example2_linw_atan", "params": {}},
                interval=[0.1, 1.0]))

    @pytest.mark.parametrize("A", [0.0, 0.1, 0.5, 0.9, 0.999, 1.0, 2.0])
    def test_atan_offset_is_the_least_majorant(self, A):
        # |atan x| <= A|x| + B exactly for B at least the sup over u of
        # atan(u) - A u; a fine sample of u comes within 1e-9 of it
        from volterra.config import _atan_offset

        u = np.concatenate([np.linspace(0.0, 100.0, 1_000_001), [1e6, 1e12]])
        sampled = (np.arctan(u) - A * u).max()
        assert _atan_offset(A) >= sampled - 1e-15
        assert _atan_offset(A) <= sampled + (1e-9 if A > 0 else 1e-6)
        with pytest.raises(ConfigError, match="atan"):
            ProblemConfig.from_dict(_base(
                kernel={"name": "example2_linw_atan", "params": {"A": A, "B": sampled - 1e-6}},
                interval=[0.0, 0.9]))


class TestRhs:
    def test_expressions_are_anchored_to_alpha(self):
        for expr, f in [("t", lambda t: t - 1.0),
                        ("t^2", lambda t: (t - 1.0) ** 2),
                        ("sin", lambda t: math.sin(t - 1.0))]:
            cfg = ProblemConfig.from_dict(_base(
                interval=[1.0, 2.0], rhs={"expression": expr}))
            y = cfg.build_rhs(cfg.build_grid())
            expect = [f(t) for t in cfg.build_grid().nodes]
            assert np.allclose(y.values[:, 0], expect, atol=1e-14)

    def test_expressions_take_the_values_of_one_call_per_node(self):
        # one numpy call on all nodes gives what from_callable's call per
        # node gives: "t" bit for bit, sin within 2 ulp; "t^2" is the
        # correctly rounded square, which the scalar pow behind (t - a) ** 2
        # can miss by an ulp, but meets bit for bit from alpha = 0
        for interval in ([0.0, 1.0], [0.1, 0.9], [-1.0, 2.0]):
            g = vt.Grid(*interval, 2000)
            a = g.alpha
            for expr, f in [("t", lambda t: t - a), ("t^2", lambda t: (t - a) ** 2),
                            ("sin", lambda t: math.sin(t - a))]:
                cfg = ProblemConfig.from_dict(_base(interval=interval, n_cells=2000,
                                                    rhs={"expression": expr}))
                y, ref = cfg.build_rhs(g).values, vt.from_callable(f, g).values
                ulp = np.abs(y - ref) / np.spacing(np.abs(ref))
                if expr == "t" or (expr == "t^2" and a == 0.0):
                    assert np.array_equal(y, ref), (interval, expr)
                elif expr == "t^2":
                    assert np.array_equal(y[:, 0], (g.nodes - a) * (g.nodes - a))
                    assert ulp.max() <= 1
                else:
                    assert ulp.max() <= 2, (interval, expr)

    def test_expression_not_anchored_is_rejected(self, monkeypatch):
        from volterra import config

        monkeypatch.setitem(config._RHS_EXPRESSIONS, "t", lambda s: s + 1.0)
        cfg = ProblemConfig.from_dict(_base())
        with pytest.raises(vt.NotAnchoredAtAlpha):
            cfg.build_rhs(cfg.build_grid())

    def test_unknown_expression_rejected(self):
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(rhs={"expression": "cosh"}))

    def test_rhs_requires_exactly_one_source(self):
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(rhs={}))
        with pytest.raises(ConfigError):
            ProblemConfig.from_dict(_base(
                rhs={"expression": "t", "csv": "also.csv"}))

    def test_csv_rhs_resamples_by_interpolation(self, tmp_path, rng):
        fine = vt.Grid(0.0, 1.0, 400)
        y_fine = vt.from_callable(lambda t: t * (2.0 - t), fine)
        p = tmp_path / "rhs.csv"
        vt.write_csv(y_fine, p)
        cfg = ProblemConfig.from_dict(_base(rhs={"csv": str(p)}, n_cells=80))
        y = cfg.build_rhs(cfg.build_grid())
        expect = cfg.build_grid().nodes * (2.0 - cfg.build_grid().nodes)
        assert np.allclose(y.values[:, 0], expect, atol=1e-4)

    def test_csv_rhs_must_cover_the_interval(self, tmp_path):
        short = vt.Grid(0.0, 0.5, 50)
        vt.write_csv(vt.from_callable(lambda t: t, short), tmp_path / "rhs.csv")
        cfg = ProblemConfig.from_dict(_base(rhs={"csv": str(tmp_path / "rhs.csv")}))
        with pytest.raises(ConfigError):
            cfg.build_rhs(cfg.build_grid())

    def test_csv_rhs_must_vanish_at_alpha(self, tmp_path):
        p = tmp_path / "rhs.csv"
        p.write_text("t,x_1\n" + "".join(
            f"{t},{t + 1.0}\n" for t in np.linspace(0.0, 1.0, 51)))
        cfg = ProblemConfig.from_dict(_base(rhs={"csv": str(p)}))
        with pytest.raises(ConfigError):
            cfg.build_rhs(cfg.build_grid())

    def test_malformed_csv_reported_as_config_error(self, tmp_path):
        p = tmp_path / "rhs.csv"
        p.write_text("wrong,header\n0,0\n")
        cfg = ProblemConfig.from_dict(_base(rhs={"csv": str(p)}))
        with pytest.raises(ConfigError):
            cfg.build_rhs(cfg.build_grid())


def test_build_grid_matches_fields():
    cfg = ProblemConfig.from_dict(_base(interval=[-1.0, 2.0], n_cells=64))
    g = cfg.build_grid()
    assert g == vt.Grid(-1.0, 2.0, 64)
