"""Grid, GridFunction, norms, and the continuous-embedding inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import volterra as vt
from volterra import (
    DimMismatch,
    Grid,
    GridFunction,
    GridMismatch,
    NotAnchoredAtAlpha,
    ac_norm,
    axpy,
    from_callable,
    l2_norm,
    random_anchored,
    read_csv,
    sub,
    sup_norm,
    verify_embedding,
    write_csv,
    zeros,
)


class TestGrid:
    def test_basic_geometry(self):
        g = Grid(0.0, 2.0, 8)
        assert g.delta == approx(0.25)
        assert g.length == approx(2.0)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
        assert len(g.nodes) == 9
        assert len(g.midpoints) == 8
        assert g.midpoints[0] == approx(0.125)

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            Grid(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            Grid(2.0, 1.0, 4)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 0)

    def test_an_integral_float_cell_count_is_stored_as_an_int(self):
        g = Grid(0.0, 1.0, 2.0)
        assert type(g.n_cells) is int
        assert np.array_equal(g.nodes, Grid(0.0, 1.0, 2).nodes)
        with pytest.raises(ValueError, match="n_cells"):
            Grid(0.0, 1.0, 2.5)

    @pytest.mark.parametrize("n_cells", [math.inf, math.nan, True, -math.inf, "4"])
    def test_a_cell_count_that_is_not_a_whole_number_names_n_cells(self, n_cells):
        with pytest.raises(ValueError, match="n_cells"):
            Grid(0.0, 1.0, n_cells)

    @pytest.mark.parametrize("alpha, beta", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                             (0.0, math.nan), (-math.inf, math.inf)])
    def test_rejects_nonfinite_endpoints(self, alpha, beta):
        with pytest.raises(ValueError, match="finite"):
            Grid(alpha, beta, 4)

    def test_from_nodes_roundtrip(self):
        g = Grid(-1.0, 3.0, 17)
        g2 = Grid.from_nodes(g.nodes)
        assert g2 == g

    def test_from_nodes_rejects_nonuniform(self):
        nodes = np.array([0.0, 0.1, 0.25, 0.3])
        with pytest.raises(ValueError):
            Grid.from_nodes(nodes)

    def test_from_nodes_needs_two_nodes(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            Grid.from_nodes([0.0])

    def test_from_nodes_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Grid.from_nodes(np.array([0.0, 0.2, 0.1]))

    def test_nodes_are_read_only(self):
        g = Grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0


class TestGridFunction:
    def test_anchoring_enforced(self, unit_grid):
        vals = np.ones(unit_grid.n_cells + 1)
        with pytest.raises(NotAnchoredAtAlpha):
            GridFunction(unit_grid, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, unit_grid, bad):
        for row in (0, unit_grid.n_cells):
            vals = np.zeros(unit_grid.n_cells + 1)
            vals[row] = bad
            with pytest.raises(ValueError, match="finite"):
                GridFunction(unit_grid, vals)

    def test_values_must_have_a_row_per_node(self, unit_grid):
        with pytest.raises(ValueError, match="does not match grid"):
            GridFunction(unit_grid, np.zeros(unit_grid.n_cells))

    def test_values_need_a_column(self, unit_grid):
        with pytest.raises(ValueError, match="dim must be at least 1"):
            GridFunction(unit_grid, np.zeros((unit_grid.n_cells + 1, 0)))

    def test_first_row_forced_to_zero(self, unit_grid):
        vals = np.linspace(0.0, 1.0, unit_grid.n_cells + 1)
        vals[0] = 1e-13  # below the anchor tolerance
        x = GridFunction(unit_grid, vals)
        assert x.values[0, 0] == 0.0

    def test_scalar_promoted_to_column(self, unit_grid):
        x = from_callable(lambda t: t, unit_grid)
        assert x.values.shape == (unit_grid.n_cells + 1, 1)
        assert x.dim == 1

    def test_values_read_only(self, unit_grid):
        x = from_callable(lambda t: t, unit_grid)
        with pytest.raises(ValueError):
            x.values[3, 0] = 7.0

    def test_arithmetic(self, unit_grid):
        x = from_callable(lambda t: t, unit_grid)
        y = from_callable(lambda t: t * t, unit_grid)
        s = x + y
        assert s.values[-1, 0] == approx(2.0)
        d = x - y
        assert d.values[-1, 0] == approx(0.0)
        m = 3.0 * x
        assert m.values[-1, 0] == approx(3.0)
        n = -x
        assert n.values[-1, 0] == approx(-1.0)

    def test_mismatch_raises(self, unit_grid):
        x = from_callable(lambda t: t, unit_grid)
        other = from_callable(lambda t: t, Grid(0.0, 1.0, 50))
        with pytest.raises(GridMismatch):
            _ = x + other
        xv = vt.zeros(unit_grid, dim=2)
        with pytest.raises(DimMismatch):
            _ = x + xv

    def test_axpy_matches_dense(self, unit_grid):
        x = from_callable(lambda t: t, unit_grid)
        y = from_callable(lambda t: t, unit_grid)
        z = axpy(2.0, x, y)
        assert np.allclose(z.values, 3.0 * x.values)


class TestNorms:
    def test_ac_norm_of_identity_is_sqrt_length(self):
        # slope 1 everywhere: norm^2 = integral of 1 = beta - alpha
        for alpha, beta in [(0.0, 1.0), (0.0, 2.0), (-1.0, 0.5)]:
            g = Grid(alpha, beta, 64)
            x = from_callable(lambda t: t - alpha, g)
            assert ac_norm(x) == approx(math.sqrt(beta - alpha), rel=1e-14)

    def test_ac_norm_of_t_squared_closed_form(self):
        # increments of t^2 give norm^2 = 4/3 - 1/(3 N^2) exactly
        for n in (16, 100, 500):
            g = Grid(0.0, 1.0, n)
            x = from_callable(lambda t: t * t, g)
            assert ac_norm(x) ** 2 == approx(4.0 / 3.0 - 1.0 / (3.0 * n * n), rel=1e-12)

    def test_l2_norm_exact_for_linear(self):
        g = Grid(0.0, 1.0, 37)
        assert l2_norm(from_callable(lambda t: t, g)) == approx(1.0 / math.sqrt(3.0), rel=1e-14)
        g2 = Grid(0.0, 2.0, 37)
        assert l2_norm(from_callable(lambda t: t, g2)) == approx(math.sqrt(8.0 / 3.0), rel=1e-14)

    def test_sup_norm(self):
        g = Grid(0.0, 1.0, 100)
        x = from_callable(lambda t: t * (1.0 - t), g)
        assert sup_norm(x) == approx(0.25, abs=0.0)

    def test_ac_norm_past_the_square_root_of_the_float_range_scales(self, unit_grid):
        # the squared differences of 1e160 y overflow; the norm does not
        y = from_callable(lambda t: (np.sin(3.0 * t), t), unit_grid, dim=2)
        assert ac_norm(1e160 * y) == approx(1e160 * ac_norm(y), rel=1e-14)

    def test_vector_norms_combine_components(self, unit_grid):
        x = from_callable(lambda t: (t, 0.0), unit_grid, dim=2)
        y = from_callable(lambda t: t, unit_grid)
        assert ac_norm(x) == approx(ac_norm(y), rel=1e-14)
        assert l2_norm(x) == approx(l2_norm(y), rel=1e-14)


class TestEmbedding:
    def test_identity_achieves_pointwise_equality(self):
        # x(t) = t - alpha saturates |x(beta)| = sqrt(beta - alpha) * ||x||
        g = Grid(0.5, 2.5, 40)
        x = from_callable(lambda t: t - 0.5, g)
        assert abs(x.values[-1, 0]) == approx(math.sqrt(g.length) * ac_norm(x), rel=1e-13)
        assert verify_embedding(x)

    @given(
        n=st.integers(min_value=2, max_value=150),
        dim=st.integers(min_value=1, max_value=3),
        alpha=st.floats(min_value=-5.0, max_value=5.0),
        length=st.floats(min_value=1e-3, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_embedding_holds_for_random_functions(self, n, dim, alpha, length, seed):
        g = Grid(alpha, alpha + length, n)
        x = random_anchored(g, dim, np.random.default_rng(seed))
        assert verify_embedding(x)


class TestRandomAnchored:
    def test_norm_is_exact(self, unit_grid, rng):
        x = random_anchored(unit_grid, 2, rng, norm=3.7)
        assert ac_norm(x) == approx(3.7, rel=1e-12)

    def test_deterministic_given_seed(self, unit_grid):
        a = random_anchored(unit_grid, 1, np.random.default_rng(9), norm=1.0)
        b = random_anchored(unit_grid, 1, np.random.default_rng(9), norm=1.0)
        assert np.array_equal(a.values, b.values)


class TestCsv:
    def test_roundtrip_exact(self, tmp_path, rng):
        g = Grid(-0.5, 1.5, 33)
        x = random_anchored(g, 3, rng)
        p = tmp_path / "x.csv"
        write_csv(x, p)
        y = read_csv(p)
        assert y.grid == g
        assert np.array_equal(y.values, x.values)

    def test_header_format(self, tmp_path, unit_grid):
        x = zeros(unit_grid, dim=2)
        p = tmp_path / "x.csv"
        write_csv(x, p)
        text = p.read_text()
        assert text.splitlines()[0] == "t,x_1,x_2"
        assert "\r" not in text

    def test_rows_are_written_at_17_significant_digits(self, tmp_path, rng):
        g = Grid(-0.5, 1.5, 7)
        vals = np.vstack([[0.0, 0.0], [1.0 / 3.0, -0.0], [5e-324, 1e308], [-1.5, 123456789.123],
                          rng.standard_normal((4, 2))])
        p = tmp_path / "x.csv"
        write_csv(vt.GridFunction(g, vals), p)
        rows = "".join(f"{t:.17g},{a:.17g},{b:.17g}\n" for t, (a, b) in zip(g.nodes, vals))
        assert p.read_bytes() == ("t,x_1,x_2\n" + rows).encode()
        assert np.array_equal(read_csv(p).values, vals)

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,value\n0,0\n1,1\n")
        with pytest.raises(ValueError):
            read_csv(p)

    @pytest.mark.parametrize("body", ["0,0,0\n0.5,1,1\n", "0\n0.5\n", ""],
                             ids=["wide", "narrow", "no rows"])
    def test_rejects_rows_that_do_not_match_the_header(self, tmp_path, body):
        p = tmp_path / "bad.csv"
        p.write_text("t,x_1\n" + body)
        with pytest.raises(ValueError, match="CSV rows do not match header"):
            read_csv(p)

    def test_rejects_ragged_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,x_1\n0,0\n0.5\n")
        with pytest.raises(ValueError):
            read_csv(p)


class TestFromCallable:
    def test_wrong_width_raises(self, unit_grid):
        with pytest.raises(DimMismatch):
            from_callable(lambda t: (t, t), unit_grid, dim=1)

    def test_not_anchored_raises(self, unit_grid):
        with pytest.raises(NotAnchoredAtAlpha):
            from_callable(lambda t: t + 1.0, unit_grid)


def test_refining_the_grid_converges_to_the_continuum_norm():
    # interpolants of a smooth function: ac_norm converges at rate Delta^2
    target = math.sqrt(0.5 * (1.0 + math.sin(2.0) / 2.0))  # ||sin||: integral cos^2
    errs = []
    for n in (50, 100, 200):
        g = Grid(0.0, 1.0, n)
        x = from_callable(math.sin, g)
        errs.append(abs(ac_norm(x) - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] == approx(16.0, rel=0.2)


def test_sub_and_zeros(unit_grid):
    x = from_callable(lambda t: t, unit_grid)
    assert ac_norm(sub(x, x)) == 0.0
    z = zeros(unit_grid, dim=4)
    assert z.values.shape == (101, 4)
    assert ac_norm(z) == 0.0


def _on_zero_kernel(probe):
    # probe(kernel, y, value) on the zero kernel, as a call of value alone
    y = from_callable(lambda t: t, Grid(0.0, 1.0, 16))
    return lambda value: probe(vt.zero_kernel(), y, value)


def _example2(**over):
    args = dict(A=1.0, B=0.0, T=0.9) | over
    return vt.example2_kernel(lambda s: s, np.ones_like, np.arctan, np.ones_like, **args)


# (entry, one number of it, that argument's name, the bad values)
_BAD = [math.nan, math.inf, True, 10**400]
_NUMBER_RULES = [
    ("Grid", lambda v: Grid(v, 2.0, 4), "alpha", [True, 10**400]),
    ("Grid", lambda v: Grid(0.0, v, 4), "beta", [True, 10**400]),
    ("Grid", lambda v: Grid(0.0, 1.0, v), "n_cells", [10**400]),
    ("TriangularDomain", lambda v: vt.TriangularDomain(v, 2.0), "alpha", _BAD),
    ("TriangularDomain", lambda v: vt.TriangularDomain(0.0, v), "beta", _BAD),
    ("for_interval", lambda v: vt.NeumannBound.for_interval(1.0, 1.0, v, 2.0), "alpha", _BAD),
    ("for_interval", lambda v: vt.NeumannBound.for_interval(1.0, 1.0, 0.0, v), "beta", _BAD),
    ("example1_kernel", vt.example1_kernel, "a_bar", _BAD),
    ("linear_kernel", vt.linear_kernel, "lam", _BAD),
    ("example2_kernel", lambda v: _example2(A=v), "A", _BAD),
    ("example2_kernel", lambda v: _example2(B=v), "B", _BAD),
    ("example2_kernel", lambda v: _example2(T=v), "T", _BAD),
    ("check_example1", vt.check_example1, "a_bar", _BAD),
    ("check_example2", lambda v: vt.check_example2(np.ones_like, v, 0.9, Grid(0.0, 0.9, 16)),
     "A", _BAD),
    ("check_example2", lambda v: vt.check_example2(np.ones_like, 1.0, v, Grid(0.0, 0.9, 16)),
     "T", _BAD),
    ("estimate_l_rho", lambda v: vt.estimate_l_rho(vt.zero_kernel(), v, 16), "rho", [10**400]),
    ("solve_march", _on_zero_kernel(lambda k, y, v: vt.solve_march(k, y, tol=v)), "tol", [10**400]),
    ("robustness_modulus", _on_zero_kernel(lambda k, y, v: vt.robustness_modulus(k, y, 2, 0.1, seed=v)),
     "seed", _BAD + [1.5, -1]),
    ("multistart_uniqueness", _on_zero_kernel(lambda k, y, v: vt.multistart_uniqueness(k, y, 2, seed=v)),
     "seed", _BAD + [1.5, -1]),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{entry}-{name}-{'10^400' if value == 10**400 else value}")
    for entry, call, name, values in _NUMBER_RULES for value in values
])
def test_a_number_breaking_its_rule_is_refused_by_name(call, name, value):
    # nan, inf, a bool, an int past the float range (and 1.5 or -1 for a
    # seed) fail where they enter, with a ValueError naming the argument
    # and no RuntimeWarning on the way
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(value)
