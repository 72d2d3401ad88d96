"""The Toeplitz route of lag kernels v = w(t - tau) z(x).

Every check compares a lag kernel with its generic twin: the same four
evaluators with the lag field cleared, which quadrature and collocation
sum by the blocked walk of the causal triangle.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import volterra as vt
from volterra import SingularBlock, nonlinear_solver, quadrature
from volterra.certification import _inner_bound
from volterra.operator import _merit, frechet_dt
from volterra.quadrature import inner_integral, inner_integral_adjoint, node_integral

_MIX = np.array([[1.0, 0.3], [-0.2, 0.8]])


def _lag(dim):
    A = _MIX[:dim, :dim]
    return vt.lag_kernel(
        w=lambda s: np.sin(2.0 * s) + s * s,
        w_prime=lambda s: 2.0 * np.cos(2.0 * s) + 2.0 * s,
        z=lambda x: np.tanh(x @ A.T),
        z_prime=lambda x: (1.0 / np.cosh(x @ A.T) ** 2)[..., :, None] * A,
        dim=dim,
    )


def _twin(kernel):
    return dataclasses.replace(kernel, lag=None)


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _example2(T=0.9):
    return vt.example2_kernel(w=lambda s: s, w_prime=np.ones_like, z=np.arctan,
                              z_prime=lambda x: 1.0 / (1.0 + x * x), A=1.0, B=0.0, T=T)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_cells", [7, 150])
def test_sums_match_the_generic_walk(dim, n_cells):
    lag = _lag(dim)
    twin = _twin(lag)
    g = vt.Grid(0.0, 1.3, n_cells)
    rng = np.random.default_rng(n_cells + dim)
    x = vt.random_anchored(g, dim, rng).values
    h = vt.random_anchored(g, dim, rng).values
    weights = rng.standard_normal((n_cells, dim))
    for rule, which, args in [
        (node_integral, "v", (x,)),
        (node_integral, "v_x", (x, h)),
        (inner_integral, "v_t", (x,)),
        (inner_integral, "v_tx", (x, h)),
        (inner_integral_adjoint, "v_tx", (x, weights)),
    ]:
        fast = rule(lag.integrand(which), g, *args)
        walk = rule(twin.integrand(which), g, *args)
        assert _rel(fast, walk) <= 1e-12, (rule.__name__, which)


def _routes(monkeypatch):
    # counts of collocation's Toeplitz products and sums (_block_sum) and of
    # its factored leaves (_solve_leaf)
    calls = {"_block_sum": 0, "_solve_leaf": 0}
    for name in calls:
        inner = getattr(vt.linear_solver, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(vt.linear_solver, name, counted)
    return calls


@pytest.mark.parametrize("case, n_cells", [("example2", 100), ("example2", 700),
                                           ("example2", 4000), ("lag dim 2", 700)])
def test_contracting_collocation_matches_the_generic_twin(monkeypatch, case, n_cells):
    # q = delta sum |w_k| max ||z'||_inf is below 1/2 (about 0.41 for
    # example2 on [0, 0.9], 0.35 for the dim-2 kernel on [0, 0.5]): the lag
    # route takes Toeplitz products alone, a number that does not grow with N
    lag, length = (_example2(), 0.9) if case == "example2" else (_lag(2), 0.5)
    g = vt.Grid(0.0, length, n_cells)
    rng = np.random.default_rng(n_cells)
    x0 = vt.random_anchored(g, lag.dim, rng, norm=1.0)
    rhs = vt.random_anchored(g, lag.dim, rng, norm=1.0)
    calls = _routes(monkeypatch)
    fast = vt.collocation_solve(lag, x0, rhs)
    assert calls["_solve_leaf"] == 0 and 1 <= calls["_block_sum"] <= 12, calls
    walk = vt.collocation_solve(_twin(lag), x0, rhs)
    assert calls["_solve_leaf"] > 0
    assert _rel(fast.values, walk.values) <= 1e-12
    assert vt.ac_norm(vt.sub(vt.frechet_apply(lag, x0, fast), rhs)) < 1e-12


@pytest.mark.parametrize("n_cells", [700, 4000])
def test_contracting_collocation_residual_is_no_larger_than_by_halves(monkeypatch, n_cells):
    # example2_linw_atan at Newton's x for y = t, against the same solve
    # with the contraction turned off
    g = vt.Grid(0.0, 0.9, n_cells)
    ker = _example2()
    y = vt.from_callable(lambda t: t, g)
    x, _ = vt.solve_newton(ker, y, tol=1e-10)
    h = vt.collocation_solve(ker, x, y)
    monkeypatch.setattr(vt.linear_solver, "_contracted", lambda *args: None)
    calls = _routes(monkeypatch)
    direct = vt.collocation_solve(ker, x, y)
    leaves = quadrature._leaves(n_cells + 1)
    assert calls == {"_block_sum": leaves - 1, "_solve_leaf": leaves}
    assert _rel(h.values, direct.values) <= 1e-12
    residual = [vt.ac_norm(vt.sub(s + vt.apply_T(ker, x, s), y)) for s in (h, direct)]
    assert residual[0] <= residual[1], residual


@pytest.mark.parametrize("dim", [1, 2])
def test_collocation_by_halves_matches_forward_substitution(monkeypatch, dim):
    # 4-row leaves on 37 rows: uneven halves, merges at every level; on
    # [0, 1.3] q exceeds 1, so the lag route goes by halves too
    monkeypatch.setattr(quadrature, "_LEAF", 4)
    lag = _lag(dim)
    g = vt.Grid(0.0, 1.3, 37)
    rng = np.random.default_rng(dim)
    x0 = vt.random_anchored(g, dim, rng)
    rhs = vt.random_anchored(g, dim, rng)
    calls = _routes(monkeypatch)
    fast = vt.collocation_solve(lag, x0, rhs)
    assert calls == {"_block_sum": 9, "_solve_leaf": 10}
    walk = vt.collocation_solve(_twin(lag), x0, rhs)
    assert _rel(fast.values, walk.values) <= 1e-12
    resid = vt.sub(vt.frechet_apply(lag, x0, fast), rhs)
    assert vt.ac_norm(resid) < 1e-12


def test_singular_block_names_the_same_node_on_both_routes(monkeypatch):
    # w = 1, z' = x: the block 1 + (delta/2) x0(m_11) vanishes at node 12
    monkeypatch.setattr(quadrature, "_LEAF", 4)
    ker = vt.lag_kernel(w=np.ones_like, w_prime=np.zeros_like,
                        z=lambda x: 0.5 * x * x, z_prime=lambda x: x[..., None])
    g = vt.Grid(0.0, 1.0, 16)
    vals = np.zeros((17, 1))
    vals[11:13] = -32.0
    x0 = vt.GridFunction(g, vals)
    rhs = vt.from_callable(lambda t: t, g)
    calls = _routes(monkeypatch)
    for kernel in (ker, _twin(ker)):
        calls["_solve_leaf"] = 0
        with pytest.raises(SingularBlock, match="node 12"):
            vt.collocation_solve(kernel, x0, rhs)
        assert calls["_solve_leaf"] == 3  # by halves, to the leaf of node 12


def test_gradient_route_takes_picard_steps_per_component(monkeypatch):
    # the first step is x_k - delta sum_{i<k} D_i in each component, D the
    # defect at the start, and Picard steps alone converge
    points, apply_V = [], nonlinear_solver.apply_V

    def counted(kernel, x):
        points.append(x)
        return apply_V(kernel, x)

    monkeypatch.setattr(nonlinear_solver, "apply_V", counted)
    ker = _lag(2)
    g = vt.Grid(0.0, 1.0, 200)
    y = vt.random_anchored(g, 2, np.random.default_rng(2), norm=1.0)
    with pytest.raises(vt.MaxIterExceeded):
        vt.solve_gradient(ker, y, tol=1e-13, max_iter=1)
    [first] = points
    D = _merit(ker, y, y)[1]
    for c in range(2):
        expected = y.values[:, c].copy()
        total = 0.0
        for k in range(1, g.n_cells + 1):
            total += D[k - 1, c]
            expected[k] -= g.delta * total
        assert np.array_equal(first.values[:, c], expected)
    x, rep = vt.solve_gradient(ker, y, tol=1e-8)
    assert rep.converged and vt.functional_F(ker, x, y) <= 1e-16
    assert rep.functional_history == sorted(rep.functional_history, reverse=True)


def test_swapped_evaluators_keep_the_route():
    # the way a tracer counts samples: evaluators replaced, lag field kept
    samples = dict.fromkeys(("v", "v_t", "v_x", "v_tx"), 0)

    def counted(name, fn):
        def evaluate(t, tau, x):
            samples[name] += np.broadcast(np.asarray(t), np.asarray(tau)).size
            return fn(t, tau, x)
        return evaluate

    base = _example2()
    ker = dataclasses.replace(base, **{k: counted(k, getattr(base, k)) for k in samples})
    N = 400
    g = vt.Grid(0.0, 0.9, N)
    rng = np.random.default_rng(3)
    x = vt.random_anchored(g, 1, rng)
    y = vt.random_anchored(g, 1, rng)
    vt.apply_V(ker, x)
    vt.functional_F(ker, x, y)
    vt.functional_gradient(ker, x, y)
    frechet_dt(ker, x, y)
    vt.apply_T(ker, x, y)
    vt.collocation_solve(ker, x, y)
    # the generic walk would take about N^2 / 2 = 80000 samples per sum
    assert max(samples.values()) <= 2 * N, samples


def test_check_example2_matches_the_generic_inner_rule():
    g = vt.Grid(0.0, 0.9, 300)
    w_prime = lambda s: np.cos(3.0 * s) + s
    rep = vt.check_example2(w_prime, A=1.0, T=0.9, grid=g)
    walk = g.delta * _inner_bound(lambda t, tau: w_prime(t - tau) ** 2, g).sum()
    assert rep.norm_value == pytest.approx(walk, rel=1e-12)


def test_check_A3_lag_bounds_match_the_generic_walk():
    # example2's c0 = A |w'(t - tau)| is a LagBound; a plain callable of
    # the same values takes the walk
    ker = vt.example2_kernel(w=lambda s: np.sin(2.0 * s), w_prime=lambda s: 2.0 * np.cos(2.0 * s),
                             z=np.arctan, z_prime=lambda x: 1.0 / (1.0 + x * x),
                             A=1.3, B=0.4, T=0.9)
    b = ker.bounds
    plain = vt.GrowthBounds(c0=lambda t, tau: b.c0(t, tau), d0=lambda t, tau: b.d0(t, tau))
    twin = dataclasses.replace(ker, bounds=plain)
    g = vt.Grid(0.0, 0.9, 4000)
    fast, walk = vt.check_A3(ker, g), vt.check_A3(twin, g)
    assert fast.norm_value == pytest.approx(walk.norm_value, rel=1e-12)
    assert fast.samples_used == walk.samples_used
    assert fast.passed == walk.passed
    assert vt.coercivity_constants(ker, g) == pytest.approx(
        vt.coercivity_constants(twin, g), rel=1e-12)


def test_long_horizon_newton():
    # N = 2^14 on [0, 0.9]: the generic walk would take ~134M samples per sweep
    g = vt.Grid(0.0, 0.9, 2**14)
    ker = _example2()
    y = vt.from_callable(lambda t: t, g)
    t0 = time.perf_counter()
    x, rep = vt.solve_newton(ker, y, tol=1e-10)
    elapsed = time.perf_counter() - t0
    residual = vt.ac_norm(vt.sub(vt.apply_V(ker, x), y))
    assert rep.converged and rep.iterations == 2
    assert residual <= 1e-10
    assert elapsed < 5.0


@pytest.mark.parametrize("eta", [0.5, 1e-3, 0.0])
def test_contraction_stops_at_its_first_certified_step(eta):
    # the reference loop: h <- g - T h by apply_T from h = g, stopped at the
    # first update at rounding, no longer shrinking, or with q ||update||_inf
    # <= eta ||g||_inf, which certifies ||h + T h - g||_inf <= eta ||g||_inf
    ker, g = _example2(), vt.Grid(0.0, 0.9, 700)
    rng = np.random.default_rng(7)
    x0, rhs = (vt.random_anchored(g, 1, rng, norm=1.0) for _ in range(2))
    f = quadrature._lattice(ker.integrand("v_x"), g.nodes, g.midpoints)
    z = quadrature._columns(f, quadrature.cell_midpoint_values(x0.values), g.midpoints)
    q = g.delta * np.abs(f.a).sum() * np.abs(z).sum(axis=-1).max()
    assert q < 0.5
    eps, top = np.finfo(float).eps, np.abs(rhs.values).max()
    h, last = rhs.values, np.inf
    while True:
        new = rhs.values - vt.apply_T(ker, x0, vt.GridFunction(g, h)).values
        update = np.abs(new - h).max()
        h = new
        if update <= 4.0 * eps * np.abs(h).max() or update >= last or q * update <= eta * top:
            break
        last = update
    fast = vt.linear_solver._collocate(f, x0, rhs, eta)
    assert np.array_equal(fast.values, h)
    gap = np.abs((fast + vt.apply_T(ker, x0, fast) - rhs).values).max()
    assert gap <= (eta + 64.0 * eps) * top


def _newton_directions(monkeypatch):
    # (x_k, r_k, eta_k, delta_k) of each linearization Newton solves
    directions, collocate = [], nonlinear_solver._collocate

    def recorded(f, x0, g, eta):
        delta = collocate(f, x0, g, eta)
        directions.append((x0, g, eta, delta))
        return delta

    monkeypatch.setattr(nonlinear_solver, "_collocate", recorded)
    return directions


@pytest.mark.parametrize("rhs", ["t", "sin 5t"])
@pytest.mark.parametrize("n_cells", [700, 4000])
def test_newton_solves_each_linearization_to_its_forcing_term(monkeypatch, n_cells, rhs):
    # example2_linw_atan on [0, 0.9], q about 0.41: each direction delta_k
    # meets ||delta_k + T delta_k - r_k||_inf <= eta_k ||r_k||_inf, eta_k =
    # min(1/2, ||r_k||), and a solve takes at most 12 Toeplitz products,
    # the trial residuals' and the contracting steps', on one table of w
    g = vt.Grid(0.0, 0.9, n_cells)
    calls = {"w": 0, "z": 0, "products": 0}
    ker = _counting(calls)
    y = vt.from_callable({"t": lambda t: t, "sin 5t": lambda t: np.sin(5.0 * t)}[rhs], g)
    directions = _newton_directions(monkeypatch)
    for module in (quadrature, vt.linear_solver):
        def counted(*args, _inner=module._block_sum, **kwargs):
            calls["products"] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, "_block_sum", counted)
    x, rep = vt.solve_newton(ker, y, tol=1e-10)
    assert rep.converged and calls["w"] == 1 and calls["products"] <= 12, calls
    assert len(directions) == rep.iterations
    eps = np.finfo(float).eps
    for (x0, r, eta, delta), res in zip(directions, rep.residual_history):
        assert eta == min(0.5, res)
        gap = np.abs((delta + vt.apply_T(ker, x0, delta) - r).values).max()
        assert gap <= (eta + 64.0 * eps) * np.abs(r.values).max()
    assert vt.ac_norm(vt.sub(y, vt.apply_V(ker, x))) <= 1e-10


def _exact_newton(ker, y, tol):
    # solve_newton written out with every linearization solved to rounding
    x = y
    r = vt.sub(y, vt.apply_V(ker, x))
    history = [vt.ac_norm(r)]
    while history[-1] > tol and len(history) <= 50:
        delta, s = vt.collocation_solve(ker, x, r), 1.0
        while True:
            trial = vt.axpy(s, delta, x)
            r_trial = vt.sub(y, vt.apply_V(ker, trial))
            if vt.ac_norm(r_trial) < history[-1]:
                break
            s *= 0.5
            assert s >= 2.0**-20, "no decrease"
        x, r = trial, r_trial
        history.append(vt.ac_norm(r))
    return x, history


@pytest.mark.parametrize("case", ["generic", "one leaf", "q above 1/2"])
def test_newton_off_the_contracting_route_is_exact_newton(case):
    # the forcing term binds only where collocation contracts: on the
    # generic walk, on one leaf and on a lag kernel whose q exceeds 1/2
    # every linearization is solved to rounding, bit for bit
    ker, g = {"generic": (_twin(_example2()), vt.Grid(0.0, 0.9, 300)),
              "one leaf": (_example2(), vt.Grid(0.0, 0.9, 40)),
              "q above 1/2": (_lag(1), vt.Grid(0.0, 1.3, 300))}[case]
    y = vt.random_anchored(g, 1, np.random.default_rng(5), norm=0.5)
    x, rep = vt.solve_newton(ker, y, tol=1e-10)
    ref, history = _exact_newton(ker, y, 1e-10)
    assert rep.converged and rep.iterations >= 2
    assert np.array_equal(x.values, ref.values) and rep.residual_history == history


def test_import_loads_no_scipy_fft_or_signal():
    src = str(Path(vt.__file__).resolve().parents[1])
    code = ("import sys, volterra; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'fft'], ['scipy', 'signal'])))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "[]"


def _bound_sum(f, on, rows, cols, xc, *args, **kwargs):
    # _block_sum of the table of f bound to the rows and columns on, on its
    # columns at xc: the Toeplitz route, as a solve or a one-call sum takes it
    table = quadrature._lattice(f, *on)
    assert isinstance(table, quadrature._LagTable)
    return quadrature._block_sum(table, rows, cols, quadrature._columns(table, xc, cols),
                                 *args, **kwargs)


@pytest.mark.parametrize("dim", [1, 2])
def test_block_sum_matches_the_generic_walk(monkeypatch, dim):
    # 3-row leaves and calls of 10 samples split the generic walk into
    # tiles; the lag route is one Toeplitz product of 23 rows against 9
    # columns
    monkeypatch.setattr(quadrature, "_LEAF", 3)
    monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", 10)
    lag = _lag(dim)
    g = vt.Grid(0.0, 1.3, 40)
    grid = (g.nodes, g.midpoints)
    rng = np.random.default_rng(dim)
    xc, hc = rng.standard_normal((9, dim)), rng.standard_normal((9, dim))
    rows, cols = g.nodes[15:38], g.midpoints[4:13]
    for which, h in (("v", None), ("v_x", hc)):
        fast = _bound_sum(lag.integrand(which), grid, rows, cols, xc, h)
        walk = quadrature._block_sum(_twin(lag).integrand(which), rows, cols, xc, h)
        assert fast.shape == (23, dim)
        assert _rel(fast, walk) <= 1e-13
    # the triangle on node and midpoint rows, then every shape transposed
    xm, hm = rng.standard_normal((40, dim)), rng.standard_normal((40, dim))
    for rows, cols, x, h, tri, on in ((g.nodes, g.midpoints, xm, hm, True, grid),
                                      (g.midpoints, g.midpoints, xm, hm, True,
                                       (g.midpoints, g.midpoints)),
                                      (rows, cols, xc, hc, False, grid)):
        w = rng.standard_normal((rows.size, dim))
        for which, kw in (("v", {}), ("v_x", {"hc": h}), ("v_x", {"w": w})):
            fast = _bound_sum(lag.integrand(which), on, rows, cols, x, tri=tri, **kw)
            walk = quadrature._block_sum(_twin(lag).integrand(which), rows, cols, x, tri=tri, **kw)
            assert fast.shape == ((cols if "w" in kw else rows).size, dim)
            assert _rel(fast, walk) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("route", ["lag", "walk"])
def test_block_sum_transpose_is_its_adjoint(monkeypatch, dim, route):
    # a merge's shape: the cells [4, 12) entering the node rows [13, 38)
    monkeypatch.setattr(quadrature, "_LEAF", 3)
    monkeypatch.setattr(quadrature, "_BLOCK_SAMPLES", 10)
    ker = _lag(dim) if route == "lag" else _twin(_lag(dim))
    g = vt.Grid(0.0, 1.3, 40)
    f = quadrature._lattice(ker.integrand("v_x"), g.nodes, g.midpoints)
    assert isinstance(f, quadrature._LagTable) == (route == "lag")
    rng = np.random.default_rng(dim)
    rows, cols = g.nodes[13:38], g.midpoints[4:12]
    xc, h, w = (rng.standard_normal((n, dim)) for n in (8, 8, 25))
    xc = quadrature._columns(f, xc, cols)
    forward = w * quadrature._block_sum(f, rows, cols, xc, h)
    back = h * quadrature._block_sum(f, rows, cols, xc, w=w)
    assert abs(forward.sum() - back.sum()) <= 1e-13 * np.abs(forward).sum()


@pytest.mark.parametrize("call, named", [
    ("apply_V", "the sum of the row at node 1 "),
    ("apply_T", "the sum of the row at node 1 "),
    ("functional_gradient", "the sum of the row at cell 1 "),
], ids=["apply_V", "apply_T", "functional_gradient"])
def test_overflowing_lag_sums_raise_kernel_contract(call, named):
    # w = 1e308 and z(x) = x are finite, their Toeplitz products are not:
    # the check of the sums names the first row, as on the generic walk
    def big(s):
        return np.full_like(np.asarray(s, float), 1e308)

    ker = vt.lag_kernel(w=big, w_prime=big, z=lambda x: x,
                        z_prime=lambda x: np.ones_like(x)[..., None])
    g = vt.Grid(0.0, 1.0, 100)
    x = vt.from_callable(lambda t: t, g)
    run = {"apply_V": lambda: vt.apply_V(ker, x),
           "apply_T": lambda: vt.apply_T(ker, x, x),
           "functional_gradient": lambda: vt.functional_gradient(ker, x, x)}[call]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(vt.KernelContract, match=named):
            run()


def _counting(calls):
    # example2 with w = s and z = atan; calls["w"] counts the calls of w
    # and w', calls["z"] those of z and z', both from 0 once it is built
    def w(s):
        calls["w"] += 1
        return s

    def z(x):
        calls["z"] += 1
        return np.arctan(x)

    def z_prime(x):
        calls["z"] += 1
        return 1.0 / (1.0 + x * x)

    def w_prime(s):
        calls["w"] += 1
        return np.ones_like(s)

    ker = vt.example2_kernel(w=w, w_prime=w_prime, z=z, z_prime=z_prime, A=1.0, B=0.0, T=0.9)
    calls.update(w=0, z=0)  # example2_kernel checks w(0)
    return ker


def _calls_in(monkeypatch, module, name, calls):
    # count the w and z calls made inside module.name under calls[name]
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        before = calls["w"] + calls["z"]
        out = inner(*args, **kwargs)
        calls[name] += calls["w"] + calls["z"] - before
        return out

    calls[name] = 0
    monkeypatch.setattr(module, name, counted)


_DYADIC = vt.Grid(0.0, 0.5, 512)


@pytest.mark.parametrize("leaf", [8, 64])
def test_collocation_evaluates_w_and_z_once(monkeypatch, leaf):
    # collocation reads w and z' alone, each once for every leaf and merge
    monkeypatch.setattr(quadrature, "_LEAF", leaf)
    calls = {"w": 0, "z": 0}
    ker = _counting(calls)
    y = vt.from_callable(lambda t: t, _DYADIC)
    x0 = vt.random_anchored(_DYADIC, 1, np.random.default_rng(leaf))
    vt.collocation_solve(ker, x0, y)
    assert calls == {"w": 1, "z": 1}


@pytest.mark.parametrize("leaf", [8, 64])
def test_march_evaluates_w_once_and_z_once_per_solved_leaf(monkeypatch, leaf):
    # w is evaluated once per solve, for v and v_x alike; z once per trial
    # of a leaf and z' once per Jacobian, one of each per leaf triangle,
    # and none besides: the merges take the table and the z of each
    # leaf's accepted trial
    monkeypatch.setattr(quadrature, "_LEAF", leaf)
    calls = {"w": 0, "z": 0, "triangles": 0}
    ker = _counting(calls)
    y = vt.from_callable(lambda t: t, _DYADIC)
    triangle = vt.nonlinear_solver._leaf_triangle

    def counted(*args, **kwargs):
        calls["triangles"] += 1
        return triangle(*args, **kwargs)

    _calls_in(monkeypatch, vt.nonlinear_solver, "_block_sum", calls)
    monkeypatch.setattr(vt.nonlinear_solver, "_leaf_triangle", counted)
    vt.solve_march(ker, y)
    assert calls["_block_sum"] == 0 and calls["w"] == 1
    assert calls["z"] == calls["triangles"] >= -(-512 // leaf)


def _broken(factor, past):
    # tanh z and sin 2s w; z nan for x past `past`, or w for lags past it
    def z(x):
        return np.where(x > past, np.nan, np.tanh(x))

    def w(s):
        return np.where(s > past, np.nan, np.sin(2.0 * s))

    return vt.lag_kernel(w=w if factor == "w" else (lambda s: np.sin(2.0 * s)),
                         w_prime=w if factor == "w" else (lambda s: 2.0 * np.cos(2.0 * s)),
                         z=z if factor == "z" else np.tanh,
                         z_prime=(lambda x: z(x)[..., None]) if factor == "z"
                         else (lambda x: (1.0 / np.cosh(x) ** 2)[..., None]))


@pytest.mark.parametrize("factor, past, named", [
    ("z", 0.3, "factor z at tau = 0.305 "),
    ("w", 0.5, "factor w at t - tau = 0.505 "),
    ("w", 0.8, "factor w at t - tau = 0.805 "),
], ids=["z", "w-near", "w-far"])
@pytest.mark.parametrize("call", ["apply_V", "apply_T", "collocation_solve", "solve_march"])
def test_nonfinite_lag_factors_raise_kernel_contract(call, factor, past, named):
    # On 100 cells x = t passes 0.3 at cell 30 (tau = 0.305).  The first
    # lag past 1/2 is t_51 - m_0, within the first 64-row leaf; the
    # first past 0.8 is t_81 - m_0, which the solves meet in a merge
    # alone.  Each factor is checked before an FFT would spread a bad
    # value over every row, or a leaf would multiply it by 0.
    ker = _broken(factor, past)
    g = vt.Grid(0.0, 1.0, 100)
    x = vt.from_callable(lambda t: t, g)
    run = {"apply_V": lambda: vt.apply_V(ker, x),
           "apply_T": lambda: vt.apply_T(ker, x, x),
           "collocation_solve": lambda: vt.collocation_solve(ker, x, x),
           "solve_march": lambda: vt.solve_march(ker, x)}[call]
    with pytest.raises(vt.KernelContract, match=named):
        run()
