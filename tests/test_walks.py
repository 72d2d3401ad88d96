"""Walks are laid out once per shape, and every walk of a shape reuses
that layout: its calls, its views and its buffers.

So a walk must make the same calls whether its layout was built for it
or not, must read its own grid and not the one a layout last held, and
must stay correct when an evaluator walks the same shape itself.
"""

import collections
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys
import threading

import numpy as np
import pytest

import volterra as vt
from volterra import quadrature
from volterra.config import _build_kernel
from volterra.quadrature import inner_integral, inner_integral_adjoint, node_integral


def _problem(grid):
    # x, h and y anchored at the grid's start, and weights per cell
    a = grid.alpha
    x = vt.from_callable(lambda t: 2.0 * np.sin(3.0 * (t - a)), grid)
    h = vt.from_callable(lambda t: (t - a) * np.cos(5.0 * t), grid)
    y = vt.from_callable(lambda t: t - a, grid)
    w = np.cos(7.0 * grid.midpoints)[:, None]
    return x, h, y, w


_RUNS = {
    "node_integral": lambda k, g, x, h, y, w: node_integral(k.integrand("v"), g, x.values),
    "inner_integral": lambda k, g, x, h, y, w: inner_integral(k.integrand("v_t"), g, x.values),
    "inner_integral_adjoint": lambda k, g, x, h, y, w: inner_integral_adjoint(
        k.integrand("v_tx"), g, x.values, w),
    "collocation_solve": lambda k, g, x, h, y, w: vt.collocation_solve(k, x, h).values,
    "solve_march": lambda k, g, x, h, y, w: vt.solve_march(k, y)[0].values,
    "neumann_solve": lambda k, g, x, h, y, w: vt.neumann_solve(k, x, h, tol=1e-10)[0].values,
}


def _count_quadrature_calls(monkeypatch):
    """Count the calls of every module-level function of quadrature,
    wherever a volterra module holds it, as a tracer that wraps them
    would; functools caches are not functions and go uncounted."""
    counts = collections.Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    wrapped = {fn: counting(name, fn) for name, fn in vars(quadrature).items()
               if inspect.isfunction(fn) and fn.__module__ == quadrature.__name__}
    modules = [importlib.import_module(f"volterra.{m.name}")
               for m in pkgutil.iter_modules(vt.__path__)]
    for mod in (vt, *modules):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                monkeypatch.setattr(mod, attr, wrapped[obj])
    return counts


_KERNELS = {"example1": lambda: vt.example1_kernel(1.0),
            "example2_linw_atan": lambda: _build_kernel("example2_linw_atan", {}, 0.0, 1.0)}


@pytest.mark.parametrize("run, kernel", [
    *(pytest.param(run, "example1", id=run) for run in _RUNS),
    *(pytest.param(run, "example2_linw_atan", id=f"{run}-example2_linw_atan") for run in _RUNS),
])
def test_a_cold_walk_calls_what_a_warm_one_does(monkeypatch, run, kernel):
    # with every cache of quadrature cleared, the first run builds the
    # layouts of its shapes; a helper that ran only then would be counted
    # once and not again; the lag kernel takes the Toeplitz route
    for obj in vars(quadrature).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    grid = vt.Grid(0.0, 1.0, 1000)
    args = (_KERNELS[kernel](), grid, *_problem(grid))
    counts = _count_quadrature_calls(monkeypatch)
    _RUNS[run](*args)
    cold = dict(counts)
    counts.clear()
    _RUNS[run](*args)
    assert cold["_block_sum"] > 0
    assert dict(counts) == cold


def test_grids_of_one_shape_walk_their_own_values():
    # three grids of 400 cells share every layout; each walk must read its
    # own nodes, midpoints and far times, so each must match the exact walk
    ker = vt.example1_kernel(1.0)
    exact = dataclasses.replace(ker, smooth_in_t=False)
    grids = [vt.Grid(0.0, 1.0, 400), vt.Grid(0.0, 2.0, 400), vt.Grid(0.5, 1.5, 400)]
    for run in ("node_integral", "inner_integral", "inner_integral_adjoint", "collocation_solve"):
        for grid in grids + grids[::-1]:
            problem = _problem(grid)
            far, ref = _RUNS[run](ker, grid, *problem), _RUNS[run](exact, grid, *problem)
            assert np.abs(far - ref).max() <= 1e-13 * np.abs(ref).max(), (run, grid)


def test_an_evaluator_may_walk_the_shape_it_is_walked_in():
    # the walk's layout is in use while its evaluator runs, so the
    # evaluator's own walk of the same shape is laid out anew
    grid = vt.Grid(0.0, 1.0, 300)
    x = _problem(grid)[0]
    ker = vt.example1_kernel(1.0)
    plain = node_integral(ker.integrand("v"), grid, x.values)
    inner = []

    def v(t, tau, xi):
        if not inner:
            inner.append(node_integral(ker.integrand("v"), grid, x.values))
        return ker.v(t, tau, xi)

    nested = node_integral(dataclasses.replace(ker, v=v).integrand("v"), grid, x.values)
    assert np.array_equal(nested, plain)
    assert np.array_equal(inner[0], plain)


def test_threads_walking_one_shape_each_get_their_own_sums():
    # six threads on as many grids of one shape, switching often: a walk
    # that finds the shape's layout in use lays out its own, so none
    # reads another's grid or adds into another's sums
    ker = vt.example1_kernel(1.0)
    f = ker.integrand("v_t")
    problems = [(g, _problem(g)[0].values) for g in (vt.Grid(0.0, 1.0 + 0.25 * i, 300)
                                                      for i in range(6))]
    expected = [inner_integral(f, g, x) for g, x in problems]
    agree = {}

    def walk(i):
        grid, x = problems[i]
        agree[i] = all(np.array_equal(inner_integral(f, grid, x), expected[i]) for _ in range(20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(i,)) for i in range(len(problems))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert agree == {i: True for i in range(len(problems))}


def _calls(kernel, which):
    counted = {"calls": 0}
    f = getattr(kernel, which)

    def ev(t, tau, x):
        counted["calls"] += 1
        return f(t, tau, x)

    return dataclasses.replace(kernel, **{which: ev}), counted


def test_evaluator_calls_per_walk():
    grid = vt.Grid(0.0, 1.0, 1000)
    x, h, _, _ = _problem(grid)
    # a v_t walk: 15 far, 8 exact and 6 triangle calls, and the half cells
    ker, counted = _calls(vt.example1_kernel(1.0), "v_t")
    inner_integral(ker.integrand("v_t"), grid, x.values)
    assert counted["calls"] == 30
    # collocation: no merge takes its sliver of far columns in a call of
    # its own (69 calls when they did, 63 for the one-level far field)
    ker, counted = _calls(vt.example1_kernel(1.0), "v_x")
    vt.collocation_solve(ker, x, h)
    assert counted["calls"] == 58
