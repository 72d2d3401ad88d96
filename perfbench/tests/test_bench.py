"""Tests of the benchmark itself: tracing, exact counts, failure accounting.

Run with `python3 -m pytest perfbench/tests` from the repository root.
They use small grids, so they take seconds, not the minutes a run does.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from tracer import Tracer, is_count, layer_metrics, unknown_metrics
from worker import closed_loop, run_ops
from workloads import CliSensitivity, Iterative, NewtonLong

SEED = 1  # not the reference seed: small grids have no stored reference
SMALL = {"cli": lambda: CliSensitivity(n_cells=64),
         "newton": lambda: NewtonLong(n_cells=64),
         "iterative": lambda: Iterative(n_cells=64)}


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def prepared(wl, work: Path) -> dict:
    wl.write_inputs(work, SEED)
    return wl.setup(work)


def traced_op(tracer, wl, state) -> dict:
    with tracer.root() as spans:
        out = wl.op(state)
    assert wl.gate(state, out, SEED) == []
    return layer_metrics(spans)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_self_times_sum_to_root_duration(tracer, tmp_path, kind):
    wl = SMALL[kind]()
    state = prepared(wl, tmp_path)
    with tracer.root() as spans:
        wl.op(state)
    root = spans[0]
    self_ns = [s.end - s.start for s in spans]
    for s in spans[1:]:
        self_ns[s.parent] -= s.end - s.start
        assert spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
    assert sum(self_ns) == root.end - root.start
    m = layer_metrics(spans)
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.op_s"], abs=1e-9)
    assert {s.layer for s in spans} - {"bench"} <= {
        "certification", "cli", "config", "function_space", "kernels",
        "linear_solver", "nonlinear_solver", "operator", "quadrature", "sensitivity"}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_exact_counts_repeat(tracer, tmp_path, kind):
    wl = SMALL[kind]()
    state = prepared(wl, tmp_path)
    first, second = (traced_op(tracer, wl, state) for _ in range(2))
    counts = {k: v for k, v in first.items() if is_count(k)}
    assert counts == {k: v for k, v in second.items() if is_count(k)}
    assert counts["kernels.v.samples"] > 0


def test_parent_commit_counts(tracer, tmp_path):
    for sub in ("cli", "it"):
        (tmp_path / sub).mkdir()
    cli = CliSensitivity(n_cells=64)
    m = traced_op(tracer, cli, prepared(cli, tmp_path / "cli"))
    assert m["cli.solve_newton.calls"] == 4
    assert m["sensitivity.solve_newton.calls"] == 3
    it = Iterative(n_cells=64)
    m = traced_op(tracer, it, prepared(it, tmp_path / "it"))
    assert m.get("linear_solver.collocation_solve.calls", 0) == 0
    assert m["nonlinear_solver.gradient.iters"] > 0
    assert m["nonlinear_solver.merit_evals"] == m["operator.functional_F.calls"]


def test_uninstall_restores_the_package():
    import volterra
    from volterra import nonlinear_solver, operator

    before = (volterra.solve_newton, operator.apply_V, nonlinear_solver.apply_V,
              volterra.GridFunction.__post_init__)
    t = Tracer()
    t.install()
    assert operator.apply_V is not before[1]
    assert nonlinear_solver.apply_V is operator.apply_V
    t.uninstall()
    assert (volterra.solve_newton, operator.apply_V, nonlinear_solver.apply_V,
            volterra.GridFunction.__post_init__) == before


def test_failed_gate_is_counted(tmp_path):
    wl = NewtonLong(n_cells=64)
    state = prepared(wl, tmp_path)
    passing_gate = wl.gate
    wl.gate = lambda *a: passing_gate(*a) + ["deliberately failed"]
    res = run_ops(wl, state, SEED, seconds=0.0, budget=60.0,
                  setup_cmd=[sys.executable, "-c", "pass"])
    assert res["attempted"] == 1 and res["failed"] == 1
    assert res["messages"] == ["op 1: deliberately failed"]
    line = run.result_line({**res, "metrics": {}}, [{"name": "op_s", "unit": "s"}])
    assert line["correct"] is False and line["failed"] == 1


def test_timed_loop_interleaves_setup_and_operations(tmp_path):
    wl = NewtonLong(n_cells=64)
    res = run_ops(wl, prepared(wl, tmp_path), SEED, seconds=1.0, budget=60.0,
                  setup_cmd=[sys.executable, "-c", "pass"])
    assert res["failed"] == 0 and res["attempted"] >= 2
    assert len(res["op_s"]) == res["attempted"] <= len(res["setup_s"])


def test_no_operation_starts_that_would_overrun_the_run():
    res = closed_loop(lambda i: time.sleep(0.1) or [], seconds=0.35, budget=60.0)
    assert res["attempted"] == 3


def test_metrics_without_a_function_are_refused():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert unknown_metrics(m["name"] for m in spec["per_layer"]) == []
    renamed = ["operator.functional_G.calls", "config.from_path.s", "cache.self_s",
               "kernels.v_xx.samples", "operator.functional_F.count"]
    assert unknown_metrics(renamed) == renamed


def test_raising_operation_is_counted():
    def step(i):
        if i == 1:
            raise RuntimeError("boom")
        return []

    res = closed_loop(step, seconds=0.0, budget=60.0, min_ops=3)
    assert res == {"attempted": 3, "failed": 1, "messages": ["op 2: RuntimeError: boom"]}


def test_refuses_a_checkout_without_the_program(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ex2-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_has_the_contract_keys():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    res = {"attempted": 3, "failed": 0, "messages": [],
           "metrics": {"op_s": (1.5, 3), "setup_s": (1.2, 3)}}
    line = run.result_line(res, spec["end_to_end"])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert line["metrics"]["op_s"] == {"value": 1.5, "unit": "s"}
