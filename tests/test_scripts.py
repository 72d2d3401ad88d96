"""Smoke runs of the scripts in scripts/, each in a fresh process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import volterra as vt

_ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    src = str(Path(vt.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, str(_ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})


def test_certify_examples_tables():
    out = _run("certify_examples.py")
    assert out.returncode == 0, out.stderr
    # each sweep passes up to its threshold and fails beyond it
    tables = out.stdout.split("\n\n")
    assert len(tables) == 3
    for table in tables:
        verdicts = re.findall(r"(True|False)\s*$", table, flags=re.M)
        assert verdicts[0] == "True" and verdicts[-1] == "False"
        assert verdicts == sorted(verdicts, key=lambda v: v == "False")


def test_convergence_study_is_second_order():
    out = _run("convergence_study.py", "--cells", "25", "50", "100", "--ref-cells", "400")
    assert out.returncode == 0, out.stderr
    sweeps = out.stdout.strip().split("\n\n")
    # the linear kernel's lag march against its closed-form resolvent,
    # then the log kernel's generic march against a fine reference
    assert len(sweeps) == 2
    for sweep in sweeps:
        rates = [float(r) for r in re.findall(r"^\s*\d+\s+\S+\s+(\d+\.\d+)\s*$", sweep, flags=re.M)]
        assert len(rates) == 2, sweep
        assert min(rates) >= 1.9, sweep


def test_walk_cost_table():
    out = _run("walk_cost.py", "--cells", "200", "300", "--lag-cells", "300", "1000",
               "--repeat", "2")
    assert out.returncode == 0, out.stderr
    walks, lag = out.stdout.strip().split("\n\n")
    rows = [line.split() for line in walks.splitlines()[1:]]
    # the v_t walk and the v_tx transpose at each N: times, ratio, calls
    assert [(r[0], r[1]) for r in rows] == [("v_t", "200"), ("v_t", "300"),
                                            ("v_tx'", "200"), ("v_tx'", "300")]
    for r in rows:
        ex1, free, ratio, calls = float(r[2]), float(r[3]), float(r[4]), int(r[5])
        # the free evaluator costs nothing, so its walk is the cheaper
        assert 0 < free < ex1 and ratio < 1 and calls > 0
        # a replay neither evaluates v_x nor checks its far blocks
        if r[0] == "v_t":
            v_x, replay = float(r[6]), float(r[7])
            assert 0 < replay < v_x, r
        else:
            assert r[6:] == ["-", "-"], r
    # the lag route: each solve evaluates w once; collocation and
    # neumann_solve, for all its iterations, z' once; the march z at least
    # once per leaf
    rows = [line.split() for line in lag.splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        (name, n) for n in ("300", "1000") for name in ("collocation_solve", "solve_march",
                                                         "solve_newton", "neumann_solve")]
    for r in rows:
        ms, w_calls, z_calls, products = float(r[2]), int(r[3]), int(r[4]), int(r[5])
        assert ms > 0 and w_calls == 1 and z_calls >= 1 and products >= 1, r
    colloc, march, newton, neumann = rows[0::4], rows[1::4], rows[2::4], rows[3::4]
    # Newton's two linearizations, solved to its forcing terms, and its
    # three residuals take fewer products than one collocation row plus
    # three; solved to rounding they would take 16, not fewer than 8 + 3
    for c, r in zip(colloc, newton):
        assert int(r[5]) < int(c[5]) + 3, (c, r)
    assert [int(r[4]) for r in colloc] == [int(r[4]) for r in neumann] == [1, 1]
    assert min(int(r[4]) for r in march) >= 5
    # collocation contracts by a number of products that does not grow with
    # N; the march merges once less than its leaves (4 at 300 cells, 15 at
    # 1000), so collocation takes fewer products from 1000 cells on
    assert colloc[0][5] == colloc[1][5] and int(colloc[0][5]) <= 12
    assert int(colloc[1][5]) < int(march[1][5]) == 15


def test_gradient_walks_table():
    out = _run("gradient_walks.py", "--cells", "60", "--tol", "1e-7")
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.strip().splitlines()[1:]]
    # nine kernels on three right-hand sides; a kernel name may hold a space
    assert len(rows) == 27
    for r in rows:
        iters, merits, grads, walks = map(int, r[-7:-3])
        assert r[-2] == "True" and float(r[-3]) <= 1e-14, r
        assert walks == merits + grads and merits >= iters + 1, r
        if r[0].startswith("example1"):
            # Picard steps alone: one merit each and no gradient
            assert grads == 0 and merits == iters + 1, r
