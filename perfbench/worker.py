"""Runs one workload in a fresh process; run.py starts it.

    python3 perfbench/worker.py MODE --workload NAME --work DIR --seed N
                                [--seconds S] [--budget B]

MODE is one of
  setup  import volterra and build config, grid, kernel and rhs; the
         timed loop of `ops` starts this mode as its set-up process;
  ops    closed loop of rounds for S seconds; a round is one or more
         set-up processes, then one untraced operation;
  trace  one traced operation under tracemalloc, then untraced and
         traced operations in turn for the rest of S seconds.

The worker reads the inputs run.py wrote into DIR and writes its result
to DIR/result.json.  It starts no new round once B seconds of its
budget would be exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer, is_count, layer_metrics, unknown_metrics
from workloads import WORKLOADS, CliSensitivity, Workload

ROOT = Path(__file__).resolve().parent.parent
# Each round of the timed loop spends at least this share of the last
# operation's time on set-up processes, so that setup_s gets several
# samples per run also where operations are long.
SETUP_SHARE = 0.4


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that run_child kills and reaps its
    child before this process ends."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def child_env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_child(cmd: list[str], log: Path, timeout: float) -> tuple[float, int, float]:
    """Run cmd to completion: (wall seconds, exit code, peak RSS in MB).

    Its output is appended to log.  The child is killed once timeout
    seconds have passed.
    """
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def closed_loop(step, seconds: float, budget: float, min_ops: int = 1) -> dict:
    """Call step(i) one at a time for about seconds.

    step returns the failed checks of operation i.  An exception counts
    as a failed operation; it is recorded, never dropped.  Once min_ops
    operations are done, none starts when one more of the last one's
    duration would overrun seconds; none ever starts when it would
    overrun the budget.
    """
    start = time.perf_counter()
    attempted = failed = 0
    messages: list[str] = []
    while True:
        t0 = time.perf_counter()
        try:
            fails = step(attempted)
        except Exception as exc:  # an operation's failure is a result, not a crash
            fails = [f"{type(exc).__name__}: {exc}"]
        attempted += 1
        if fails:
            failed += 1
            messages.extend(f"op {attempted}: {m}" for m in fails)
        now = time.perf_counter()
        expected_end = now - start + (now - t0)
        if expected_end > budget or (attempted >= min_ops and expected_end > seconds):
            break
    return {"attempted": attempted, "failed": failed, "messages": messages}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_ops(wl: Workload, state: dict, seed: int, seconds: float, budget: float,
            setup_cmd: list[str]) -> dict:
    """The timed loop: rounds of set-up processes and one operation.

    setup_cmd starts one set-up process; a round starts them until they
    took SETUP_SHARE of the last operation's time, at least one.
    Interleaving them with the operations lets both sample the same
    stretch of the machine's drifting speed.  An operation of
    cli-sensitivity-ex1 is a fresh `volterra sensitivity` process; the
    other workloads run their operation in this process.
    """
    work, deadline = state["work"], time.monotonic() + budget
    log = work / "children.log"
    setup_s: list[float] = []
    op_s: list[float] = []
    child_rss: list[float] = []

    def child(cmd: list[str]) -> tuple[float, int, float]:
        return run_child(cmd, log, deadline - time.monotonic())

    def op():
        if not isinstance(wl, CliSensitivity):
            return wl.op(state)
        wl.clear_outputs(work)
        _, code, rss = child([sys.executable, "-m", "volterra.cli", *wl.argv(work)])
        child_rss.append(rss)
        return code

    def step(_):
        target, spent = SETUP_SHARE * (op_s[-1] if op_s else 0.0), 0.0
        while not spent or spent < target:
            elapsed, code, _ = child(setup_cmd)
            if code != 0:
                raise RuntimeError(f"set-up process exited with {code}")
            setup_s.append(elapsed)
            spent += elapsed
        t0 = time.perf_counter()
        out = op()
        op_s.append(time.perf_counter() - t0)
        return wl.gate(state, out, seed)

    result = closed_loop(step, seconds, budget)
    return {**result, "setup_s": setup_s, "op_s": op_s,
            "peak_rss_mb": statistics.median(child_rss) if child_rss else peak_rss_mb()}


def run_trace(wl: Workload, tracer: Tracer, state: dict, seed: int,
              seconds: float, budget: float) -> dict:
    """Per-layer metrics: medians over the traced operations.

    Untraced and traced operations alternate, so trace.overhead_s (the
    difference of their median times) sees the same machine state.  An
    untraced operation runs with the wrappers removed and the kernel
    uncounted, as in the timed loop.  A first operation runs under
    tracemalloc and gives only the *.peak_alloc_mb metrics, so
    tracemalloc slows no timed operation; its time counts against
    seconds.
    """
    untraced: list[float] = []
    traced: list[dict] = []
    tracer.install()
    traced_state = {**state, "kernel": tracer.count_kernel(state["kernel"])}
    tracer.uninstall()

    def traced_op(track_memory: bool = False):
        tracer.install()
        try:
            with tracer.root(track_memory) as spans:
                out = wl.op(traced_state)
        finally:
            tracer.uninstall()
        return out, layer_metrics(spans)

    def step(i):
        if i % 2 == 0:
            t0 = time.perf_counter()
            out = wl.op(state)
            untraced.append(time.perf_counter() - t0)
        else:
            out, metrics = traced_op()
            traced.append(metrics)
        return wl.gate(state, out, seed)

    memory: dict = {}

    def memory_step(_):
        out, metrics = traced_op(track_memory=True)
        memory.update(metrics)
        return wl.gate(state, out, seed)

    t0 = time.perf_counter()
    first = closed_loop(memory_step, 0.0, budget)
    spent = time.perf_counter() - t0
    result = closed_loop(step, seconds - spent, budget - spent, min_ops=2)
    result["attempted"] += first["attempted"]
    result["failed"] += first["failed"]
    result["messages"] += [f"under tracemalloc, {m}" for m in first["messages"]]

    keys = set().union(*traced) if traced else set()
    # Exact counts are checked below to repeat, so the first op's stand for all.
    metrics = {k: traced[0].get(k, 0) if is_count(k) else
               statistics.median(m.get(k, 0) for m in traced) for k in keys}
    metrics.update({k: v for k, v in memory.items() if k.endswith(".peak_alloc_mb")})
    if traced and untraced:
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - statistics.median(untraced)
    counts_differ = sorted(
        k for k in keys | set(memory) if is_count(k)
        and len({m.get(k, 0) for m in (*traced, memory)}) > 1
    )
    return {**result, "metrics": metrics, "traced_ops": len(traced),
            "counts_differ": counts_differ}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "ops", "trace"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--budget", type=float, default=150.0)
    args = p.parse_args(argv)
    exit_on_sigterm()

    wl = WORKLOADS[args.workload]()
    state = wl.setup(args.work)
    if args.mode == "setup":
        return 0
    if args.mode == "ops":
        setup_cmd = [sys.executable, str(Path(__file__).resolve()), "setup",
                     "--workload", wl.name, "--work", str(args.work), "--seed", str(args.seed)]
        result = run_ops(wl, state, args.seed, args.seconds, args.budget, setup_cmd)
    else:
        tracer = Tracer()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        unknown = unknown_metrics(m["name"] for m in spec["per_layer"])
        if unknown:
            raise SystemExit(f"per-layer metrics with no function behind them: {unknown}")
        result = run_trace(wl, tracer, state, args.seed, args.seconds, args.budget)
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
