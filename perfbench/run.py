"""Benchmark of the volterra package; BENCHMARK.json at the repo root defines it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from anywhere inside a checkout that holds src/volterra; it needs
no install.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics of BENCHMARK.json; with --trace 1,
the per-layer metrics of a separate traced run.  Either way it exits 1
when an operation failed a correctness gate.  --workload all runs every
workload both ways and prints each metric with its unit and sample
count.

End-to-end metrics (tracing off), from a closed loop of rounds, each a
set-up process and then one operation:
  setup_s      median time of a fresh process that imports volterra and
               builds config, grid, kernel and rhs;
  op_s         median time of one operation;
  peak_rss_mb  peak RSS of the fresh process that ran the operations
               (for the CLI workload each operation is such a process;
               the median over them);
  ok_frac      operations that passed every gate over those attempted
               (1 - fail_frac, so that it is never 0).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from worker import ROOT, exit_on_sigterm, run_child
from workloads import WORKLOADS

WORK_ROOT = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not measure: a child process failed or hung."""


class Run:
    """One run of one workload: its work directory, deadline and child processes."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.wl = WORKLOADS[name]()
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
        self.log = self.work / "children.log"

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, cmd: list[str]) -> tuple[float, int, float]:
        elapsed, code, rss = run_child(cmd, self.log, self.remaining())
        if self.remaining() <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return elapsed, code, rss

    def worker(self, mode: str) -> tuple[float, dict]:
        """Run worker.py in mode ops or trace: (wall seconds, its result)."""
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), mode,
               "--workload", self.wl.name, "--work", str(self.work),
               "--seed", str(self.seed), "--seconds", str(self.seconds),
               "--budget", str(self.remaining() - 5.0)]
        elapsed, code, _ = self.child(cmd)
        if code != 0:
            raise BenchError(f"worker {mode} exited with {code}; log:\n{self.tail()}")
        return elapsed, json.loads((self.work / "result.json").read_text())

    def tail(self) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-20:])

    def import_times(self) -> dict:
        """import.* metrics from -X importtime; the run also warms the bytecode cache."""
        self.child([sys.executable, "-X", "importtime", "-c", "import volterra"])
        cumulative = {}
        for line in self.log.read_text(errors="replace").splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        self.log.write_text("")
        if "volterra" not in cumulative:
            raise BenchError("import volterra failed")
        return {"import.volterra_s": cumulative["volterra"],
                "import.scipy_stats_s": cumulative.get("scipy.stats", 0.0)}

    def measure(self, trace: bool) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            self.wl.write_inputs(self.work, self.seed)
            imports = self.import_times()
            return self.traced(imports) if trace else self.timed()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def timed(self) -> dict:
        res = self.worker("ops")[1]
        ops, setups = res["op_s"], res["setup_s"]
        if not ops:
            raise BenchError(f"no operation completed: {res['messages'][:3]}")
        metrics = {
            "op_s": (statistics.median(ops), len(ops)),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (res["peak_rss_mb"], len(ops)),
            "ok_frac": ((res["attempted"] - res["failed"]) / res["attempted"], res["attempted"]),
        }
        return {**res, "metrics": metrics, "n": len(ops)}

    def traced(self, imports: dict) -> dict:
        res = self.worker("trace")[1]
        n = res["traced_ops"]
        metrics = {k: (v, 1 if k.endswith(".peak_alloc_mb") else n)
                   for k, v in res["metrics"].items()}
        metrics.update({k: (v, 1) for k, v in imports.items()})
        if res["counts_differ"]:
            res["messages"].append(f"exact counts differ between traced ops: {res['counts_differ']}")
        return {**res, "metrics": metrics, "n": n}


def result_line(res: dict, wanted: list[dict]) -> dict:
    """The JSON object the last output line carries.

    A per-layer metric the traced run did not produce reads 0: the
    worker has checked that a function behind it exists, so it was not
    called.
    """
    metrics = {}
    for m in wanted:
        value = res["metrics"].get(m["name"], (0, 0))[0]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = res["failed"] == 0 and not res.get("counts_differ")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def report(name: str, res: dict, wanted: list[dict]) -> None:
    """Human-readable lines: metric, value, unit, sample count.

    A metric the run did not produce reads 0 over the run's samples.
    """
    for m in wanted:
        value, n = res["metrics"].get(m["name"], (0, res["n"]))
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"{name:22s} {m['name']:40s} {shown} {m['unit']:8s} n={n}")
    for msg in res["messages"][:10]:
        print(f"{name}: FAILED {msg}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="volterra benchmark")
    p.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    exit_on_sigterm()

    if not (ROOT / "src" / "volterra" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/volterra to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]

    ok = True
    for name, trace in runs:
        wanted = spec["per_layer" if trace else "end_to_end"]
        try:
            res = Run(name, args.seed, seconds).measure(bool(trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        line = result_line(res, wanted)
        report(name, res, wanted)
        ok = ok and line["correct"]
        if args.workload != "all":
            print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
