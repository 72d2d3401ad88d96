"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                [--out FILE]

Runs `run.py --trace 0` once per seed for each workload and reports, for
each end-to-end metric, the median of the runs and the distance between
their first and third quartiles as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them).  A metric whose spread is
not below its bound in BENCHMARK.json cannot resolve a change of that
size.  --out also makes one traced run of each workload on the reference
seed and writes the runs, the summary, each workload's parameters,
predictions and per-layer metrics, and the machine description as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine() -> dict:
    """CPU, caches, library versions and the thread environment as found."""
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # not Linux: keep what platform reported
    info.update(python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__,
                threads={v: os.environ.get(v) for v in THREAD_VARS})
    return info


def quartile_spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def bench(name: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, float, str]:
    """One run of run.py: (its result line or None on failure, wall seconds, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    took = time.perf_counter() - t0
    line = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else None
    if proc.returncode != 0 or line is None or not line["correct"]:
        return None, took, proc.stderr
    return line, took, proc.stderr


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", nargs="+", choices=names, default=names)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    runs: dict = {}
    summary: dict = {}
    ok = True
    for name in args.workload:
        runs[name] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            line, took, err = bench(name, seed, spec["run_seconds"], 0)
            if line is None:
                print(f"{name} seed {seed}: failed\n{err}", file=sys.stderr)
                ok = False
                continue
            runs[name].append({"seed": seed, "run_s": took, **line})
            print(f"{name} seed {seed} ({took:.0f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), file=sys.stderr)
        summary[name] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[name]]
            if len(values) < 2:
                continue
            med, q1, q3 = quartile_spread(values)
            share = (q3 - q1) / med
            summary[name][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                        "bound": m["bound"], "runs": len(values)}
            print(f"{name:22s} {m['name']:12s} median {med:10.5g} {m['unit']:8s} "
                  f"spread {share:6.2%} (bound {m['bound']:.0%}, third {m['bound'] / 3:.1%})")
    if args.out:
        workloads = {}
        for name in args.workload:
            line, took, err = bench(name, REFERENCE_SEED, spec["run_seconds"], 1)
            if line is None:
                print(f"{name} traced seed {REFERENCE_SEED}: failed\n{err}", file=sys.stderr)
                ok = False
            wl = WORKLOADS[name]
            workloads[name] = {"params": wl().params(), "why": wl.why, "not_moved": wl.not_moved,
                               f"per_layer_seed{REFERENCE_SEED}": line and line["metrics"]}
        args.out.write_text(json.dumps({"machine": machine(), "run_seconds": spec["run_seconds"],
                                        "workloads": workloads, "summary": summary,
                                        "runs": runs}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
