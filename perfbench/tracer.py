"""Outside-in span tracing of the volterra package, with no edit to its source.

Tracer.install() replaces every function and method that a volterra
submodule defines with a wrapper, in the defining module and in every
module namespace that bound it with ``from .x import f``.  While a root
span is open (Tracer.root), each wrapped call records a span: name,
start, end and parent.  Outside a root span the wrappers only pass the
call through, so set-up and correctness checks record nothing.

Any KernelSpec that a wrapped function returns gets its four evaluators
wrapped as well (dataclasses.replace), so evaluator spans carry the
number of (t, tau) samples each call evaluated.

The layer of a span is the short name of the module that defines the
function; the benchmark's own root span has layer "bench".  Spans are
kept in memory and turned into metrics by layer_metrics() after the root
span closes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

ROOT_LAYER = "bench"
EVALUATORS = ("v", "v_t", "v_x", "v_tx")

# Spans whose result is (solution, report): report.iterations is summed
# into the named metric.
ITERATIONS = {
    "nonlinear_solver.solve_newton": "nonlinear_solver.newton.iters",
    "nonlinear_solver.solve_gradient": "nonlinear_solver.gradient.iters",
    "linear_solver.neumann_solve": "linear_solver.neumann_solve.iters",
}

# Methods that dataclasses generate; they carry no work of the layer.
_GENERATED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}

# Metric suffixes that are exact counts and must repeat between runs.
COUNT_SUFFIXES = (".calls", ".samples", ".iters", ".merit_evals")


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    parent: int  # index into Tracer.spans; -1 for the root
    start: int = 0  # time.perf_counter_ns()
    end: int = 0
    samples: int = 0  # kernel evaluator spans only
    iterations: int = 0  # spans named in ITERATIONS only
    base: int = 0  # traced bytes at entry, with memory tracking
    peak: int = 0  # highest traced bytes while open, with memory tracking


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._memory = False
        self._restore: list[tuple] = []
        self._kernel_cls = None

    # -- spans -----------------------------------------------------------

    @contextmanager
    def root(self, track_memory: bool = False):
        """Open the root span of one operation; yields the span list.

        With track_memory, tracemalloc runs for the duration and every
        span records the peak of traced bytes above its entry level.
        """
        if self._open:
            raise RuntimeError("a root span is already open")
        self.spans = []
        self._memory = track_memory
        if track_memory:
            tracemalloc.start()
        span = self._enter(f"{ROOT_LAYER}.op", ROOT_LAYER)
        try:
            yield self.spans
        finally:
            self._exit(span)
            if track_memory:
                tracemalloc.stop()
                self._memory = False

    def _enter(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self._open[-1] if self._open else -1)
        if self._memory:
            current, peak = tracemalloc.get_traced_memory()
            self._raise_peaks(peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter_ns()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        if self._memory:
            self._raise_peaks(tracemalloc.get_traced_memory()[1])
        self._open.pop()

    def _raise_peaks(self, peak: int) -> None:
        for i in self._open:
            if peak > self.spans[i].peak:
                self.spans[i].peak = peak

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._open:
                return tracer._count(fn(*args, **kwargs))
            span = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if name in ITERATIONS:
                span.iterations = result[1].iterations
            return tracer._count(result)

        return traced

    def _count(self, result):
        if isinstance(result, self._kernel_cls) and \
                getattr(result.v, "counted_by", None) is not self:
            return self.count_kernel(result)
        return result

    def count_kernel(self, spec):
        """A copy of spec whose evaluators record spans with sample counts."""
        return dataclasses.replace(
            spec, **{f: self._evaluator(getattr(spec, f), f) for f in EVALUATORS}
        )

    def _evaluator(self, fn, field: str):
        name = f"kernels.{field}"
        tracer = self

        def evaluate(t, tau, x):
            if not tracer._open:
                return fn(t, tau, x)
            span = tracer._enter(name, "kernels")
            span.samples = math.prod(np.broadcast_shapes(np.shape(t), np.shape(tau)))
            try:
                return fn(t, tau, x)
            finally:
                tracer._exit(span)

        evaluate.counted_by = tracer
        return evaluate

    def install(self) -> None:
        """Wrap every function and method of every volterra submodule."""
        import volterra
        from volterra.kernels import KernelSpec

        self._kernel_cls = KernelSpec
        wrapped = {}
        for layer, obj in _definitions():
            if inspect.isfunction(obj):
                wrapped[obj] = self._wrap(obj, layer)
            else:
                self._wrap_methods(obj, layer)
        for mod in (volterra, *_submodules()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._replace(mod, attr, wrapped[obj])

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr in _GENERATED:
                continue
            if inspect.isfunction(obj):
                self._replace(cls, attr, self._wrap(obj, layer))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._replace(cls, attr, type(obj)(self._wrap(obj.__func__, layer)))

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put back every original function and method."""
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)


def _submodules() -> list:
    import volterra

    return [importlib.import_module(f"volterra.{info.name}")
            for info in pkgutil.iter_modules(volterra.__path__)]


def _definitions():
    """(layer, object) for each function and class a volterra submodule defines."""
    for mod in _submodules():
        layer = mod.__name__.rpartition(".")[2]
        for obj in list(vars(mod).values()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or (
                    inspect.isclass(obj) and not issubclass(obj, BaseException)):
                yield layer, obj


def unknown_metrics(names) -> list[str]:
    """The metric names that no function of the package can produce.

    A per-layer metric that the traced run does not produce reads 0.
    That must mean a function exists and was not called, never that it
    was renamed or moved, so a run refuses names this returns: a layer
    that is not a volterra submodule, ``<layer>.<fn>.s`` for a function
    fn that layer does not define, ``<layer>.<fn>.calls`` for an fn no
    layer defines, or a name of no known form.
    """
    defined: dict = defaultdict(set)
    for layer, obj in _definitions():
        defined[layer].add(obj.__name__)
        if inspect.isclass(obj):
            defined[layer].update(a for a, v in vars(obj).items() if a not in _GENERATED and (
                inspect.isfunction(v) or isinstance(v, (classmethod, staticmethod))))
    anywhere = set().union(*defined.values())
    fns = {f"{layer}.{fn}" for layer, names in defined.items() for fn in names}
    # Metrics the harness derives, and the function each needs.
    derived = {"trace.op_s": None, "trace.overhead_s": None, "trace.unattributed_s": None,
               "import.volterra_s": None, "import.scipy_stats_s": None,
               "kernels.eval_self_s": "kernels.KernelSpec",
               "nonlinear_solver.merit_evals": "operator.functional_F",
               **{metric: fn for fn, metric in ITERATIONS.items()}}
    unknown = []
    for name in names:
        parts = name.split(".")
        if name in derived:
            ok = derived[name] is None or derived[name] in fns
        elif len(parts) == 2:
            ok = parts[0] in defined and parts[1] in ("self_s", "calls", "peak_alloc_mb")
        elif len(parts) == 3 and parts[2] == "samples":
            ok = "kernels.KernelSpec" in fns and parts[:2] in (["kernels", e] for e in EVALUATORS)
        elif len(parts) == 3 and parts[2] == "s":
            ok = ".".join(parts[:2]) in fns
        elif len(parts) == 3 and parts[2] == "calls":
            ok = parts[0] in defined and parts[1] in anywhere
        else:
            ok = False
        if not ok:
            unknown.append(name)
    return unknown


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one operation's spans (spans[0] is the root).

    - ``<layer>.self_s``: summed self time, a span's duration minus the
      time its child spans cover;
    - ``<layer>.calls``: calls into the layer from another layer;
    - ``<layer>.<fn>.s``: summed duration of the layer's function fn;
    - ``<L>.<fn>.calls``: calls of fn made while a span of layer L was
      open, fn's own layer included (so ``cli.solve_newton.calls``
      counts every Newton solve the CLI command made);
    - ``kernels.<evaluator>.samples`` and ``kernels.eval_self_s``;
    - ``*.iters`` from the solver reports and
      ``nonlinear_solver.merit_evals``, the functional_F evaluations the
      nonlinear solvers made;
    - ``<layer>.peak_alloc_mb``, with memory tracking: the most traced
      memory one call of the layer held above its entry level;
    - ``trace.op_s``, the root's duration, and ``trace.unattributed_s``,
      the root's self time outside every volterra call.
    """
    times: dict = defaultdict(float)
    counts: Counter = Counter()
    peaks: dict = {}
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
    chains: list[frozenset] = []
    for i, s in enumerate(spans):
        chain = (chains[s.parent] if s.parent >= 0 else frozenset()) | {s.layer}
        chains.append(chain)
        duration = s.end - s.start
        self_s = (duration - child_ns[i]) / 1e9
        fn = s.name[len(s.layer) + 1:]
        times[f"{s.layer}.self_s"] += self_s
        times[f"{s.name}.s"] += duration / 1e9
        if s.parent < 0 or spans[s.parent].layer != s.layer:
            counts[f"{s.layer}.calls"] += 1
        for layer in chain:
            counts[f"{layer}.{fn}.calls"] += 1
        if s.layer == "kernels" and fn in EVALUATORS:
            counts[f"{s.name}.samples"] += s.samples
            times["kernels.eval_self_s"] += self_s
        if s.name in ITERATIONS:
            counts[ITERATIONS[s.name]] += s.iterations
        if s.peak:
            key = f"{s.layer}.peak_alloc_mb"
            peaks[key] = max(peaks.get(key, 0.0), (s.peak - s.base) / 1e6)
    counts["nonlinear_solver.merit_evals"] = counts["nonlinear_solver.functional_F.calls"]
    if spans:
        times["trace.op_s"] = (spans[0].end - spans[0].start) / 1e9
        times["trace.unattributed_s"] = times.pop(f"{ROOT_LAYER}.self_s")
    return {**times, **counts, **peaks}


def is_count(metric: str) -> bool:
    return metric.endswith(COUNT_SUFFIXES)
