"""In-memory span tracer for the specapprox layers, installed from outside.

``Tracer.install`` wraps every public function and every public method of
the six layer modules (cli, models, intervals, convergence, floquet,
dimension), plus ``numpy.linalg.eigvalsh`` as floquet's kernel.  Each call
records one span (name, start, end, parent) in memory.  A wrapped function
replaces the original under every name that refers to it in the package,
so ``floquet.hausdorff_distance`` and ``floquet.normalize`` are traced as
well as ``intervals.hausdorff_distance``.  ``uninstall`` puts every
original back.

A span's self time is its duration minus the durations of its child spans
(children run inside the parent, one after another, so they never overlap).
Spans nest on one stack: the benchmark calls the CLI from one thread and
clears ``SPECAPPROX_THREADS``, so no traced function runs on a pool thread.
A layer's self time is the sum over its spans; the kernel is a layer of its
own, so the layer self times add up to the time spent under the root spans.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "models", "intervals", "convergence", "floquet", "dimension")
KERNEL = "floquet.eigvalsh"

# Real flops of a Householder tridiagonal reduction, eigenvalues only
# (Golub & Van Loan, 4n^3/3); a complex Hermitian matrix costs four times
# as many real operations.
_FLOPS_PER_N3 = 4.0 / 3.0


class Tracer:
    """Collects spans and counters while installed.

    Spans are tuples ``(name_id, start, end, parent_index)`` with times from
    ``time.perf_counter``; ``parent_index`` is -1 for a root span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, pre=None, post=None):
        """Traced stand-in for ``fn``.

        ``pre(args, kwargs) -> (args, kwargs)`` runs inside the span;
        ``post(args, result)`` runs after the span has ended.
        """
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                if pre is not None:
                    args, kwargs = pre(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _wrap_kernel(self, fn):
        counters = self.counters
        cpu_clock = time.process_time
        wall_clock = time.perf_counter

        def pre(args, kwargs):
            a = np.asarray(args[0])
            n = a.shape[-1]
            matrices = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
            complex_factor = 4.0 if np.iscomplexobj(a) else 1.0
            counters[KERNEL + ".calls"] += 1
            counters[KERNEL + ".matrices"] += matrices
            counters[KERNEL + ".max_n"] = max(counters[KERNEL + ".max_n"], n)
            counters[KERNEL + ".flops_computed"] += matrices * complex_factor * _FLOPS_PER_N3 * n**3
            counters[KERNEL + ".bytes_computed"] += a.nbytes + matrices * n * 8
            return args, kwargs

        timed = self.wrap(fn, KERNEL, pre=pre)

        def kernel(*args, **kwargs):
            c0, t0 = cpu_clock(), wall_clock()
            try:
                return timed(*args, **kwargs)
            finally:
                counters[KERNEL + ".cpu"] += cpu_clock() - c0
                counters[KERNEL + ".wall"] += wall_clock() - t0

        kernel.__wrapped__ = fn
        return kernel

    def _hooks(self, name: str):
        counters = self.counters
        if name == "intervals.normalize":

            def pre(args, kwargs):
                items = list(args[0])
                counters[name + ".items_in"] += len(items)
                return (items,) + tuple(args[1:]), kwargs

            return pre, None
        if name == "intervals.hausdorff_distance":

            def pre(args, kwargs):
                counters[name + ".components_in"] += len(args[0]) + len(args[1])
                return args, kwargs

            return pre, None
        if name in ("convergence.ConvergenceReport.write_csv", "convergence.ConvergenceReport.write_json"):

            def post(args, result):
                counters["convergence.write.bytes"] += os.path.getsize(args[1])

            return None, post
        return None, None

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package, modules: dict) -> None:
        """Patch the layer modules of ``package``; ``modules`` maps layer -> module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replacement[id(obj)] = (obj, self.wrap(obj, name, *self._hooks(name)))
                elif inspect.isclass(obj):
                    self._patch_methods(obj, f"{layer}.{attr}")
        for mod in (package, *(modules[layer] for layer in LAYERS)):
            for attr, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        self._set(np.linalg, "eigvalsh", self._wrap_kernel(np.linalg.eigvalsh))

    def _patch_methods(self, cls, prefix: str) -> None:
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(desc, (classmethod, staticmethod)):
                self._set(cls, attr, type(desc)(self.wrap(desc.__func__, name, *self._hooks(name))))
            elif inspect.isfunction(desc):
                self._set(cls, attr, self.wrap(desc, name, *self._hooks(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Spans and counters recorded so far; resets both."""
        spans, counters = self.spans[:], Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def layer_of(name: str) -> str:
    return KERNEL if name == KERNEL else name.split(".", 1)[0]


def summarize(names: list[str], spans: list, counters: Counter) -> dict:
    """Per-layer figures of one traced sequence.

    Returns ``{"self": {layer: s}, "calls": {layer: n}, "inclusive":
    {name: s}, "name_calls": {name: n}, "root_s": s, "counters": {...}}``.
    Inclusive time of a name sums only its outermost spans, so a function
    that calls itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by_layer: Counter = Counter()
    calls_by_layer: Counter = Counter()
    inclusive: Counter = Counter()
    name_calls: Counter = Counter()
    root = 0.0
    for i, (name_id, start, end, parent) in enumerate(spans):
        dur = end - start
        layer = layer_of(names[name_id])
        self_by_layer[layer] += dur - child[i]
        calls_by_layer[layer] += 1
        name_calls[names[name_id]] += 1
        if parent < 0:
            root += dur
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[names[name_id]] += dur
    return {
        "self": dict(self_by_layer),
        "calls": dict(calls_by_layer),
        "inclusive": dict(inclusive),
        "name_calls": dict(name_calls),
        "root_s": root,
        "counters": dict(counters),
    }
