"""Span tracing of similearn's public functions, applied from outside.

The program carries no instrumentation. ``Tracer.install`` replaces every
public function of each similearn module with a timing wrapper, at every
module attribute the function is bound to (``harness.solve`` as well as
``solver.solve``), so calls made through any import path nest their spans
under the caller's span. ``uninstall`` puts the originals back.

Per-layer metrics are computed from the spans after the traced region.
A metric whose functions no longer exist (renamed or inlined by a later
change) is reported as absent instead of failing the run.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("kernels", "solver", "graph", "semisupervised", "metrics", "harness", "io", "cli")

_HOOK_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError)


def similearn_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "similearn" or name.startswith("similearn."))]


class Rebinder:
    """Replace function objects at every module attribute bound to them."""

    def __init__(self):
        self._undo = []

    def replace(self, replacements):
        """``replacements`` maps original function -> substitute."""
        for mod in similearn_modules():
            for attr, value in list(vars(mod).items()):
                sub = replacements.get(value) if inspect.isfunction(value) else None
                if sub is not None:
                    setattr(mod, attr, sub)
                    self._undo.append((mod, attr, value))

    def restore(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


def public_functions():
    """{"layer.name": function} for the public functions each layer defines."""
    found = {}
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"similearn.{layer}")
        except ImportError:
            continue
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                found[f"{layer}.{attr}"] = value
    return found


def result_items(result):
    return result if isinstance(result, tuple) else (result,)


def result_attr(result, attr):
    """First ``attr`` found on the items of a function's result."""
    for item in result_items(result):
        if hasattr(item, attr):
            return getattr(item, attr)
    raise AttributeError(attr)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _solve_hook(facts, args, kwargs, result):
    iterations = int(result_attr(result, "iterations"))
    max_iter = int(_arg(args, kwargs, 1, "config").max_iter)
    facts["solver.iterations"] += iterations
    facts["solver.capped"] += iterations >= max_iter


def _read_hook(facts, args, kwargs, result):
    facts["io.read_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _write_hook(facts, args, kwargs, result):
    facts["io.write_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _run_benchmark_hook(facts, args, kwargs, result):
    with open(result_items(result)[1]) as f:
        facts["harness.cells"] += json.load(f)["n_cells"]


# facts gathered from arguments and results, by the function that yields them
HOOKS = {
    "solver.solve": (_solve_hook, ("solver.iterations", "solver.capped")),
    "io.read_matrix": (_read_hook, ("io.read_bytes",)),
    "io.write_matrix": (_write_hook, ("io.write_bytes",)),
    "harness.run_benchmark": (_run_benchmark_hook, ("harness.cells",)),
}


class Tracer:
    """In-memory spans: [key, start, end, parent index, thread id]."""

    def __init__(self):
        self.spans = []
        self.facts = defaultdict(float)
        self.broken = set()
        self.found = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rebinder = Rebinder()
        self._index = None

    def install(self):
        functions = public_functions()
        self.found = set(functions)
        self._rebinder.replace({fn: self._wrap(key, fn) for key, fn in functions.items()})

    def uninstall(self):
        self._rebinder.restore()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key, fn):
        hook, fact_names = HOOKS.get(key, (None, ()))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [key, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    with tracer._lock:
                        hook(tracer.facts, args, kwargs, result)
                except _HOOK_ERRORS:
                    tracer.broken.update(fact_names)
            return result

        return traced

    # ---------------------------------------------------------- summaries

    def _of(self, key):
        """Indices of ``key``'s spans; valid once the traced region ended."""
        if self._index is None:
            self._index = defaultdict(list)
            for i, s in enumerate(self.spans):
                self._index[s[0]].append(i)
        return self._index.get(key, [])

    def _outermost(self, key):
        """Spans of ``key`` not nested in another span of the same key."""
        spans = self.spans
        out = []
        for i in self._of(key):
            span = spans[i]
            parent = span[3]
            while parent is not None and spans[parent][0] != key:
                parent = spans[parent][3]
            if parent is None:
                out.append(span)
        return out

    def busy(self, key):
        return sum(s[2] - s[1] for s in self._outermost(key))

    def calls(self, key):
        return len(self._of(key))

    def self_time(self, key):
        """Duration of ``key``'s spans minus that of their child spans.

        Children share their parent's thread, so they never overlap.
        """
        mine = set(self._of(key))
        spans = self.spans
        return (sum(spans[i][2] - spans[i][1] for i in mine)
                - sum(s[2] - s[1] for s in spans if s[3] in mine))

    def layer_self_time(self, layer):
        """Time in ``layer``'s spans not covered by spans of other layers."""
        spans = self.spans
        in_layer = [s[0].split(".")[0] == layer for s in spans]
        total = 0.0
        for i, s in enumerate(spans):
            if in_layer[i]:
                parent = s[3]
                while parent is not None and not in_layer[parent]:
                    parent = spans[parent][3]
                if parent is None:  # outermost span of the layer
                    total += s[2] - s[1]
            elif s[3] is not None and in_layer[s[3]]:  # another layer called from it
                total -= s[2] - s[1]
        return total

    def threads(self, key):
        return len({self.spans[i][4] for i in self._of(key)})


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, functions that must exist, facts that must be intact, value)
PER_LAYER = {
    "kernels.compute_kernel_s": ("s", ["kernels.compute_kernel"], [],
                                 lambda t: t.busy("kernels.compute_kernel")),
    "kernels.normalize_kernel_s": ("s", ["kernels.normalize_kernel"], [],
                                   lambda t: t.busy("kernels.normalize_kernel")),
    "kernels.built": ("count", ["kernels.compute_kernel"], [],
                      lambda t: t.calls("kernels.compute_kernel")),
    "solver.solve_s": ("s", ["solver.solve"], [], lambda t: t.busy("solver.solve")),
    "solver.solves": ("count", ["solver.solve"], [], lambda t: t.calls("solver.solve")),
    "solver.iterations": ("count", ["solver.solve"], ["solver.iterations"],
                          lambda t: t.facts["solver.iterations"]),
    "solver.capped_share": ("ratio", ["solver.solve"], ["solver.capped"],
                            lambda t: _ratio(t.facts["solver.capped"], t.calls("solver.solve"))),
    "solver.ms_per_iter": ("ms", ["solver.solve"], ["solver.iterations"],
                           lambda t: 1e3 * _ratio(t.busy("solver.solve"),
                                                  t.facts["solver.iterations"])),
    "solver.update_j_s": ("s", ["solver.update_j"], [], lambda t: t.busy("solver.update_j")),
    "solver.update_w_s": ("s", ["solver.update_w"], [], lambda t: t.busy("solver.update_w")),
    "solver.update_h_s": ("s", ["solver.update_h"], [], lambda t: t.busy("solver.update_h")),
    "solver.update_z_s": ("s", ["solver.update_z"], [], lambda t: t.busy("solver.update_z")),
    "solver.prox_s": ("s", ["solver.prox_l1", "solver.prox_nuclear"], [],
                      lambda t: t.busy("solver.prox_l1") + t.busy("solver.prox_nuclear")),
    "solver.objective_s": ("s", ["solver.evaluate_objective"], [],
                           lambda t: t.busy("solver.evaluate_objective")),
    "solver.self_s": ("s", ["solver.solve"], [], lambda t: t.self_time("solver.solve")),
    "graph.cluster_s": ("s", ["graph.cluster"], [], lambda t: t.busy("graph.cluster")),
    "graph.spectral_embed_s": ("s", ["graph.spectral_embed"], [],
                               lambda t: t.busy("graph.spectral_embed")),
    "graph.kmeans_s": ("s", ["graph.kmeans"], [], lambda t: t.busy("graph.kmeans")),
    "graph.clusterings": ("count", ["graph.cluster"], [], lambda t: t.calls("graph.cluster")),
    "semisupervised.ssl_experiment_s": ("s", ["semisupervised.ssl_experiment"], [],
                                        lambda t: t.busy("semisupervised.ssl_experiment")),
    "semisupervised.lgc_propagate_calls": ("count", ["semisupervised.lgc_propagate"], [],
                                           lambda t: t.calls("semisupervised.lgc_propagate")),
    "metrics.score_s": ("s", ["metrics.accuracy", "metrics.nmi"], [],
                        lambda t: t.busy("metrics.accuracy") + t.busy("metrics.nmi")),
    "io.read_matrix_s": ("s", ["io.read_matrix"], [], lambda t: t.busy("io.read_matrix")),
    "io.read_mb": ("MB", ["io.read_matrix"], ["io.read_bytes"],
                   lambda t: t.facts["io.read_bytes"] / 1e6),
    "io.read_mb_per_s": ("MB/s", ["io.read_matrix"], ["io.read_bytes"],
                         lambda t: _ratio(t.facts["io.read_bytes"] / 1e6,
                                          t.busy("io.read_matrix"))),
    "io.write_matrix_s": ("s", ["io.write_matrix"], [], lambda t: t.busy("io.write_matrix")),
    "io.write_mb": ("MB", ["io.write_matrix"], ["io.write_bytes"],
                    lambda t: t.facts["io.write_bytes"] / 1e6),
    "io.write_mb_per_s": ("MB/s", ["io.write_matrix"], ["io.write_bytes"],
                          lambda t: _ratio(t.facts["io.write_bytes"] / 1e6,
                                           t.busy("io.write_matrix"))),
    "harness.run_benchmark_s": ("s", ["harness.run_benchmark"], [],
                                lambda t: t.busy("harness.run_benchmark")),
    "harness.self_s": ("s", ["harness.run_benchmark"], [],
                       lambda t: t.layer_self_time("harness")),
    "harness.cells": ("count", ["harness.run_benchmark"], ["harness.cells"],
                      lambda t: t.facts["harness.cells"]),
    # threads that ran solves: the worker parallelism the harness achieved
    "harness.workers": ("count", ["solver.solve"], [], lambda t: t.threads("solver.solve")),
    "cli.main_s": ("s", ["cli.main"], [], lambda t: t.busy("cli.main")),
    "cli.self_s": ("s", ["cli.main"], [], lambda t: t.layer_self_time("cli")),
    "cli.commands": ("count", ["cli.main"], [], lambda t: t.calls("cli.main")),
}


def layer_metrics(tracer):
    """({name: value}, [absent names]) for one traced region."""
    values, absent = {}, []
    for name, (_, needs, facts, compute) in PER_LAYER.items():
        if any(k not in tracer.found for k in needs) or any(f in tracer.broken for f in facts):
            absent.append(name)
        else:
            values[name] = float(compute(tracer))
    return values, absent
