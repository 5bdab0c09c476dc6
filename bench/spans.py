"""Outside-in tracing of the imspe package for the benchmark's traced run.

Wrappers are installed from here on the names the callers look up (for
example ``imspe.search.imspe`` and the ``cho_solve`` bound in
``imspe.criterion``); nothing in ``src/imspe`` changes. Each wrapped call
records one span: name, start, end, parent span and op id, plus an optional
number (anchors of a pair average, iterations of a local search) and whether
it raised. Spans are kept in flat arrays in memory and written out when the
run ends.

A span's self time is its duration minus the durations of its direct
children. Single-threaded calls nest, so the children of a span lie inside
it and the self times of all spans of one op add up to the op span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

OP = "op"
WARMUP_OP = -1


class Tracer:
    """Span store plus the stack of open spans."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("d")
        self.tag = array("i")
        self.error = array("b")
        self._stack = [-1]
        self.current_op = WARMUP_OP

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.value.append(0.0)
        self.tag.append(-1)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index, failed=False):
        self.end[index] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.error[index] = 1

    def run_op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` under one root span."""
        self.current_op = op_id
        index = self.open(self.intern(OP))
        try:
            return fn(*args)
        finally:
            self.close(index)
            self.current_op = WARMUP_OP

    def arrays(self):
        """Spans as numpy arrays, with each span's self time in seconds."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=float),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "error": np.frombuffer(self.error, dtype=np.int8),
            "duration": duration,
            "self": duration - children,
        }

    def save(self, path):
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **spans)


def _wrap(tracer, name, fn, note=None):
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, failed=True)
            raise
        tracer.close(index)
        if note is not None:
            note(tracer, index, args, result)
        return result

    return traced


_KINDS = ("exponential", "gaussian", "matern32", "matern52")


def _note_pair(tracer, index, args, result):
    tracer.value[index] = float(np.size(result))
    tracer.tag[index] = _KINDS.index(args[0])


def _note_local_search(tracer, index, args, result):
    tracer.value[index] = float(result.iterations)
    tracer.tag[index] = int(result.converged)


def _counted_integrand(tracer, func):
    # average_over_domain calls its integrand once per refinement level
    name_id = tracer.intern("quadrature.average_over_domain.integrand")

    @functools.wraps(func)
    def integrand(x):
        index = tracer.open(name_id)
        try:
            return func(x)
        finally:
            tracer.close(index)

    return integrand


# (span name, [(module, attribute), ...]): every binding a caller looks up
BINDINGS = (
    ("criterion.imspe", [("imspe", "imspe"), ("imspe.criterion", "imspe"), ("imspe.search", "imspe"), ("imspe.cli", "imspe")]),
    ("criterion.build_correlation_matrix", [("imspe.criterion", "build_correlation_matrix")]),
    ("criterion.build_pair_matrix", [("imspe.criterion", "build_pair_matrix")]),
    ("criterion.build_single_vector", [("imspe.criterion", "build_single_vector")]),
    ("criterion.factor", [("imspe.criterion", "cho_factor")]),
    ("criterion.solve", [("imspe.criterion", "cho_solve")]),
    ("criterion.cond", [("numpy.linalg", "cond")]),
    ("integrals.pair_integral", [("imspe", "pair_integral"), ("imspe.criterion", "pair_integral"), ("imspe.cli", "pair_integral")]),
    ("integrals.single_integral", [("imspe", "single_integral"), ("imspe.criterion", "single_integral"), ("imspe.cli", "single_integral")]),
    ("kernels.as_design", [("imspe", "as_design"), ("imspe.criterion", "as_design"), ("imspe.search", "as_design"), ("imspe.quadrature", "as_design")]),
    ("kernels.cross_correlation", [("imspe", "cross_correlation"), ("imspe.criterion", "cross_correlation")]),
    ("kernels.rho", [("imspe", "rho"), ("imspe.quadrature", "rho")]),
    ("quadrature.integrate_pair", [("imspe", "integrate_pair"), ("imspe.cli", "integrate_pair")]),
    ("quadrature.integrate_mspe", [("imspe", "integrate_mspe")]),
    ("search.multistart_search", [("imspe", "multistart_search"), ("imspe.cli", "multistart_search")]),
    ("search.local_search", [("imspe.search", "local_search")]),
    ("search.fd_gradient", [("imspe.search", "fd_gradient")]),
    ("cli.main", [("imspe.cli", "main")]),
)


class Installed:
    """Wrappers installed on the package's bindings; ``remove()`` puts the originals back."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []
        notes = {"integrals.pair_integral": _note_pair, "search.local_search": _note_local_search}
        for name, places in BINDINGS:
            for module_name, attr in places:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, _wrap(tracer, name, original, notes.get(name)))
        self._install_quadrature()
        self._install_mspe_evaluator()

    def _install_quadrature(self):
        module = importlib.import_module("imspe.quadrature")
        original = module.average_over_domain
        tracer = self.tracer
        traced = _wrap(tracer, "quadrature.average_over_domain", original)

        @functools.wraps(original)
        def average_over_domain(func, *args, **kwargs):
            return traced(_counted_integrand(tracer, func), *args, **kwargs)

        for mod in (module, importlib.import_module("imspe")):
            self._saved.append((mod, "average_over_domain", mod.average_over_domain))
            mod.average_over_domain = average_over_domain

    def _install_mspe_evaluator(self):
        tracer = self.tracer
        name = "criterion.mspe_evaluator"
        module = importlib.import_module("imspe.quadrature")
        original = module.mspe_evaluator
        traced = _wrap(tracer, name, original)

        # evaluating the returned profile is part of the evaluator's work, so
        # the profile gets the same span name
        @functools.wraps(original)
        def mspe_evaluator(*args, **kwargs):
            return _wrap(tracer, name, traced(*args, **kwargs))

        for mod in (module, importlib.import_module("imspe")):
            self._saved.append((mod, "mspe_evaluator", mod.mspe_evaluator))
            mod.mspe_evaluator = mspe_evaluator

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def span_cost_s(samples=20000):
    """Median cost of one traced call to an empty function, in seconds."""
    tracer = Tracer()

    def empty():
        return None

    traced = _wrap(tracer, "calibration", empty)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(samples):
            empty()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(samples):
            traced()
        costs.append((time.perf_counter() - t0 - bare) / samples)
    return float(np.median(costs))
