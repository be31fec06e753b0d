"""Spans around the calls into qmanin's public functions.

qmanin modules bind names with ``from .x import y``, so wrapping one module
attribute misses the others.  ``Tracer.install`` finds every ``qmanin.*``
module attribute that *is* a target function and replaces each with one
wrapper; ``uninstall`` puts the originals back.  Methods are wrapped on
their class.

Dispatch tables (module-level dicts holding a target) are patched too.
A span records name, start, end, parent span and operation id.  Spans stay
in memory; ``aggregate`` turns them into per-name calls, total time and
self time (total minus the time of the spans directly inside).
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); "Class.method" names a method
TARGETS = {
    "weights.log_weights": ("qmanin.weights", "WeightSequence.log_weights"),
    "series.sum_series": ("qmanin.series", "sum_series"),
    "kernels.csum_logpolar": ("qmanin.kernels", "csum_logpolar"),
    "kernels.power_matrix": ("qmanin.kernels", "power_matrix"),
    "kernels.weighted_gram": ("qmanin.kernels", "weighted_gram"),
    "kernels.log_power_sums": ("qmanin.kernels", "log_power_sums"),
    "coherent.kernel": ("qmanin.coherent", "kernel"),
    "coherent.coherent_norm_sq": ("qmanin.coherent", "coherent_norm_sq"),
    "coherent.coherent_coefficients": ("qmanin.coherent", "coherent_coefficients"),
    "coherent.eigen_residual": ("qmanin.coherent", "eigen_residual"),
    "operators.annihilation_matrix": ("qmanin.operators", "annihilation_matrix"),
    "operators.toeplitz_matrix": ("qmanin.operators", "toeplitz_matrix"),
    "measure.moments": ("qmanin.measure", "MomentSequence.from_weights"),
    "measure.gauss": ("qmanin.measure", "gauss_quadrature_from_moments"),
    "measure.verify_moments": ("qmanin.measure", "verify_moments"),
    "measure.verify_resolution_identity": ("qmanin.measure", "verify_resolution_identity"),
    "measure.verify_density_moments": ("qmanin.measure", "verify_density_moments"),
    "symbols.quantize_cs": ("qmanin.symbols", "quantize_cs"),
    "symbols.secondary_toeplitz": ("qmanin.symbols", "secondary_toeplitz"),
    "symbols.quantize_cs_norm_bound": ("qmanin.symbols", "quantize_cs_norm_bound"),
    "symbols.lower_symbol": ("qmanin.symbols", "lower_symbol"),
    "acceptance.criterion": ("qmanin.acceptance", "run_criterion"),
    "paragrassmann.pg_structure_report": ("qmanin.paragrassmann", "pg_structure_report"),
    "jsonio.write": ("qmanin.jsonio", "write"),
}


def resolve(module: str, attr: str):
    """The original target object (a plain function, also for methods)."""
    owner = importlib.import_module(module)
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        raw = vars(owner)[name]
        return getattr(raw, "__func__", raw)
    return getattr(owner, name)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counters = defaultdict(float)
        self.op = None
        self.active = True       # False while the benchmark checks outputs
        self._stack = []
        self._patches = []       # (module, class or dict; key; original value)
        self._solved = set()     # (moment logs, order) already solved here
        self.gauss_calls = 0
        self.gauss_repeats = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name, fn, after):
        tracer = self
        named = name == "acceptance.criterion"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = f"acceptance.criterion_{int(args[0]):02d}" if named else name
            idx = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {"series.sum_series": self._after_sum_series,
                 "measure.gauss": self._after_gauss,
                 "jsonio.write": self._after_write}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qmanin" or n.startswith("qmanin."))]
        for name, (module, attr) in TARGETS.items():
            orig = resolve(module, attr)
            wrapper = self._wrap(name, orig, hooks.get(name))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(importlib.import_module(module), cls_name)
                raw = vars(cls)[meth]
                new = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        # dispatch tables such as the CLI's named operators
                        for k, v in list(value.items()):
                            if v is orig:
                                self._patches.append((value, k, v))
                                value[k] = wrapper

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()

    # -- hooks run after a wrapped call returns --------------------------------

    def _after_sum_series(self, args, kwargs, result):
        self.counters["series.sum_series.terms"] += result.nterms

    def _after_write(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counters["jsonio.write.bytes"] += os.path.getsize(path)

    def _after_gauss(self, args, kwargs, result):
        """Repeat detection, and the recurrence stage timed on its own by
        the public ``is_positive_definite``, which runs the same stage."""
        moments = args[0] if args else kwargs["m"]
        order = min(int(args[1] if len(args) > 1 else kwargs["order"]), 20)
        key = (moments.log_values, order)
        self.gauss_calls += 1
        if key in self._solved:
            self.gauss_repeats += 1
        self._solved.add(key)
        with self.span("measure.gauss.recurrence"):
            moments.is_positive_definite(order)


def aggregate(spans) -> dict:
    """name -> {"calls", "s", "self_s"} over finished spans."""
    child_time = defaultdict(float)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, _parent, _op) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[idx]
    return dict(out)


def merge(into: dict, other: dict) -> dict:
    for name, row in other.items():
        acc = into.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += row[key]
    return into
