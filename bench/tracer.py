"""Layer spans recorded from outside the package.

`Tracer.install()` wraps the public functions named in LAYERS and patches
every `whfactor` namespace that holds them (`cli.run_factorization`,
`engine.hoelder_norm`, `cauchy._sample`, ...), so calls made through any
import path are seen. Spans stay in memory as (name, start, end, parent,
op) rows; `summarize()` turns them into per-layer calls, busy time and self
time. NumPy FFT calls made from `whfactor.cauchy` are counted through a
proxy of that module's `np`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

import numpy as np

# metric prefix -> (module, attribute); "Class.method" patches the class
LAYERS = {
    "example2x2.first_step_factors": ("example2x2", "first_step_factors"),
    "grid.sample": ("grid", "sample"),
    "evaluators.closed_form_eval": ("evaluators", "ClosedForm.__call__"),
    "grid.hoelder_norm": ("grid", "hoelder_norm"),
    "engine.convergence_constant": ("engine", "convergence_constant"),
    "engine.c_mu_lower_bound": ("engine", "c_mu_lower_bound"),
    "cli.run": ("cli", "run"),
    "cli.parse_config": ("cli", "parse_config"),
    "rbvp.solve_step": ("rbvp", "solve_step"),
    "rbvp.shift_density": ("rbvp", "shift_density"),
    "cauchy.mode_split": ("cauchy", "mode_split"),
    "cauchy.plus_coefficient_sum": ("cauchy", "plus_coefficient_sum"),
    "cauchy.limit_estimate": ("cauchy", "limit_estimate"),
    "engine.next_remainder": ("engine", "next_remainder"),
    "engine.run_factorization": ("engine", "run_factorization"),
    "engine.residual_sup_at": ("engine", "FactorizationResult.residual_sup_at"),
    "cauchy.resample": ("cauchy", "resample"),
    "cauchy.cauchy_off_line": ("cauchy", "cauchy_off_line"),
    "engine.check_factor_conditions": ("engine", "check_factor_conditions"),
}

COUNTERS = (
    "cauchy.fft.calls",
    "cauchy.fft.points",
    "cauchy.fft.bytes_computed",
    "engine.steps",
    "engine.order_reached",
    "engine.order_requested",
)


class Tracer:
    """Span recorder for one process; `enabled` gates recording per op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = {}  # op id -> {counter: value}
        self.op = None
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id, enabled=True):
        self.op = op_id
        self.enabled = enabled
        if enabled:
            self.counts[op_id] = dict.fromkeys(COUNTERS, 0)

    def end_op(self):
        self.op = None
        self.enabled = False

    def count(self, key, value):
        if self.enabled:
            self.counts[self.op][key] += value

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            row = [name, time.perf_counter(), 0.0, parent, self.op]
            self.spans.append(row)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self.stack.pop()
            if name == "engine.run_factorization":
                self.count("engine.steps", len(result.steps))
                self.count("engine.order_reached", result.order_reached)
                self.count("engine.order_requested", result.order)
            return result

        return wrapper

    def _fft_proxy(self):
        real_fft = np.fft

        def counted(fn):
            def call(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                self.count("cauchy.fft.calls", 1)
                self.count("cauchy.fft.points", int(np.size(a)))
                self.count("cauchy.fft.bytes_computed", int(np.asarray(a).nbytes + out.nbytes))
                return out

            return call

        fft_ns = types.ModuleType("numpy.fft")
        fft_ns.__getattr__ = lambda attr: getattr(real_fft, attr)
        fft_ns.fft = counted(real_fft.fft)
        fft_ns.ifft = counted(real_fft.ifft)
        np_ns = types.ModuleType("numpy")
        np_ns.__getattr__ = lambda attr: getattr(np, attr)
        np_ns.fft = fft_ns
        return np_ns

    def install(self):
        """Wrap every layer function in every whfactor namespace holding it."""
        for mod_name, _ in LAYERS.values():
            importlib.import_module(f"whfactor.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == "whfactor" or n.startswith("whfactor.")]
        for name, (mod_name, attr) in LAYERS.items():
            mod = sys.modules[f"whfactor.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        sys.modules["whfactor.cauchy"].np = self._fft_proxy()

    # -- reduction ---------------------------------------------------------

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}


def summarize(dumps):
    """Per-op means of calls, busy and self seconds per layer, and counters.

    `dumps` holds Tracer.dump() results, each from one process. Busy time
    counts a layer's outermost spans only; self time is a span's duration
    minus the part its child spans cover.
    """
    totals = {}
    ops = set()
    counter_totals = dict.fromkeys(COUNTERS, 0)
    for dump in dumps:
        spans = dump["spans"]
        for op_id, counts in dump["counts"].items():
            ops.add(op_id)
            for key, value in counts.items():
                counter_totals[key] += value
        # one thread per process, so the children of a span are disjoint
        covered = [0.0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _op) in enumerate(spans):
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                t[1] += end - start
            t[2] += (end - start) - covered[i]
    n_ops = max(len(ops), 1)
    metrics = {}
    for name in LAYERS:
        calls, busy, self_s = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls / n_ops
        metrics[f"{name}.busy_s"] = busy / n_ops
        metrics[f"{name}.self_s"] = self_s / n_ops
    for key in COUNTERS:
        metrics[key] = counter_totals[key] / n_ops
    return metrics

