"""Span tracing for one benchmark operation, installed from outside the package.

`install()` replaces the public functions of the gaugeflow modules with
wrappers that record a span per call: name, start, end, parent span, operation
id and the grid resolution found in the call's arguments.  A function bound by
name in another module (``connection`` imports ``map_gradient`` directly,
``cli`` imports ``load_config``) is replaced there too, so every call path is
seen.  The ``numpy.fft`` transforms are counted the same way, with the bytes
of the array handed to them.  Spans stay in memory until `dump()` writes them
out when the operation ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types

import numpy as np

MODULES = ("forms", "lorentz", "maps", "connection", "synth", "gauge",
           "solver", "verify", "fieldio", "pipeline", "config")

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

RUNG = "study.rung"


def _grid_res(value):
    """Grid resolution carried by a call argument, or None."""
    for path in (("grid", "res"), ("res",), ("a", "grid", "res"),
                 ("P", "grid", "res")):
        obj = value
        for attr in path:
            obj = getattr(obj, attr, None)
            if obj is None:
                break
        if isinstance(obj, int):
            return obj
    return None


def _args_res(args, kwargs):
    for value in itertools.chain(args, kwargs.values()):
        res = _grid_res(value)
        if res is not None:
            return res
    return None


def _field_bytes(args, kwargs):
    field = args[1] if len(args) > 1 else kwargs.get("field")
    arr = getattr(field, "coeffs", None)
    if arr is None:
        arr = getattr(field, "values", None)
    return 0 if arr is None else int(arr.nbytes)


class Tracer:
    """Spans and FFT counters of one operation, recorded from every thread."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans = []
        self.fft_calls = 0
        self.fft_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, res=None, parent=None, extra=None):
        """Run fn inside a span; `parent` overrides the calling thread's stack."""
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else None
        if res is None:
            res = _args_res(args, kwargs)
        stack.append(span_id)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "op": self.op_id, "res": res}
            if extra is not None:
                record.update(extra(args, kwargs, result))
            self.spans.append(record)
        return result

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def count_fft(self, arr):
        nbytes = int(np.asarray(arr).nbytes)
        with self._lock:
            self.fft_calls += 1
            self.fft_bytes += nbytes

    def dump(self, path):
        doc = {"op": self.op_id, "fft_calls": self.fft_calls,
               "fft_bytes": self.fft_bytes, "spans": self.spans}
        with open(path, "w") as handle:
            json.dump(doc, handle)


_EXTRAS = {
    "fieldio.write_field":
        lambda args, kwargs, result: {"bytes": _field_bytes(args, kwargs)},
    "maps.heat_flow_relax":
        lambda args, kwargs, result: {"steps": int(kwargs.get(
            "steps", args[2] if len(args) > 2 else 100))},
    "gauge.minimize_gauge":
        lambda args, kwargs, result: {"iterations": (
            result.diagnostics.iterations if result is not None else 0)},
}


def _wrap(tracer, name, fn):
    extra = _EXTRAS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, extra=extra)

    return traced


def _wrap_study(tracer, fn):
    # The study evaluates each rung through a callback, on the study's thread
    # pool; a span per rung carries the rung's resolution and hangs under the
    # convergence_study span whichever thread runs it.
    @functools.wraps(fn)
    def traced(evaluate, resolutions, *args, **kwargs):
        owner = tracer.current()

        def rung(res):
            return tracer.call(RUNG, evaluate, (res,), {}, res=int(res),
                               parent=owner)

        return fn(rung, resolutions, *args, **kwargs)

    return _wrap(tracer, "verify.convergence_study", traced)


def _wrap_fft(tracer, fn):
    @functools.wraps(fn)
    def counted(a, *args, **kwargs):
        tracer.count_fft(a)
        return fn(a, *args, **kwargs)

    return counted


def install(op_id: str) -> Tracer:
    """Wrap every public gaugeflow function and the numpy FFTs; returns the tracer."""
    import gaugeflow.cli  # noqa: F401  (imports every module below)

    tracer = Tracer(op_id)
    replaced = {}
    for short in MODULES:
        module = sys.modules[f"gaugeflow.{short}"]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            if name == "verify.convergence_study":
                replaced[id(fn)] = _wrap_study(tracer, fn)
            else:
                replaced[id(fn)] = _wrap(tracer, name, fn)
    for module_name, module in list(sys.modules.items()):
        if module_name != "gaugeflow" and not module_name.startswith("gaugeflow."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced and isinstance(value, types.FunctionType):
                setattr(module, attr, replaced[id(value)])

    solver = sys.modules["gaugeflow.solver"]
    post_init = solver.PairState.__post_init__
    solver.PairState.__post_init__ = _wrap(tracer, "solver.PairState", post_init)

    for attr in FFT_NAMES:
        setattr(np.fft, attr, _wrap_fft(tracer, getattr(np.fft, attr)))
    return tracer


# Per-layer metrics of one traced operation: (name, unit, better).  `.s` is
# inclusive time, `.self_s` that time minus what child spans cover, `.calls`
# a count.
STAT_METRICS = (
    ("forms.exterior_derivative", ("calls", "s", "self_s")),
    ("forms.codifferential", ("calls", "s")),
    ("forms.solve_poisson", ("calls", "s")),
    ("forms.project_closed", ("calls", "s")),
    ("forms.wedge", ("calls", "self_s")),
    ("forms.laplacian", ("calls", "s")),
    ("forms.harmonic_part", ("calls", "s")),
    ("lorentz.lorentz_norm", ("calls", "s", "self_s")),
    ("maps.heat_flow_relax", ("s", "self_s")),
    ("maps.map_gradient", ("calls",)),
    ("maps.dirichlet_energy", ("calls",)),
    ("maps.tension_residual", ("s",)),
    ("connection.omega_sphere", ("s",)),
    ("synth.synthetic_connection", ("s",)),
    ("synth.random_matrix_form", ("calls", "s")),
    ("gauge.minimize_gauge", ("s", "self_s")),
    ("gauge.extract_xi", ("s",)),
    ("gauge.so_exp", ("calls",)),
    ("solver.solve_pair", ("s",)),
    ("solver.picard_step", ("calls", "s", "self_s")),
    ("solver.state_norm", ("calls", "s")),
    ("solver.gradient_norm", ("calls", "s")),
    ("solver.PairState", ("calls", "s")),
    ("solver.random_state", ("s",)),
    ("solver.pair_residual", ("s",)),
    ("verify.conservation_residual", ("s",)),
    ("verify.sphere_divergence_residual", ("s",)),
    ("verify.bound_ratios", ("s",)),
    ("verify.convergence_study", ("s",)),
    ("fieldio.write_field", ("calls", "s")),
    ("config.load_config", ("s",)),
    ("pipeline.run", ("s",)),
)
_STAT_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"),
               "self_s": ("s", "lower")}
STUDY_RESOLUTIONS = (8, 16, 32)

PER_LAYER = tuple(
    (f"{name}.{stat}",) + _STAT_UNITS[stat]
    for name, stats in STAT_METRICS for stat in stats
) + (
    ("numpy.fft.calls", "count", "lower"),
    ("numpy.fft.mb", "MB", "lower"),
    ("maps.heat_flow.trials_per_step", "ratio", "lower"),
    ("gauge.accepted_per_trial", "ratio", "higher"),
    ("fieldio.write_field.mb", "MB", "lower"),
) + tuple((f"study.res{res}.s", "s", "lower") for res in STUDY_RESOLUTIONS) + (
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def load(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(doc: dict) -> dict:
    """Per-layer metrics of one traced operation (all but trace.overhead_s)."""
    spans = doc["spans"]
    by_id = {span["id"]: span for span in spans}
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    def ancestors(span):
        parent = by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = by_id.get(parent["parent"])

    calls, inclusive, self_time = {}, {}, {}
    for span in spans:
        name, dur = span["name"], span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        # a name nested in itself is counted once, at its outermost call
        if all(a["name"] != name for a in ancestors(span)):
            inclusive[name] = inclusive.get(name, 0.0) + dur
        kids = [(c["start"], c["end"]) for c in children.get(span["id"], ())]
        self_time[name] = (self_time.get(name, 0.0)
                           + dur - _covered(span["start"], span["end"], kids))

    metrics = {}
    for name, stats in STAT_METRICS:
        table = {"calls": calls, "s": inclusive, "self_s": self_time}
        for stat in stats:
            metrics[f"{name}.{stat}"] = table[stat].get(name, 0)

    def under(span, name):
        return any(a["name"] == name for a in ancestors(span))

    steps = sum(s["steps"] for s in spans if s["name"] == "maps.heat_flow_relax")
    energies = sum(1 for s in spans if s["name"] == "maps.dirichlet_energy"
                   and under(s, "maps.heat_flow_relax"))
    flows = calls.get("maps.heat_flow_relax", 0)
    accepted = sum(s["iterations"] for s in spans if s["name"] == "gauge.minimize_gauge")
    trials = calls.get("gauge.so_exp", 0)
    metrics.update({
        "numpy.fft.calls": doc["fft_calls"],
        "numpy.fft.mb": doc["fft_bytes"] / 1e6,
        "maps.heat_flow.trials_per_step": (energies - flows) / steps if steps else 0.0,
        "gauge.accepted_per_trial": accepted / trials if trials else 0.0,
        "fieldio.write_field.mb": sum(
            s["bytes"] for s in spans if s["name"] == "fieldio.write_field") / 1e6,
    })
    for res in STUDY_RESOLUTIONS:
        metrics[f"study.res{res}.s"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == RUNG and s["res"] == res)
    return metrics
