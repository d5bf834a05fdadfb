"""Per-layer timing of depin, taken from outside the program.

The layers are the modules of ``src/depin``.  Their public functions are
wrapped from here; because the modules import each other's functions by
name (``from .engine import log_partition_pinning``), every binding of an
original function in every loaded ``depin`` module is replaced, and put
back on exit.  Each call records a span (name, layer group, start, end,
parent); spans stay in memory until the run ends.  A span's self time is
its duration minus the durations of its child spans, so the self times of
all spans under a root add up to the root's duration.

Only calls made in the timing process are seen, so traced runs set
DEPIN_THREADS=1.
"""

import functools
import inspect
import resource
import sys
import time
from contextlib import contextmanager

# (module, function names, group); groups become the per-layer metrics
WRAPPED = (
    ("kernel", ("srw_kernel", "power_kernel", "geometric_kernel", "kernel_from_file"),
     "kernel"),
    ("pure_solver", ("solve_free_energy_pure", "pure_asymptotics"), "pure_solver"),
    ("disorder", ("sample_disorder",), "disorder"),
    ("engine", ("log_partition_pinning",), "engine.pinning"),
    ("engine", ("log_partition_copolymer",), "engine.copolymer"),
    ("engine", ("log_partition_constrained",), "engine.constrained"),
    ("engine", ("constrained_window",), "engine.window"),
    ("estimator", ("estimate_free_energy", "estimate_phi"), "estimator"),
    ("analysis", ("locate_hc",), "analysis.hc"),
    ("analysis", ("smoothing_check",), "analysis.smooth"),
    ("analysis", ("critical_power_fit", "fit_exponent", "extrapolate_free_energy",
                  "select_fit_points"), "analysis.fit"),
    ("cli", ("run",), "cli"),
)

# name, unit; the per-layer metrics in the order they are printed
METRICS = (
    ("kernel.build_s", "s"), ("kernel.builds", "count"),
    ("pure_solver.solve_s", "s"), ("pure_solver.solves", "count"),
    ("disorder.sample_s", "s"), ("disorder.draws", "count"),
    ("disorder.ns_per_draw", "ns"),
    ("engine.pinning_s", "s"), ("engine.pinning_calls", "count"),
    ("engine.pinning_cells", "count"), ("engine.pinning_ns_per_cell", "ns"),
    ("engine.copolymer_s", "s"), ("engine.copolymer_calls", "count"),
    ("engine.copolymer_cells", "count"), ("engine.copolymer_ns_per_cell", "ns"),
    ("engine.constrained_s", "s"), ("engine.constrained_calls", "count"),
    ("engine.constrained_cells", "count"), ("engine.constrained_ns_per_cell", "ns"),
    ("engine.constrained_sys_s", "s"), ("engine.constrained_minflt", "count"),
    ("engine.constrained_table_mb", "MB"),
    ("estimator.self_s", "s"), ("estimator.calls", "count"),
    ("analysis.probes", "count"), ("analysis.hc_s", "s"),
    ("analysis.fit_s", "s"), ("analysis.fit_calls", "count"), ("analysis.self_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("bench.self_s", "s"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
)


def window_cells(n: int, period: int, n_max: int) -> int:
    """(step, window atom) pairs of one renewal recursion:
    sum over t = 1..N/s of min(t, n_max)."""
    t_max = n // period
    w = min(t_max, n_max)
    return w * (w + 1) // 2 + (t_max - w) * w


def _model_cells(bound) -> int:
    kern = bound.arguments["model"].kernel
    return window_cells(bound.arguments["n"], kern.period, kern.n_max)


def _table_bytes(bound) -> int:
    model, n = bound.arguments["model"], bound.arguments["n"]
    rows = n // model.kernel.period + 1
    cols = rows if model.kind == "pinning" else n + 1
    return 8 * rows * cols


# extra figures recorded per call, from the bound arguments and the result
_EXTRAS = {
    "sample_disorder": lambda b, r: {"draws": b.arguments["n"]},
    "log_partition_pinning": lambda b, r: {"cells": _model_cells(b)},
    "log_partition_copolymer": lambda b, r: {"cells": _model_cells(b)},
    "log_partition_constrained": lambda b, r: {"cells": _model_cells(b),
                                               "table_bytes": _table_bytes(b)},
    "locate_hc": lambda b, r: {"probes": len(r.points)},
}
_RUSAGE = {"log_partition_constrained"}


class Tracer:
    """In-memory span recorder.

    A span is [name, group, start, end, parent index, child time, extras].
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, group: str):
        rec = self._open(name, group)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name, group):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, group, time.perf_counter(), None, parent, 0.0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()
        if rec[4] >= 0:
            self.spans[rec[4]][5] += rec[3] - rec[2]

    def _wrap(self, fn, group):
        name = fn.__name__
        sig = inspect.signature(fn)
        extras = _EXTRAS.get(name)
        rusage = name in _RUSAGE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rusage:
                ru0 = resource.getrusage(resource.RUSAGE_SELF)
            rec = self._open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if extras:
                rec[6] = extras(sig.bind(*args, **kwargs), result)
            if rusage:
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
                rec[6]["sys_s"] = ru1.ru_stime - ru0.ru_stime
                rec[6]["minflt"] = ru1.ru_minflt - ru0.ru_minflt
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every wrapped function in every loaded depin module."""
        import depin  # noqa: F401  (the modules below must be loaded)

        replace = {}
        for module, names, group in WRAPPED:
            mod = sys.modules[f"depin.{module}"]
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = (fn, self._wrap(fn, group))
        mods = [m for key, m in list(sys.modules.items())
                if key == "depin" or key.startswith("depin.")]
        undo = []
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in replace and replace[id(val)][0] is val:
                    setattr(mod, attr, replace[id(val)][1])
                    undo.append((mod, attr, val))
        try:
            yield self
        finally:
            for mod, attr, val in undo:
                setattr(mod, attr, val)

    def records(self, first: int = 0):
        """Spans from index first on, as dicts with their self time."""
        out = []
        for name, group, t0, t1, parent, child, extra in self.spans[first:]:
            out.append({"name": name, "group": group, "start": t0, "end": t1,
                        "parent": parent, "self_s": (t1 - t0) - child, **extra})
        return out


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one round from its span records (root included)."""
    agg = {}
    for sp in spans:
        g = agg.setdefault(sp["group"], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        g["self_s"] += sp["self_s"]
        g["total_s"] += sp["end"] - sp["start"]
        g["calls"] += 1
        for key in ("draws", "cells", "probes", "sys_s", "minflt"):
            if key in sp:
                g[key] = g.get(key, 0) + sp[key]
        if "table_bytes" in sp:
            g["table_bytes"] = max(g.get("table_bytes", 0), sp["table_bytes"])

    def get(group, key):
        return agg.get(group, {}).get(key, 0)

    def per(num_s, count):
        return 1e9 * num_s / count if count else 0.0

    m = {
        "kernel.build_s": get("kernel", "self_s"),
        "kernel.builds": get("kernel", "calls"),
        "pure_solver.solve_s": get("pure_solver", "self_s"),
        "pure_solver.solves": get("pure_solver", "calls"),
        "disorder.sample_s": get("disorder", "self_s"),
        "disorder.draws": get("disorder", "draws"),
        "estimator.self_s": get("estimator", "self_s"),
        "estimator.calls": get("estimator", "calls"),
        "analysis.probes": get("analysis.hc", "probes"),
        "analysis.hc_s": get("analysis.hc", "total_s"),
        "analysis.fit_s": get("analysis.fit", "self_s"),
        "analysis.fit_calls": get("analysis.fit", "calls"),
        "analysis.self_s": get("analysis.hc", "self_s") + get("analysis.smooth", "self_s"),
        "cli.self_s": get("cli", "self_s"),
        "bench.self_s": get("bench", "self_s"),
        "trace.wall_s": get("bench", "total_s"),
    }
    m["disorder.ns_per_draw"] = per(m["disorder.sample_s"], m["disorder.draws"])
    for kind in ("pinning", "copolymer", "constrained"):
        g = f"engine.{kind}"
        m[f"{g}_s"] = get(g, "self_s")
        m[f"{g}_calls"] = get(g, "calls")
        m[f"{g}_cells"] = get(g, "cells")
        m[f"{g}_ns_per_cell"] = per(m[f"{g}_s"], m[f"{g}_cells"])
    m["engine.constrained_s"] += get("engine.window", "self_s")
    m["engine.constrained_sys_s"] = get("engine.constrained", "sys_s")
    m["engine.constrained_minflt"] = get("engine.constrained", "minflt")
    m["engine.constrained_table_mb"] = get("engine.constrained", "table_bytes") / 1e6
    return m
