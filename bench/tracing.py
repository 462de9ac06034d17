"""Spans around darkstate's public functions, recorded from outside the
package, and the per-layer metrics derived from them.

`install` replaces each target function in every darkstate namespace that
binds it (`darkstate.cli.spectrum_time_domain` as well as
`darkstate.dynamics.spectrum_time_domain`), so calls through any import path
are recorded.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _size(x):
    return int(np.size(x))


def _sweep_attrs(a, k, r):
    return {"metric": a[0].metric, "count": int(a[0].range.split(":")[2])}


#: (module, attribute, attrs(args, kwargs, result) -> dict or None)
TARGETS = (
    ("cli", "_write_csv_spectrum", None),
    ("cli", "_write_json_spectrum", None),
    ("cli", "svg_line_plot", None),
    ("cli", "RunManifest.write", None),
    ("cli", "_sweep_metric", None),
    ("cli", "cmd_sweep", _sweep_attrs),
    ("cli", "cmd_validate", lambda a, k, r: {"target": a[0].preset}),
    ("model", "load_scenario", None),
    ("model", "scenario_to_dict", None),
    ("model", "preset", None),
    ("spectrum", "spectrum_analytic",
     lambda a, k, r: {"points": _size(r.grid)}),
    ("spectrum", "branch_numerator_s", None),
    ("spectrum", "_branch_pole_terms", None),
    ("spectrum", "steady_state_amplitudes", None),
    ("spectrum", "laplace_solve_oracle",
     lambda a, k, r: {"points": _size(a[1])}),
    ("dynamics", "propagate",
     lambda a, k, r: {"samples": _size(r.times),
                      "t_final": float(r.times[-1])}),
    ("dynamics", "solve_ivp", lambda a, k, r: {"nfev": int(r.nfev)}),
    ("dynamics", "trapped_fraction", None),
    ("dynamics", "spectrum_time_domain",
     lambda a, k, r: {"points": _size(r.grid)}),
    ("dynamics", "branch_amplitude_numeric", None),
    ("dynamics", "_filon_linear", lambda a, k, r: {"samples": _size(a[0])}),
    ("analysis", "find_peaks", lambda a, k, r: {"peaks": len(r.peaks)}),
    ("analysis", "compare_spectra", None),
    ("trapping", "fgc_check", None),
    ("trapping", "fgc_solve", None),
)


class Tracer:
    """In-memory span recorder.

    A span is (id, name, start, end, parent id, thread id, operation id,
    attrs); the parent is the innermost open span on the same thread.
    """

    def __init__(self, first_id=1):
        self.spans = []
        self.op = None
        self._ids = itertools.count(first_id)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), self.op,
                               attrs(args, kwargs, result) if attrs else None))
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        """A span around the caller's block (an operation); yields its id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), self.op, attrs))

    def adopt(self, parent_id):
        """Make a span of the parent process the parent of this thread's
        top-level spans."""
        self._stack().append(parent_id)


def install(tracer: Tracer):
    """Wrap every target in every darkstate module that binds it."""
    import darkstate.cli  # noqa: F401  (loads every darkstate module)

    modules = [m for n, m in list(sys.modules.items())
               if n == "darkstate" or n.startswith("darkstate.")]
    for layer, attr, attrs in TARGETS:
        home = sys.modules[f"darkstate.{layer}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{attr}",
                                           getattr(cls, meth), attrs))
            continue
        original = getattr(home, attr)
        traced = tracer.wrap(f"{layer}.{attr}", original, attrs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def span_dicts(spans):
    keys = ("id", "name", "start", "end", "parent", "thread", "op", "attrs")
    return [dict(zip(keys, s)) for s in spans]


def self_times(spans):
    """Span id -> duration minus the time its children on the same thread
    cover (children nest inside their parent, so their durations add)."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


#: per-layer metrics: name -> (span name, statistic)
SPAN_METRICS = {
    "cli._write_csv_spectrum.self_s": ("cli._write_csv_spectrum", "self"),
    "cli._write_json_spectrum.self_s": ("cli._write_json_spectrum", "self"),
    "cli.svg_line_plot.self_s": ("cli.svg_line_plot", "self"),
    "cli.RunManifest.write.self_s": ("cli.RunManifest.write", "self"),
    "cli._sweep_metric.calls": ("cli._sweep_metric", "calls"),
    "cli._sweep_metric.total_s": ("cli._sweep_metric", "total"),
    "cli.cmd_sweep.total_s": ("cli.cmd_sweep", "total"),
    "model.load_scenario.self_s": ("model.load_scenario", "self"),
    "model.scenario_to_dict.self_s": ("model.scenario_to_dict", "self"),
    "model.preset.calls": ("model.preset", "calls"),
    "spectrum.spectrum_analytic.calls": ("spectrum.spectrum_analytic", "calls"),
    "spectrum.spectrum_analytic.self_s": ("spectrum.spectrum_analytic", "self"),
    "spectrum.branch_numerator_s.calls": ("spectrum.branch_numerator_s", "calls"),
    "spectrum.branch_numerator_s.self_s": ("spectrum.branch_numerator_s", "self"),
    "spectrum._branch_pole_terms.calls": ("spectrum._branch_pole_terms", "calls"),
    "spectrum._branch_pole_terms.self_s": ("spectrum._branch_pole_terms", "self"),
    "spectrum.steady_state_amplitudes.self_s":
        ("spectrum.steady_state_amplitudes", "self"),
    "spectrum.grid_points": ("spectrum.spectrum_analytic", "points"),
    "spectrum.laplace_solve_oracle.calls": ("spectrum.laplace_solve_oracle", "calls"),
    "spectrum.laplace_solve_oracle.self_s": ("spectrum.laplace_solve_oracle", "self"),
    "dynamics.propagate.calls": ("dynamics.propagate", "calls"),
    "dynamics.propagate.self_s": ("dynamics.propagate", "self"),
    "dynamics.solve_ivp.nfev": ("dynamics.solve_ivp", "nfev"),
    "dynamics.samples": ("dynamics.propagate", "samples"),
    "dynamics.trapped_fraction.calls": ("dynamics.trapped_fraction", "calls"),
    "dynamics.trapped_fraction.self_s": ("dynamics.trapped_fraction", "self"),
    "dynamics.spectrum_time_domain.calls": ("dynamics.spectrum_time_domain", "calls"),
    "dynamics.spectrum_time_domain.self_s": ("dynamics.spectrum_time_domain", "self"),
    "dynamics.branch_amplitude_numeric.calls":
        ("dynamics.branch_amplitude_numeric", "calls"),
    "dynamics.branch_amplitude_numeric.self_s":
        ("dynamics.branch_amplitude_numeric", "self"),
    "dynamics._filon_linear.calls": ("dynamics._filon_linear", "calls"),
    "dynamics._filon_linear.self_s": ("dynamics._filon_linear", "self"),
    "dynamics.filon.sample_evals": ("dynamics._filon_linear", "samples"),
    "analysis.find_peaks.calls": ("analysis.find_peaks", "calls"),
    "analysis.find_peaks.self_s": ("analysis.find_peaks", "self"),
    "analysis.compare_spectra.self_s": ("analysis.compare_spectra", "self"),
    "analysis.peaks_found": ("analysis.find_peaks", "peaks"),
    "trapping.fgc_check.calls": ("trapping.fgc_check", "calls"),
    "trapping.fgc_check.self_s": ("trapping.fgc_check", "self"),
    "trapping.fgc_solve.calls": ("trapping.fgc_solve", "calls"),
}

#: rows of the ROADMAP baseline table: name -> (span name, attrs to match);
#: each is the median duration of the matching spans
ROWS = {
    "rows.spectrum_analytic_6001_s": ("spectrum.spectrum_analytic",
                                      {"points": 6001}),
    "rows.laplace_solve_oracle_6001_s": ("spectrum.laplace_solve_oracle",
                                         {"points": 6001}),
    "rows.propagate_t60_s": ("dynamics.propagate", {"t_final": 60.0}),
    "rows.propagate_t150_s": ("dynamics.propagate", {"t_final": 150.0}),
    "rows.spectrum_time_domain_1201_s": ("dynamics.spectrum_time_domain",
                                         {"points": 1201}),
    "rows.spectrum_time_domain_6001_s": ("dynamics.spectrum_time_domain",
                                         {"points": 6001}),
    "rows.validate_all_s": ("cli.cmd_validate", {"target": "all"}),
    "rows.sweep_central_area_61_s": ("cli.cmd_sweep",
                                     {"metric": "central_area", "count": 61}),
    "rows.sweep_trapped_fraction_21_s": ("cli.cmd_sweep",
                                         {"metric": "trapped_fraction",
                                          "count": 21}),
}


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics of `passes` traced passes, as per-pass means."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    out = {}
    for metric, (name, stat) in SPAN_METRICS.items():
        group = by_name.get(name, [])
        if stat == "calls":
            value = len(group)
        elif stat == "self":
            value = sum(selfs[s["id"]] for s in group)
        elif stat == "total":
            value = sum(s["end"] - s["start"] for s in group)
        else:
            value = sum(s["attrs"][stat] for s in group)
        out[metric] = value / passes
    sweep_total = out["cli.cmd_sweep.total_s"]
    out["cli.sweep.concurrency"] = (out["cli._sweep_metric.total_s"]
                                    / sweep_total if sweep_total else 0.0)
    for metric, (name, want) in ROWS.items():
        durations = [s["end"] - s["start"] for s in by_name.get(name, [])
                     if all(s["attrs"].get(k) == v for k, v in want.items())]
        out[metric] = statistics.median(durations) if durations else 0.0
    return out
