"""Spans around the calls into each fracfilm module, timed from outside.

The package's modules import each other's functions by name, so a wrapper
must replace the binding the caller looks up: patching
`fracfilm.transport.w2` would miss every call `fracfilm.jko` makes.  Each
entry of `BINDINGS` names the module whose attribute is replaced and the
span name, `<layer>.<function>`, the layer being the module that defines
the function.  Spans are kept in memory and written out once at the end.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager

# (module holding the binding, attribute, span name)
BINDINGS = (
    ("fracfilm.jko", "jko_step", "jko.jko_step"),
    ("fracfilm.jko", "w2", "transport.w2"),
    ("fracfilm.jko", "fractional_laplacian", "spectral.fractional_laplacian"),
    ("fracfilm.jko", "energy_of_values", "spectral.energy_of_values"),
    ("fracfilm.jko", "entropy", "measure.entropy"),
    ("fracfilm.jko", "second_moment", "measure.second_moment"),
    ("fracfilm.jko", "boundary_shell_mass", "measure.boundary_shell_mass"),
    ("fracfilm.analysis", "w2_exact_1d", "transport.w2_exact_1d"),
    ("fracfilm.analysis", "sobolev_norm_sq", "spectral.sobolev_norm_sq"),
    ("fracfilm.analysis", "operator_N", "analysis.operator_N"),
    ("fracfilm.cli", "jko_run", "jko.run"),
    ("fracfilm.cli", "write_run_directory", "scenario.write_run_directory"),
    ("fracfilm.cli", "load_run_directory", "scenario.load_run_directory"),
    ("fracfilm.cli", "check_energy_estimate", "analysis.energy_estimate"),
    ("fracfilm.cli", "check_moment_bound", "analysis.moment_bound"),
    ("fracfilm.cli", "check_entropy_dissipation", "analysis.entropy_dissipation"),
    ("fracfilm.cli", "check_weak_form_step", "analysis.weak_form"),
    ("fracfilm.cli", "check_evi_entropy", "analysis.evi_entropy"),
)

CHECKS = ("energy_estimate", "moment_bound", "entropy_dissipation", "weak_form", "evi_entropy")


def _transport_attrs(args, kwargs, result):
    # result is None when the call raised
    want = kwargs.get("want_potential", args[3] if len(args) > 3 else True)
    if result is None:
        return {"potential": bool(want), "method": None, "iterations": 0}
    return {"potential": bool(want), "method": result.method, "iterations": result.iterations}


class Tracer:
    """Records (name, start, end, parent) spans; `installed` wraps BINDINGS."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent})
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, **attrs):
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stack.pop()

    @contextmanager
    def span(self, name):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _wrap(self, name, fn):
        attrs_of = _transport_attrs if name == "transport.w2" else None

        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sp, error=type(exc).__name__,
                            **(attrs_of(args, kwargs, None) if attrs_of else {}))
                raise
            self._close(sp, **(attrs_of(args, kwargs, result) if attrs_of else {}))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every binding in BINDINGS for the duration of the block."""
        saved = []
        try:
            for modname, attr, name in BINDINGS:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")


def _dur(sp):
    return sp["end"] - sp["start"]


def _layer(sp):
    return sp["name"].split(".", 1)[0]


def counts(spans) -> dict:
    """Calls per span name: the figures that must repeat exactly."""
    out = {}
    for sp in spans:
        out[sp["name"]] = out.get(sp["name"], 0) + 1
    return out


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += _dur(sp)
    return [_dur(sp) - c for sp, c in zip(spans, child)]


def _under(spans, root_name):
    """Index of the (single) span named root_name, and of every span below it."""
    roots = [i for i, sp in enumerate(spans) if sp["name"] == root_name]
    if len(roots) != 1:
        raise ValueError(f"expected one {root_name!r} span, found {len(roots)}")
    root = roots[0]
    inside = []
    for i, sp in enumerate(spans):
        p = sp["parent"]
        while p is not None and p != root:
            p = spans[p]["parent"]
        if p == root:
            inside.append(i)
    return root, inside


def run_phase_metrics(spans, accepted_total: int, steps: int) -> dict:
    """Per-layer figures of one traced `run` (all steps plus the write)."""
    root, inside = _under(spans, "cli.run")
    selfs = self_times(spans)
    run_s = _dur(spans[root])
    busy = {"transport": 0.0, "spectral": 0.0, "measure": 0.0, "jko": 0.0, "scenario": 0.0}
    calls = dict.fromkeys(busy, 0)
    pot = [spans[i] for i in inside if spans[i]["name"] == "transport.w2" and spans[i]["potential"]]
    val = [spans[i] for i in inside if spans[i]["name"] == "transport.w2" and not spans[i]["potential"]]
    sink = [sp for sp in pot + val if sp["method"] == "sinkhorn"]
    for i in inside:
        layer = _layer(spans[i])
        calls[layer] += 1
        # layers do not nest in each other below jko, so busy = sum of spans
        busy[layer] += selfs[i] if layer == "jko" else _dur(spans[i])
    failures = sum(1 for sp in pot + val if sp.get("error") == "ConvergenceError")
    tcalls = len(pot) + len(val)
    step_s = [_dur(spans[i]) for i in inside if spans[i]["name"] == "jko.jko_step"]
    sink_iters = sum(sp["iterations"] for sp in sink)

    def per(total, n, scale=1.0):
        return total * scale / n if n else 0.0

    return {
        "transport.potential_calls": len(pot),
        "transport.value_calls": len(val),
        "transport.busy_s": busy["transport"],
        "transport.share": per(busy["transport"], run_s),
        "transport.us_per_potential_call": per(sum(map(_dur, pot)), len(pot), 1e6),
        "transport.us_per_value_call": per(sum(map(_dur, val)), len(val), 1e6),
        "transport.sinkhorn_iters": sink_iters,
        "transport.sinkhorn_iters_per_call": per(sink_iters, len(sink)),
        "transport.failures": failures,
        "jko.steps": len(step_s),
        "jko.gradient_evals_per_step": per(len(pot), steps),
        "jko.objective_evals_per_step": per(len(val), steps),
        "jko.accepted_per_step": per(accepted_total, steps),
        "jko.accept_ratio": per(accepted_total, tcalls),
        "jko.self_s": busy["jko"],
        "jko.step_s.p50": statistics.median(step_s) if step_s else 0.0,
        "spectral.calls": calls["spectral"],
        "spectral.busy_s": busy["spectral"],
        "spectral.us_per_call": per(busy["spectral"], calls["spectral"], 1e6),
        "spectral.share": per(busy["spectral"], run_s),
        "measure.calls": calls["measure"],
        "measure.busy_s": busy["measure"],
        "scenario.write_s": busy["scenario"],
        "cli.self_s": selfs[root],
        "run_s": run_s,
    }


def verify_phase_metrics(spans) -> dict:
    """Per-layer figures of one traced `verify` (load plus every check)."""
    root, inside = _under(spans, "cli.verify")
    selfs = self_times(spans)
    out = {f"analysis.{c}_s": 0.0 for c in CHECKS}
    out["analysis.self_s"] = 0.0
    out["scenario.load_s"] = 0.0
    for i in inside:
        name = spans[i]["name"]
        if name == "scenario.load_run_directory":
            out["scenario.load_s"] += _dur(spans[i])
        elif _layer(spans[i]) == "analysis":
            if name != "analysis.operator_N":
                out[f"{name}_s"] += _dur(spans[i])
            out["analysis.self_s"] += selfs[i]
    out["analysis.busy_s"] = sum(out[f"analysis.{c}_s"] for c in CHECKS)
    out["verify_s"] = _dur(spans[root])
    return out
