"""Per-layer spans recorded from outside the package.

A :class:`Tracer` replaces the public functions named in :data:`SPANS` with
timing wrappers, in the module that defines each one and in every
``qgeodesic`` module that bound it by ``from ... import``.  It also wraps the
validating ``__post_init__`` of ``StateVector`` and ``ProbabilityPath``.
Leaving the ``with`` block restores every original binding.

Each span's self time is its duration minus the durations of the wrapped
spans nested in it.  Counters are read from arguments and return values, so
the package itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

SPANS = {
    "states": ("measure_register", "qft", "phase_flip", "invert_about_average"),
    "grover": ("run_grover", "grover_step", "analytic_trajectory"),
    "geometry": ("integrate_geodesic", "action", "fisher_discrete",
                 "geodesic_residual_profile"),
    "period": ("build_register", "shor_sample", "shor_period", "grover_period",
               "marked_arguments", "compare_methods", "factor"),
    "cli": ("main", "cmd_grover_trace", "cmd_geodesic_check", "cmd_compare",
            "cmd_factor"),
}

# Classes whose __post_init__ validates every instance; its span is reported
# as ``<layer>.<class>.validate_s``.
VALIDATORS = {"states": "StateVector", "paths": "ProbabilityPath"}


def _period_counts(method):
    def count(args, result):
        counts = {
            "period.oracle_calls": result.oracle_calls,
            "period.measurements": result.measurements,
            f"period.{method}.successes": int(result.succeeded),
        }
        if method == "grover":
            counts["period.grover.rounds"] = result.attempts
        return counts
    return count


# Counters per span, from the wrapped call's arguments and result.
COUNTERS = {
    "states.StateVector": lambda args, result: {
        "states.StateVector.constructed": 1,
        "states.StateVector.amplitudes": args[0].amplitudes.size},
    "paths.ProbabilityPath": lambda args, result: {
        "paths.ProbabilityPath.constructed": 1,
        "paths.ProbabilityPath.cells": args[0].probs.size},
    "states.qft": lambda args, result: {"states.qft.amplitudes": result.dim},
    "grover.run_grover": lambda args, result: {
        "grover.run_grover.cells": result.probs.size},
    "grover.analytic_trajectory": lambda args, result: {
        "grover.analytic_trajectory.cells": result.probs.size},
    "geometry.integrate_geodesic": lambda args, result: {
        "geometry.integrate_geodesic.steps": len(result) - 1,
        "geometry.integrate_geodesic.cells": len(result) * result[0].x.size},
    "geometry.fisher_discrete": lambda args, result: {
        "geometry.fisher_discrete.samples": len(result)},
    "period.build_register": lambda args, result: {
        "period.build_register.amplitudes": result.dim},
    "period.shor_period": _period_counts("shor"),
    "period.grover_period": _period_counts("grover"),
}


class Tracer:
    """Context manager that records spans and counters while it is entered."""

    def __init__(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, time_key: str, fn):
        count = COUNTERS.get(span)
        calls_key = f"{span}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.times[time_key] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            self.counts[calls_key] += 1
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [module for name, module in sys.modules.items()
                   if name == "qgeodesic" or name.startswith("qgeodesic.")]
        try:
            for layer, names in SPANS.items():
                home = importlib.import_module(f"qgeodesic.{layer}")
                for name in names:
                    original = getattr(home, name)
                    span = f"{layer}.{name}"
                    wrapper = self._wrap(span, f"{span}.self_s", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, attr, wrapper)
            for layer, cls_name in VALIDATORS.items():
                cls = getattr(importlib.import_module(f"qgeodesic.{layer}"), cls_name)
                span = f"{layer}.{cls_name}"
                self._patch(cls, "__post_init__", self._wrap(
                    span, f"{span}.validate_s", vars(cls)["__post_init__"]))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self._restore()
        return False

    def metrics(self) -> dict[str, float]:
        """Self times and counters, plus the two useful-outcome ratios."""
        values = {**self.times, **self.counts}
        shor_calls = self.counts["period.shor_sample.calls"]
        rounds = self.counts["period.grover.rounds"]
        values["period.shor.useful_ratio"] = (
            self.counts["period.shor.successes"] / shor_calls if shor_calls else 0.0)
        values["period.grover.useful_ratio"] = (
            self.counts["period.grover.successes"] / rounds if rounds else 0.0)
        return values
