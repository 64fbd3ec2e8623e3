"""Span tracing around calls into hessball's public functions.

The tracer wraps functions at run time and edits nothing in the package.
Modules import names directly (``from .operators import apply_composite``),
so a wrapper must replace every module's own binding of a function, not
just the defining one.  Spans nest on a stack: a span's self time is its
duration minus the durations of its child spans.  Spans are aggregated per
name in memory as they close.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter_ns

MODULES = ("core", "operators", "solver", "analysis", "verify", "cli")


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counts: Counter = field(default_factory=Counter)


def _picard(stats: SpanStats, report) -> None:
    stats.counts["iterations"] += report.iterations
    stats.counts["converged"] += report.status.value == "converged"


def _power(stats: SpanStats, result) -> None:
    stats.counts["iterations"] += result.iterations


def _scan(stats: SpanStats, profile) -> None:
    stats.counts["radii"] += len(profile.radii)
    stats.counts["shape_converged"] += sum(profile.converged)
    stats.counts["roots"] += len(profile.roots)
    stats.counts["accepted"] += sum(s is not None for s in profile.solutions)


def _verification(stats: SpanStats, report) -> None:
    stats.counts["passed"] += report.passed


# (span name, module, attribute path, reads work counts from the return value)
TARGETS = (
    ("core.GridFunction", "core", "GridFunction.__post_init__", None),
    ("core.eval_nonlinearity", "core", "eval_nonlinearity", None),
    ("operators.apply_operator", "operators", "apply_operator", None),
    ("operators.apply_composite", "operators", "apply_composite", None),
    ("operators.QuadratureTable.weighted_cumulative", "operators",
     "QuadratureTable.weighted_cumulative", None),
    ("operators.QuadratureTable.tail", "operators", "QuadratureTable.tail", None),
    ("operators.radial_hessian", "operators", "radial_hessian", None),
    ("operators.hessian_eigenvalues", "operators", "hessian_eigenvalues", None),
    ("solver.picard_solve", "solver", "picard_solve", _picard),
    ("solver.normalized_power_iteration", "solver", "normalized_power_iteration",
     _power),
    ("solver.norm_profile_scan", "solver", "norm_profile_scan", _scan),
    ("solver.make_bundle", "solver", "make_bundle", None),
    ("analysis.classify_growth", "analysis", "classify_growth", None),
    ("analysis.cone_check", "analysis", "cone_check", None),
    ("analysis.admissibility_check", "analysis", "admissibility_check", None),
    ("analysis.multiplicity_thresholds", "analysis", "multiplicity_thresholds",
     None),
    ("verify.verify_solution", "verify", "verify_solution", _verification),
    ("verify.ode_residual", "verify", "ode_residual", None),
    ("cli.load_config", "cli", "load_config", None),
    ("cli.run_scenario", "cli", "run_scenario", None),
)


class Tracer:
    """Installs span wrappers into the hessball modules and removes them."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"hessball.{name}")
                        for name in MODULES}
        self.bindings = [importlib.import_module("hessball"), *self.modules.values()]
        self.stats = {name: SpanStats() for name, *_ in TARGETS}
        self.nested = Counter()  # (outer span, inner span) -> inner calls
        self._stack: list[list] = []  # [name, child_ns] per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, inspect):
        stats = self.stats[name]
        stack = self._stack
        nested = self.nested

        @wraps(fn)
        def traced(*args, **kwargs):
            for outer, _ in stack:
                nested[outer, name] += 1
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if inspect is not None:
                inspect(stats, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module, path, inspect in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(self.modules[module], owner_name)
                self._set(owner, attr, self._wrap(name, owner.__dict__[attr], inspect))
                continue
            original = getattr(self.modules[module], attr)
            wrapper = self._wrap(name, original, inspect)
            for mod in self.bindings:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
