"""Outside-in span tracer for peanobsde's layers.

The benchmark wraps the public functions of each module from its own files;
nothing in the package is edited. Modules bind each other's functions with
``from .x import f``, so a wrapper is installed under every module-level name
that holds the original, not only in the defining module. Calls to
``PeanoFunction.__call__`` and ``scipy.integrate.quad`` are counted, not
spanned, and each count is attributed to the innermost open span.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` rows
(``parent`` is the index of the enclosing span, -1 at top level) and are
written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name); several functions may share one span name
LAYERS = (
    ("peanobsde.cli", "parse_config", "cli.parse"),
    ("peanobsde.cli", "run", "cli.run"),
    ("peanobsde.engine", "simulate_brownian", "engine.simulate"),
    ("peanobsde.engine", "conditional_expectation", "engine.regress"),
    ("peanobsde.engine", "girsanov_weights", "engine.girsanov"),
    ("peanobsde.solver", "solve_backward_euler", "solver.solve"),
    ("peanobsde.solver", "maximal_solution", "solver.solve"),
    ("peanobsde.solver", "solve_deterministic_ode", "solver.ode"),
    ("peanobsde.solver", "assumption_audit", "solver.audit"),
    ("peanobsde.control", "f_star", "control.f_star"),
    ("peanobsde.control", "solve_controlled", "control.controlled"),
    ("peanobsde.control", "feedback_control", "control.duality"),
    ("peanobsde.control", "duality_gap", "control.duality"),
    ("peanobsde.control", "lower_bound_certificate", "control.certificate"),
    ("peanobsde.transform", "solve_special", "transform.solve"),
    ("peanobsde.transform", "special_driver", "transform.driver"),
    ("peanobsde.transform", "transformed_generator", "transform.driver"),
    ("peanobsde.transform", "theta_difference_check", "transform.theta"),
    ("peanobsde.peano", "conjugate", "peano"),
    ("peanobsde.peano", "integral_H", "peano"),
    ("peanobsde.peano", "inverse_H", "peano"),
    ("peanobsde.peano", "classify", "peano"),
    ("peanobsde.peano", "growth_bound_check", "peano"),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in LAYERS))
TOP = "top"  # attribution for counts made outside every span


def design_shape(ensemble, target, step, degree=None, full_output=False):
    """(rows, columns) of the design matrix one conditional_expectation
    call builds, computed from its arguments by engine.basis_matrix's rule."""
    rows = ensemble.paths
    if step == 0:
        return rows, 1
    d = ensemble.dim
    if degree is None:
        degree = 3 if d == 1 else 2
    if d == 1:
        return rows, degree + 1
    return rows, 1 + d + (d * (d + 1) // 2 if degree >= 2 else 0)


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}   # counter -> {innermost span name: count}
        self.totals: dict = {}   # counter -> summed value
        self.maxima: dict = {}   # counter -> largest value seen

    def add(self, counter: str, value) -> None:
        self.totals[counter] = self.totals.get(counter, 0) + value

    def peak(self, counter: str, value) -> None:
        self.maxima[counter] = max(self.maxima.get(counter, value), value)

    def span_wrapper(self, fn, name: str, after=None):
        spans, stack, clock, run_id = self.spans, self.stack, \
            time.perf_counter, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          run_id])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(self, spans[idx], args, kwargs, out)
            return out

        wrapper.__traced_original__ = fn
        return wrapper

    def count_wrapper(self, fn, counter: str):
        spans, stack = self.spans, self.stack
        by_span = self.counts.setdefault(counter, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            where = spans[stack[-1]][0] if stack else TOP
            by_span[where] = by_span.get(where, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__traced_original__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per-span-name self time, span count and counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s[name] += (end - start) - inner
            calls[name] += 1
        return {"self_s": self_s, "calls": calls, "counts": self.counts,
                "totals": self.totals, "maxima": self.maxima}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _after_regress(rec, span, args, kwargs, out):
    rows, cols = design_shape(*args, **kwargs)
    rec.add("regress_rows", rows * cols)
    rec.add("regress_design_bytes", 8 * rows * cols)  # float64 design


def _after_solve(rec, span, args, kwargs, out):
    diag = getattr(out, "diagnostics", {})
    if "max_inner_iterations" in diag:
        rec.peak("inner_iters_max", diag["max_inner_iterations"])
    rec.add("floor_hits", diag.get("floor_hits", 0))
    rec.add("degraded_regressions", diag.get("degraded_regressions", 0))


def _after_run(rec, span, args, kwargs, out):
    report, _ = out
    # cli.run's own clock stops before the CSV and JSON writes
    rec.add("io_s", (span[2] - span[1]) - report["wall_clock_seconds"])


_AFTER = {
    ("peanobsde.engine", "conditional_expectation"): _after_regress,
    ("peanobsde.solver", "solve_backward_euler"): _after_solve,
    ("peanobsde.cli", "run"): _after_run,
}


def _namespaces():
    import scipy.integrate
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "peanobsde"
                                  or name.startswith("peanobsde."))]
    return mods + [scipy.integrate]


def install(rec: Recorder):
    """Wrap every layer function under every name that holds it.

    Returns (originals, restore): the wrapped originals, and a function
    that puts them back.
    """
    import scipy.integrate
    from peanobsde import peano

    wrappers = {}
    for modname, attr, span in LAYERS:
        fn = getattr(sys.modules[modname], attr)
        wrappers[id(fn)] = (fn, rec.span_wrapper(
            fn, span, _AFTER.get((modname, attr))))
    quad = scipy.integrate.quad
    wrappers[id(quad)] = (quad, rec.count_wrapper(quad, "quad_calls"))

    undo = []
    for mod in _namespaces():
        for key, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, key, hit[1])
                undo.append((mod, key, val))
    call = peano.PeanoFunction.__call__
    peano.PeanoFunction.__call__ = rec.count_wrapper(call, "phi_calls")
    undo.append((peano.PeanoFunction, "__call__", call))
    originals = [fn for fn, _ in wrappers.values()] + [call]

    def restore():
        for owner, key, val in reversed(undo):
            setattr(owner, key, val)

    return originals, restore


def unwrapped_left(originals) -> list:
    """Names (module.attr) that still hold one of the wrapped originals."""
    from peanobsde import peano

    ids = {id(fn) for fn in originals}
    left = [f"{mod.__name__}.{key}" for mod in _namespaces()
            for key, val in vars(mod).items() if id(val) in ids]
    if id(vars(peano.PeanoFunction)["__call__"]) in ids:
        left.append("peanobsde.peano.PeanoFunction.__call__")
    return left
