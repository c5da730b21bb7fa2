"""Span recorder for the traced benchmark run.

The recorder wraps public functions of simplexopt from outside the library:
it replaces the module attribute through which other modules call each
function (for example simplexopt.bounds.grid_minimize) with a wrapper that
records a span (id, function, start, end, parent span, job id). Spans stay in
memory and are written out when the run ends; self time is a span's length
minus the length of its child spans. A function that no longer exists is
reported as absent and the metrics built from it are left out; so is one
whose arguments or result the recorder can no longer read.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
from collections import Counter
from time import perf_counter

# function name -> (layer, defining module, modules whose attribute is wrapped;
# None wraps every simplexopt module that holds the function)
TARGETS = {
    "grid_minimize": ("grid", "grid", None),
    "grid_maximize": ("grid", "grid", None),
    "parse_polynomial": ("polynomial", "polynomial", None),
    "parse_graph": ("polynomial", "polynomial", None),
    "evaluate": ("polynomial", "polynomial", None),
    "coefficient_range_bounds": ("polynomial", "polynomial", None),
    "stirling2": ("combinatorics", "combinatorics", ("bernstein", "bounds")),
    "multinomial": ("combinatorics", "combinatorics", ("bernstein", "bounds")),
    "falling_factorial": ("combinatorics", "combinatorics", ("bernstein", "bounds")),
    "bernstein_definitional": ("bernstein", "bernstein", None),
    "bernstein_closed_form": ("bernstein", "bernstein", None),
    "bernstein_quadratic": ("bernstein", "bernstein", None),
    "bernstein_cubic": ("bernstein", "bernstein", None),
    "bernstein_squarefree": ("bernstein", "bernstein", None),
    "moment_direct": ("bernstein", "bernstein", None),
    "moment_stirling": ("bernstein", "bernstein", None),
    "monte_carlo_bernstein": ("bernstein", "bernstein", None),
    "bound_quadratic": ("bounds", "bounds", None),
    "bound_cubic": ("bounds", "bounds", None),
    "bound_squarefree": ("bounds", "bounds", None),
    "bound_general": ("bounds", "bounds", None),
    "ptas_approximate": ("bounds", "bounds", None),
    "stable_set_bounds": ("bounds", "bounds", None),
    "grid_range": ("bounds", "bounds", None),
    "coefficient_range": ("bounds", "bounds", None),
    "min_grid_order": ("bounds", "bounds", None),
    "bernstein_excess_on_grid": ("bounds", "bounds", None),
    "run_selftest": ("selftest", "selftest", None),
}
LAYERS = ("grid", "polynomial", "combinatorics", "bernstein", "bounds", "selftest")
# simplexopt.cli is left out: a CLI process imports it after the recorder is
# installed, so its imported names are already the wrappers
MODULES = ("grid", "polynomial", "combinatorics", "bernstein", "bounds", "selftest")

SCANS = ("grid_minimize", "grid_maximize")
SPECIALIZED = ("bernstein_quadratic", "bernstein_cubic", "bernstein_squarefree")
CERTIFYING = ("bound_quadratic", "bound_cubic", "bound_squarefree", "bound_general",
              "ptas_approximate", "stable_set_bounds", "grid_range", "coefficient_range")
COMBINATORICS = ("stirling2", "multinomial", "falling_factorial")

# metric -> functions it is built from; it is absent when any of them is
METRIC_SOURCES = {
    "grid.scan_calls": SCANS, "grid.points": SCANS, "grid.scan_s": SCANS,
    "grid.points_per_s": SCANS, "grid.enumerate_s": SCANS,
    "polynomial.parse_s": ("parse_polynomial", "parse_graph"),
    "polynomial.evaluate_calls": ("evaluate",), "polynomial.evaluate_s": ("evaluate",),
    "polynomial.coefficient_range_s": ("coefficient_range_bounds",),
    "combinatorics.calls": COMBINATORICS, "combinatorics.s": COMBINATORICS,
    "bernstein.definitional_s": ("bernstein_definitional",),
    "bernstein.closed_form_s": ("bernstein_closed_form",),
    "bernstein.specialized_s": SPECIALIZED,
    "bernstein.terms_out": ("bernstein_definitional", "bernstein_closed_form") + SPECIALIZED,
    "bernstein.moment_direct_s": ("moment_direct",),
    "bernstein.moment_stirling_s": ("moment_stirling",),
    "bernstein.monte_carlo_s": ("monte_carlo_bernstein",),
    "bounds.certificates": CERTIFYING[:4], "bounds.satisfied_ratio": CERTIFYING[:4],
    "bounds.certify_s": CERTIFYING, "bounds.order_select_s": ("min_grid_order",),
    "bounds.grid_order_max": ("min_grid_order",) + CERTIFYING[:4],
    "bounds.excess_s": ("bernstein_excess_on_grid",),
    "selftest.checks": ("run_selftest",), "selftest.s": ("run_selftest",),
}


def _count_points(counters, args, kwargs, result):
    counters["grid.points"] += result.evaluations
    f = args[0] if args else kwargs["f"]
    r = args[1] if len(args) > 1 else kwargs["r"]
    counters.setdefault("scans", []).append((f.n, r))


def _count_terms(counters, args, kwargs, result):
    form = result.homogeneous if result.homogeneous is not None else result.reduced
    counters["bernstein.terms_out"] += len(form.terms)


def _count_certificates(counters, args, kwargs, result):
    for cert in result if isinstance(result, tuple) else (result,):
        counters["bounds.certificates"] += 1
        counters["bounds.satisfied"] += cert.satisfied
        counters["bounds.grid_order_max"] = max(counters["bounds.grid_order_max"], cert.r)


def _count_order(counters, args, kwargs, result):
    counters["bounds.grid_order_max"] = max(counters["bounds.grid_order_max"], result)


def _count_checks(counters, args, kwargs, result):
    counters["selftest.checks"] += len(result)


HOOKS = {
    "grid_minimize": _count_points, "grid_maximize": _count_points,
    "bernstein_definitional": _count_terms, "bernstein_closed_form": _count_terms,
    "bernstein_quadratic": _count_terms, "bernstein_cubic": _count_terms,
    "bernstein_squarefree": _count_terms,
    "bound_quadratic": _count_certificates, "bound_cubic": _count_certificates,
    "bound_squarefree": _count_certificates, "bound_general": _count_certificates,
    "min_grid_order": _count_order, "run_selftest": _count_checks,
}


class Recorder:
    """Wraps the target functions and records one span per call."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, function, start, end, parent id, job)
        self.job = None
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._pass_start = 0

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names that do not."""
        modules = {m: importlib.import_module(f"simplexopt.{m}") for m in MODULES}
        modules["__init__"] = importlib.import_module("simplexopt")
        for name, (layer, home, sites) in TARGETS.items():
            original = getattr(modules[home], name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, layer, original, HOOKS.get(name))
            for site, module in modules.items():
                if sites is not None and site not in sites:
                    continue
                if getattr(module, name, None) is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)
        return self.absent

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, name, layer, fn, hook):
        spans, ids, local, counters = self.spans, self._ids, self._local, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[f"{layer}.errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job))
            if hook is not None:
                try:
                    hook(counters, args, kwargs, result)
                except Exception:  # a changed signature or result type
                    if name not in self.absent:
                        self.absent.append(name)
            return result

        return wrapper

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counters.clear()

    def end_pass(self) -> dict:
        """Calls, self time and counters of the spans since begin_pass."""
        return aggregate(self.spans[self._pass_start:], self.counters)

    def dump(self, path, children=()) -> None:
        """Write the spans, one JSON array a line, then one line for each
        child process's spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["id", "function", "start", "end", "parent", "job"],
                                  "absent": self.absent}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for child in children:
                out.write(json.dumps(child) + "\n")


def aggregate(spans, counters) -> dict:
    child_time: Counter = Counter()
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for sid, name, start, end, _, _ in spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]
    return {"calls": dict(calls), "self": dict(self_s),
            "counters": {k: v for k, v in counters.items() if k != "scans"},
            "scans": list(counters.get("scans", []))}


def merge(aggs: list[dict]) -> dict:
    """One aggregate for several processes (the CLI children of a pass)."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    scans: list = []
    for agg in aggs:
        calls.update(agg["calls"])
        self_s.update(agg["self"])
        order = max(counters["bounds.grid_order_max"], agg["counters"].get("bounds.grid_order_max", 0))
        counters.update(agg["counters"])
        counters["bounds.grid_order_max"] = order
        scans.extend(agg["scans"])
    return {"calls": dict(calls), "self": dict(self_s), "counters": dict(counters), "scans": scans}


def layer_metrics(agg: dict, absent: list[str]) -> dict:
    """Per-layer metrics of one pass from its aggregate. Route checks,
    enumeration and CLI figures are measured elsewhere and added by the
    caller."""
    calls, self_s, c = agg["calls"], agg["self"], agg["counters"]

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(n, 0) for n in names)

    scan_s = s(*SCANS)
    certificates = c.get("bounds.certificates", 0)
    out = {
        "grid.scan_calls": n(*SCANS),
        "grid.points": c.get("grid.points", 0),
        "grid.scan_s": scan_s,
        "grid.points_per_s": c.get("grid.points", 0) / scan_s if scan_s else 0.0,
        "polynomial.parse_s": s("parse_polynomial", "parse_graph"),
        "polynomial.evaluate_calls": n("evaluate"),
        "polynomial.evaluate_s": s("evaluate"),
        "polynomial.coefficient_range_s": s("coefficient_range_bounds"),
        "combinatorics.calls": n(*COMBINATORICS),
        "combinatorics.s": s(*COMBINATORICS),
        "bernstein.definitional_s": s("bernstein_definitional"),
        "bernstein.closed_form_s": s("bernstein_closed_form"),
        "bernstein.specialized_s": s(*SPECIALIZED),
        "bernstein.terms_out": c.get("bernstein.terms_out", 0),
        "bernstein.moment_direct_s": s("moment_direct"),
        "bernstein.moment_stirling_s": s("moment_stirling"),
        "bernstein.monte_carlo_s": s("monte_carlo_bernstein"),
        "bounds.certificates": certificates,
        "bounds.satisfied_ratio": c.get("bounds.satisfied", 0) / certificates if certificates else 0.0,
        "bounds.certify_s": s(*CERTIFYING),
        "bounds.order_select_s": s("min_grid_order"),
        "bounds.grid_order_max": c.get("bounds.grid_order_max", 0),
        "bounds.excess_s": s("bernstein_excess_on_grid"),
        "selftest.checks": c.get("selftest.checks", 0),
        "selftest.s": s("run_selftest"),
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = c.get(f"{layer}.errors", 0)
    for metric, sources in METRIC_SOURCES.items():
        if any(name in absent for name in sources):
            out.pop(metric, None)
    return out
