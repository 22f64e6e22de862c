"""Span tracing installed from outside the fairalloc package.

``Tracer.install`` replaces the public functions and methods of each layer
(module attributes, the package re-exports and the distribution methods)
with timing wrappers, and ``uninstall`` puts the originals back. Calls into
the package go through module attributes, so the wrappers also see calls
one layer makes into another.

Layer calls become spans (name, start, end, parent, task id) kept in memory.
The scalar distribution calls (cdf, survival, quantile, expected_min,
sample) run up to millions of times per task, so they are not stored one by
one: each is aggregated per parent span as a call count plus time.
Self time is a call's duration minus the time covered by its child calls.
"""

from __future__ import annotations

import json
from time import perf_counter

SPAN_FUNCTIONS = {
    "allocation": ("pof", "alpha_fair_optimal", "max_utilization", "mean_weighted"),
    "certificates": ("scenario_certificate", "theoretical_bounds", "exact_lower_deviation",
                     "chernoff_delta"),
    "metrics": ("utilization", "fairness", "evaluate"),
    "montecarlo": ("estimate_report", "estimate_expected_min"),
    "scenario_io": ("load_scenario_file", "emit_availability_curve", "rows_to_csv"),
    "cli": ("main",),
}
SPAN_METHODS = ("expected_min_knots",)
LEAF_METHODS = ("expected_min", "cdf", "survival", "quantile", "sample")
# Every traced name, as "<module>.<function or method>".
LAYERS = tuple(f"{module}.{attr}" for module, names in SPAN_FUNCTIONS.items() for attr in names) \
    + tuple(f"distributions.{attr}" for attr in SPAN_METHODS + LEAF_METHODS)

# Span records are lists [child time, name, start, end, parent index, task,
# amount]; open leaf calls are frames [child time], so a child adds its
# duration to index 0 of whatever frame encloses it.
_CHILD, _NAME, _START, _END, _PARENT, _TASK, _AMOUNT = range(7)


def _knot_count(args, kwargs, result):
    return 0 if result is None else len(result[0])


def _text_bytes(args, kwargs, result):
    return len(args[0].encode("utf-8"))


def _curve_bytes(args, kwargs, result):
    # computed from the row count: three float64 values per row
    return 24 * len(result)


def _csv_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _nonzero_exit(args, kwargs, result):
    return 1 if result != 0 else 0


def _sample_size(args, kwargs, result):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


def _samples_requested(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["samples"])


AMOUNTS = {
    "distributions.expected_min_knots": _knot_count,
    "scenario_io.load_scenario_file": _text_bytes,
    "scenario_io.emit_availability_curve": _curve_bytes,
    "scenario_io.rows_to_csv": _csv_bytes,
    "cli.main": _nonzero_exit,
    "montecarlo.estimate_expected_min": _samples_requested,
    "distributions.sample": _sample_size,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.leaves = {}  # (parent span index, name) -> [calls, self time, amount]
        self.task = None
        self._stack = []  # open frames: span records, or [child time] for leaves
        self._span_stack = []  # indices of open spans
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, span_stack = self.spans, self._stack, self._span_stack
        amount_of = AMOUNTS.get(name)

        def wrapped(*args, **kwargs):
            parent = span_stack[-1] if span_stack else -1
            record = [0.0, name, 0.0, 0.0, parent, self.task, 0]
            span_stack.append(len(spans))
            spans.append(record)
            stack.append(record)
            record[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record[_END] = perf_counter()
                stack.pop()
                span_stack.pop()
                if stack:
                    stack[-1][_CHILD] += end - record[_START]
            if amount_of is not None:
                record[_AMOUNT] = amount_of(args, kwargs, result)
            return result

        return wrapped

    def _leaf(self, name, fn):
        leaves, stack, span_stack = self.leaves, self._stack, self._span_stack
        amount_of = AMOUNTS.get(name)

        def wrapped(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][_CHILD] += duration
                key = (span_stack[-1] if span_stack else -1, name)
                entry = leaves.get(key)
                if entry is None:
                    entry = leaves[key] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration - frame[0]
            if amount_of is not None:
                entry[2] += amount_of(args, kwargs, result)
            return result

        return wrapped

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self):
        pkg = self.package
        for module_name, names in SPAN_FUNCTIONS.items():
            module = getattr(pkg, module_name)
            for attr in names:
                original = getattr(module, attr)
                wrapped = self._span(f"{module_name}.{attr}", original)
                self._patch(module, attr, wrapped)
                if pkg.__dict__.get(attr) is original:
                    self._patch(pkg, attr, wrapped)
        dist = pkg.distributions
        classes = [dist.DemandDistribution] + list(dist.DemandDistribution.__subclasses__())
        for cls in classes:
            for attr in SPAN_METHODS + LEAF_METHODS:
                if attr in cls.__dict__:
                    make = self._span if attr in SPAN_METHODS else self._leaf
                    self._patch(cls, attr, make(f"distributions.{attr}", cls.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times over everything traced so far."""
        out = {}

        def add(name, calls, self_s, amount):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "amount": 0})
            entry["calls"] += calls
            entry["self_s"] += self_s
            entry["amount"] += amount

        for record in self.spans:
            add(record[_NAME], 1, record[_END] - record[_START] - record[_CHILD], record[_AMOUNT])
        for (_, name), (calls, self_s, amount) in self.leaves.items():
            add(name, calls, self_s, amount)
        return out

    def total_time(self, name) -> float:
        """Summed duration, children included, of the ``name`` spans."""
        return sum(r[_END] - r[_START] for r in self.spans if r[_NAME] == name)

    def calls_under(self, name, ancestor) -> int:
        """Number of ``name`` spans that run inside an ``ancestor`` span."""
        count = 0
        for record in self.spans:
            if record[_NAME] != name:
                continue
            parent = record[_PARENT]
            while parent >= 0:
                if self.spans[parent][_NAME] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][_PARENT]
        return count

    def write(self, path, origin: float, extra: dict):
        """Write spans (times relative to ``origin``) and leaf aggregates as JSON."""
        doc = dict(extra)
        doc["spans"] = [
            {"name": r[_NAME], "start": r[_START] - origin, "end": r[_END] - origin,
             "parent": r[_PARENT], "task": r[_TASK]}
            for r in self.spans
        ]
        doc["leaf_calls"] = [
            {"parent": parent, "name": name, "calls": calls, "self_s": self_s}
            for (parent, name), (calls, self_s, _) in self.leaves.items()
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
