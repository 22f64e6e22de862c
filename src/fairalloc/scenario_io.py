"""Scenario file parsing, validation, and report emission.

Scenarios are JSON: a ``resource`` budget, a list of named groups each with a
``kind``-tagged distribution object, and optional ``defaults`` (epsilon,
alpha, seed, samples) picked up by the CLI. Unknown keys are rejected and
errors carry the JSON path of the offending field. Reports embed the tool
version and a digest of the input so any report can be reproduced.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from . import __version__, certificates, montecarlo
from .distributions import FAMILIES, DemandDistribution, DistributionError, Empirical
from .metrics import Group, Scenario, check_alpha, clamp_availability

TOOL_NAME = "fairalloc"


class ScenarioError(ValueError):
    """Malformed or invalid scenario input, with the JSON path of the fault."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ScenarioError(path, f"expected an object, got {type(obj).__name__}")


def _reject_unknown(obj: dict, allowed, path: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ScenarioError(path, f"unknown key {sorted(unknown)[0]!r}")


def _finite(value, path: str):
    """value itself if it is a non-bool int or float that a double holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a double
        finite = False
    if not finite:
        raise ScenarioError(path, f"expected a finite number, got {value!r}")
    return value


def _finite_list(values: list, path: str) -> tuple:
    """values as a tuple if every entry passes _finite; else _finite's error at path[i]."""
    # checking the whole list in one pass keeps large empirical laws cheap to load
    try:
        valid = {type(x) for x in values} <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:  # an int too large for a double
        valid = False
    if not valid:
        for i, x in enumerate(values):
            _finite(x, f"{path}[{i}]")
    return tuple(values)


def _number(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioError(path, f"missing required key {key!r}")
    return _finite(obj[key], f"{path}.{key}")


def distribution_from_spec(obj, path: str = "distribution") -> DemandDistribution:
    """Build a distribution from its tagged JSON object."""
    _require_mapping(obj, path)
    kind = obj.get("kind")
    cls = FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ScenarioError(
            f"{path}.kind",
            f"unknown distribution kind {kind!r}; expected one of {sorted(FAMILIES)}",
        )
    _reject_unknown(obj, ("kind",) + cls.spec_keys, path)
    if cls is Empirical:
        args = [obj.get(key) for key in cls.spec_keys]
        if not all(isinstance(arg, list) for arg in args):
            raise ScenarioError(path, "empirical needs 'values' and 'probabilities' lists")
        args = [_finite_list(arg, f"{path}.{key}") for key, arg in zip(cls.spec_keys, args)]
    else:
        args = [_number(obj, key, path) for key in cls.spec_keys]
    try:
        return cls(*args)
    except DistributionError as exc:
        raise ScenarioError(path, str(exc)) from exc


@dataclass(frozen=True)
class ScenarioFile:
    scenario: Scenario
    defaults: dict  # the scenario's defaults block, as _parse_defaults returns it
    digest: str


# Each defaults key, in report order, with the check its CLI flag goes through.
_DEFAULT_CHECKS = {
    "epsilon": certificates.check_epsilon,
    "alpha": check_alpha,
    "seed": montecarlo.check_seed,
    "samples": montecarlo.check_samples,
}


def _parse_defaults(obj, path: str) -> dict:
    """The keys obj sets, in _DEFAULT_CHECKS order, each value as written (an int stays one)."""
    _require_mapping(obj, path)
    _reject_unknown(obj, _DEFAULT_CHECKS, path)
    defaults = {}
    for key, check in _DEFAULT_CHECKS.items():
        if key in obj:
            value = _finite(obj[key], f"{path}.{key}")
            try:
                check(value)
            except ValueError as exc:
                raise ScenarioError(f"{path}.{key}", str(exc)) from exc
            defaults[key] = value
    return defaults


def load_scenario_file(text: str) -> ScenarioFile:
    """Parse scenario JSON text into a validated scenario plus defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _require_mapping(raw, "")
    _reject_unknown(raw, ("resource", "groups", "defaults"), "")
    resource = _number(raw, "resource", "")
    if resource < 0.0:
        raise ScenarioError(".resource", f"resource must be >= 0, got {resource!r}")
    groups_raw = raw.get("groups")
    if not isinstance(groups_raw, list) or not groups_raw:
        raise ScenarioError(".groups", "expected a nonempty list of groups")
    groups = []
    for i, entry in enumerate(groups_raw):
        path = f".groups[{i}]"
        _require_mapping(entry, path)
        _reject_unknown(entry, ("name", "distribution"), path)
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"{path}.name", f"expected a nonempty string, got {name!r}")
        dist = distribution_from_spec(entry.get("distribution"), f"{path}.distribution")
        groups.append(Group(name=name, dist=dist))
    defaults = _parse_defaults(raw["defaults"], ".defaults") if "defaults" in raw else {}
    try:
        scenario = Scenario(resource=resource, groups=tuple(groups))
    except ValueError as exc:
        raise ScenarioError("", str(exc)) from exc
    return ScenarioFile(scenario=scenario, defaults=defaults, digest=input_digest(text))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario JSON text; distribution invariants are enforced here."""
    return load_scenario_file(text).scenario


def load_scenario_path(path: str) -> ScenarioFile:
    with open(path, "r", encoding="utf-8") as handle:
        return load_scenario_file(handle.read())


def scenario_to_dict(scenario: Scenario, defaults: Optional[dict] = None) -> dict:
    out = {
        "resource": scenario.resource,
        "groups": [
            {"name": g.name, "distribution": g.dist.to_spec()} for g in scenario.groups
        ],
    }
    if defaults:
        out["defaults"] = dict(defaults)
    return out


def serialize_scenario(scenario: Scenario, defaults: Optional[dict] = None) -> str:
    return json.dumps(scenario_to_dict(scenario, defaults), indent=2)


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_MAX_STEPS = sys.maxsize // 8  # the longest float64 grid numpy can index


def emit_availability_curve(dist: DemandDistribution, v_max: float, steps: int) -> np.ndarray:
    """A (steps, 3) float64 array of rows (v, availability, expected_min) over [0, v_max].

    The grid is i * (v_max / (steps - 1)), ending at v_max itself, and its
    E[min] column is one array call on the law. Only availabilities outside
    [0, 1] can need ``clamp_availability``, so only those go through it.
    """
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or not 2 <= steps <= _MAX_STEPS:
        raise ValueError(f"steps must be an integer >= 2 and <= {_MAX_STEPS}, got {steps!r}")
    if not math.isfinite(v_max) or v_max <= 0.0:
        raise ValueError(f"v_max must be a positive finite real, got {v_max!r}")
    steps = int(steps)
    vs = np.arange(steps) * (v_max / (steps - 1))
    vs[-1] = v_max
    ems = dist._expected_min_at(vs)
    qs = ems / dist.mean()
    for i in np.flatnonzero((qs < 0.0) | (qs > 1.0)).tolist():
        qs[i] = clamp_availability(float(qs[i]))
    return np.column_stack((vs, qs, ems))


_CSV_SPECIAL = re.compile(r'[",\r\n]')


def _csv_quote(text: str) -> str:
    """text as an RFC 4180 cell: quoted, with inner quotes doubled, if it holds , " CR or LF."""
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text


def format_value(value) -> str:
    """CSV cell formatting: 17 significant digits for floats, '.' decimal, RFC 4180 quoting."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return _csv_quote(str(value))


def _distinct(values: np.ndarray):
    """The distinct doubles of values, as floats, and the index of each value among them.
    Doubles are told apart by their bits: 0.0 and -0.0 (and NaN payloads) stay apart."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(np.float64).tolist(), inverse


def _csv_column(values) -> list:
    """format_value over one column, with all-float and all-str columns done in bulk."""
    types = set(map(type, values))
    if types == {float}:
        return list(map(format, values, repeat(".17g")))
    if types == {str}:
        return list(map(_csv_quote, values)) if any(map(_CSV_SPECIAL.search, set(values))) else values
    return list(map(format_value, values))


def rows_to_csv(columns: dict) -> str:
    """CSV text of columns (header -> list or 1-D array, all of one length).

    A header line, then one line per row; every cell is format_value's. The
    float64 arrays among the columns are formatted together, each of their
    distinct values once. columns must be non-empty.
    """
    floats = [key for key, values in columns.items()
              if type(values) is np.ndarray and values.dtype == np.float64]
    cells = {key: values if key in floats else _csv_column(values) for key, values in columns.items()}
    if floats:
        distinct, inverse = _distinct(np.concatenate([columns[key] for key in floats]))
        texts = np.array(list(map(format, distinct, repeat(".17g"))), dtype=object)[inverse]
        cells.update(zip(floats, texts.reshape(len(floats), -1).tolist()))
    # zip hands ",".join one tuple that it refills for every row
    lines = [",".join(map(_csv_quote, columns)), *map(",".join, zip(*cells.values()))]
    return "\n".join(lines) + "\n"


_MARK = "\x00fairalloc-array\x00"  # dumps_report's stand-in for an array it writes itself
_MARK_JSON = json.dumps(_MARK)


def dumps_report(obj) -> str:
    """Exactly json.dumps(obj, indent=2), with each ndarray in it written as its tolist().

    With indent, json.dumps runs its pure-Python encoder, slow on a curve's
    thousands of rows. So it lays out the report with a marker string in
    place of each non-empty 2-D float64 array, wherever the array sits, and
    each marker then becomes its array's rows, indented like the marker's
    line: the text of all their distinct doubles comes from one more
    json.dumps call. Other arrays go through json.dumps as their tolist().
    A report that already holds the marker text (a scenario's names may) is
    a plain json.dumps, and a report without arrays costs one json.dumps call.
    """
    arrays = []

    def mark(value):
        if type(value) is np.ndarray and value.ndim == 2 and value.size and value.dtype == np.float64:
            arrays.append(value)
            return _MARK
        return np.ndarray.tolist(value)

    text = json.dumps(obj, indent=2, default=mark)
    if not arrays:
        return text
    pieces = text.split(_MARK_JSON)
    if len(pieces) != len(arrays) + 1:
        return json.dumps(obj, indent=2, default=np.ndarray.tolist)
    distinct, inverse = _distinct(np.concatenate([a.ravel() for a in arrays]))
    texts = np.array(json.dumps(distinct)[1:-1].split(", "), dtype=object)[inverse]
    out, start = [], 0
    for piece, array in zip(pieces, arrays):
        pad = re.match(" *", piece[piece.rfind("\n") + 1:])[0]  # no JSON string holds a raw newline
        # each cell followed by the text after it: the next cell's indent,
        # the next row's opening, or the array's end
        tokens = np.empty((len(array), 2 * array.shape[1]), dtype=object)
        tokens[:, 0::2] = texts[start:start + array.size].reshape(array.shape)
        tokens[:, 1::2] = f",\n{pad}    "  # one str for all, where np.full would copy it
        tokens[:, -1] = f"\n{pad}  ],\n{pad}  [\n{pad}    "
        tokens[-1, -1] = f"\n{pad}  ]\n{pad}]"
        out += [piece, f"[\n{pad}  [\n{pad}    ", *tokens.ravel().tolist()]
        start += array.size
    out.append(pieces[-1])
    return "".join(out)


def report_envelope(command: str, settings: dict, digest: Optional[str], result: dict) -> dict:
    """Wrap a result with everything needed to reproduce it."""
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "settings": settings,
        "result": result,
    }
