import csv
import io
import json
import pathlib
import runpy
import sys

import pytest

from fairalloc import ConvergenceError, Scenario, pof, scenario_certificate
from fairalloc.scenario_io import format_value, load_scenario_path

ROOT = pathlib.Path(__file__).parent.parent
SCENARIO = ROOT / "tests" / "golden" / "scenarios" / "poisson.json"


def test_pof_sweep_writes_one_row_per_ratio_and_alpha(monkeypatch, capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "pof_sweep.py"))
    monkeypatch.setattr(sys, "argv", [
        "pof_sweep.py", "--scenario", str(SCENARIO),
        "--ratios", "0.5,1.2", "--alphas", "0.05,0.49",
    ])
    assert script["main"]() == 0
    header, *rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert header == script["COLUMNS"]
    assert len(rows) == 4
    base = load_scenario_path(str(SCENARIO)).scenario
    cert = scenario_certificate(base, 0.1)  # the sweep's default epsilon
    pairs = [(float(row[0]), float(row[2])) for row in rows]
    assert pairs == [(0.5, 0.05), (0.5, 0.49), (1.2, 0.05), (1.2, 0.49)]
    # epsilon + delta is 0.48 here, so only alpha = 0.49 carries the bounds
    assert [row[-2] != "" and row[-1] != "" for row in rows] == [False, True, False, True]
    for row, (ratio, alpha) in zip(rows, pairs):
        cells = dict(zip(header, row))
        sc = Scenario(resource=ratio * base.total_mean, groups=base.groups)
        assert cells["resource"] == format_value(sc.resource)
        result = pof(sc, alpha, certificate=cert)
        for column in header[2:]:
            assert cells[column] == format_value(getattr(result, column)), column


INFEASIBLE = {
    "resource": 1.0,
    "groups": [
        {"name": "wide", "distribution": {"kind": "normal", "mu": 1, "sigma": 100}},
        {"name": "narrow", "distribution": {"kind": "normal", "mu": 1, "sigma": 0.01}},
    ],
}


def stalled_pof(*args, **kwargs):
    raise ConvergenceError("stalled")


@pytest.mark.parametrize("argv, fault, code, message", [
    (["--alphas", "1.0"], None, 1, "pof requires 0 <= alpha < 1, got 1.0"),
    (["--ratios", "1.0", "--alphas", "0.05"], "infeasible", 1,
     "infeasible: no availability floor admits a feasible fairness band for alpha=0.05"),
    (["--ratios", "x"], None, 1, "could not convert string to float: 'x'"),
    ([], "missing", 1, "[Errno 2] No such file or directory"),
    ([], "stalled", 2, "optimizer error: stalled"),
], ids=["alpha-one", "infeasible-cell", "bad-ratio", "missing-file", "no-convergence"])
def test_pof_sweep_reports_errors_without_a_traceback(
        argv, fault, code, message, monkeypatch, capsys, tmp_path):
    script = runpy.run_path(str(ROOT / "scripts" / "pof_sweep.py"))
    path = SCENARIO
    if fault == "infeasible":
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(INFEASIBLE))
    elif fault == "missing":
        path = tmp_path / "missing.json"
    elif fault == "stalled":
        monkeypatch.setitem(script["main"].__globals__, "pof", stalled_pof)
    monkeypatch.setattr(sys, "argv", ["pof_sweep.py", "--scenario", str(path), *argv])
    assert script["main"]() == code
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"pof_sweep: {message}")
    assert "Traceback" not in captured.err
