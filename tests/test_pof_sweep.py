import csv
import io
import pathlib
import runpy
import sys

from fairalloc import Scenario, pof
from fairalloc.scenario_io import format_value, load_scenario_path

ROOT = pathlib.Path(__file__).parent.parent
SCENARIO = ROOT / "tests" / "golden" / "scenarios" / "poisson.json"


def test_pof_sweep_writes_one_row_per_ratio_and_alpha(monkeypatch, capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "pof_sweep.py"))
    monkeypatch.setattr(sys, "argv", [
        "pof_sweep.py", "--scenario", str(SCENARIO),
        "--ratios", "0.5,1.2", "--alphas", "0.05,0.25",
    ])
    script["main"]()
    header, *rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert header == script["COLUMNS"]
    assert len(rows) == 4
    base = load_scenario_path(str(SCENARIO)).scenario
    pairs = [(float(row[0]), float(row[2])) for row in rows]
    assert pairs == [(0.5, 0.05), (0.5, 0.25), (1.2, 0.05), (1.2, 0.25)]
    for row, (ratio, alpha) in zip(rows, pairs):
        cells = dict(zip(header, row))
        sc = Scenario(resource=ratio * base.total_mean, groups=base.groups)
        assert cells["pof"] == format_value(pof(sc, alpha).pof)
