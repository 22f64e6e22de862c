import json
import math

import pytest

import report_diff

OLD = {"tool": "fairalloc", "result": {"groups": [{"name": "a", "q": 0.25}, {"name": "b", "q": 0.5}],
                                       "u": 3.0, "ok": True}}


def _changed(**edits):
    new = json.loads(json.dumps(OLD))
    for edit in edits.values():
        edit(new)
    return new


def test_relative_change():
    assert report_diff.relative_change(2.0, 2.0) == 0.0
    assert report_diff.relative_change(math.nan, math.nan) == 0.0
    assert report_diff.relative_change(4.0, 5.0) == 0.25
    assert report_diff.relative_change(0.0, 1e-300) == math.inf
    assert report_diff.relative_change(1.0, math.inf) == math.inf


def test_a_perturbed_number_is_the_largest_change_with_its_path():
    new = _changed(q=lambda r: r["result"]["groups"][1].update(q=0.5 * (1 + 3e-16)),
                   u=lambda r: r["result"].update(u=3.0 + 1e-9))
    diff = report_diff.compare("evaluate__x.json", json.dumps(OLD), json.dumps(new))
    change, where, old, value = diff.largest
    assert where == ".result.u" and change == pytest.approx(1e-9 / 3.0)
    assert diff.flags == []


def test_a_changed_key_and_a_changed_string_are_flagged():
    def rename(r):
        r["result"]["util"] = r["result"].pop("u")

    new = _changed(key=rename, name=lambda r: r["result"]["groups"][0].update(name="A"))
    diff = report_diff.compare("evaluate__x.json", json.dumps(OLD), json.dumps(new))
    assert [flag.split(":")[0] for flag in diff.flags] == [
        "string changed at .result.groups[0].name", "key removed at .result.u",
        "key added at .result.util"]
    assert diff.largest[1] is None
    swapped = json.dumps({"result": OLD["result"], "tool": OLD["tool"]})
    assert [flag.split(":")[0] for flag in report_diff.compare("r.json", json.dumps(OLD), swapped).flags] \
        == ["key order changed at ."]


def test_counts_types_and_bools_are_flagged():
    new = _changed(count=lambda r: r["result"]["groups"].pop(), ok=lambda r: r["result"].update(ok=1))
    diff = report_diff.compare("r.json", json.dumps(OLD), json.dumps(new))
    assert [flag.split(":")[0] for flag in diff.flags] == [
        "count changed at .result.groups", "type changed at .result.ok"]


def test_csv_cells_are_compared_by_line_and_column():
    old = "group,v,ok\na,0.5,true\nb,1,false\n"
    new = "group,v,ok\nb,0.50000000000000011,true\nb,1,false\nc,2,true\n"
    diff = report_diff.compare("curve__x.csv", old, new)
    assert diff.largest[:2] == (pytest.approx(2.220446049250313e-16), "line 2, column v")
    assert [flag.split(":")[0] for flag in diff.flags] == [
        "count changed at rows", "string changed at line 2, column group"]
    assert report_diff.compare("x.csv", old, old.replace("ok", "pass")).flags == [
        "header changed at line 1: ['group', 'v', 'ok'] -> ['group', 'v', 'pass']"]


def test_report_lines_name_only_the_reports_that_moved():
    old = {"a.json": json.dumps(OLD), "b.json": "[1.0]", "gone.csv": "x\n1\n"}
    new = {"a.json": json.dumps(OLD), "b.json": "[1.5]", "new.json": "{}"}
    assert report_diff.report_lines(old, new) == [
        "b.json: largest relative change 0.5 at [0] (1.0 -> 1.5)",
        "gone.csv: removed",
        "new.json: added",
        "3 of 4 reports changed",
    ]


# the reference lines of seed 0 against a table recorded from this code
UNMOVED = [
    "pof_narrow: 102 reference tasks checked, 0 moved",
    "  max-utilization U: no change",
    "  max-utilization U: 0 fell",
    "  alpha-fair U: no change",
    "  alpha-fair U: 0 fell",
    "cli_reports: 4 reference tasks checked, 0 moved",
    "  max-utilization U: no change",
    "  max-utilization U: 0 fell",
    "  alpha-fair U: no change",
    "  alpha-fair U: 0 fell",
]


def test_references_are_checked_per_workload_and_a_moved_one_is_named(tmp_path):
    tasks = list(report_diff.reference_tasks([0]))
    assert {name for name, *_ in tasks} == {"pof_narrow", "cli_reports"}
    # the benchmark's own table has a reference for every task of the seed
    real = report_diff.reference_lines([0])
    assert real[0].startswith("pof_narrow: 102 reference tasks checked, ")
    assert real[5].startswith("cli_reports: 4 reference tasks checked, ")
    assert not any("no reference" in line for line in real)
    # a table recorded from this code moves nothing; one perturbed U is named
    values = {key: report_diff.reference_values(text, alpha) for _, _, key, text, alpha in tasks}
    table = tmp_path / "references.json"
    table.write_text(json.dumps({"values": values}), encoding="utf-8")
    assert report_diff.reference_lines([0], table) == UNMOVED
    name, where, key, _, _ = tasks[0]
    values[key][1] *= 1.0 + 1e-9
    del values[tasks[1][2]]
    table.write_text(json.dumps({"values": values}), encoding="utf-8")
    lines = report_diff.reference_lines([0], table)
    assert lines[:3] == ["pof_narrow: 101 reference tasks checked, 1 moved", "  max-utilization U: no change",
                         "  max-utilization U: 0 fell"]
    assert lines[3].startswith(f"  alpha-fair U: largest relative change 1e-09 at {where} (")
    assert lines[4].startswith(f"  alpha-fair U: 1 fell, the most by 1e-09 at {where} (")
    assert lines[5:7] == [f"  no reference for {tasks[1][1]}", "cli_reports: 4 reference tasks checked, 0 moved"]


def test_references_count_the_tasks_whose_u_fell_below_its_reference(tmp_path):
    # on a copy of the references recorded from this code, nothing falls;
    # raising one reference U reads as one fall, named with its task
    tasks = list(report_diff.reference_tasks([0]))
    values = {key: report_diff.reference_values(text, alpha) for _, _, key, text, alpha in tasks}
    table = tmp_path / "references.json"
    table.write_text(json.dumps({"values": values}), encoding="utf-8")
    assert report_diff.reference_lines([0], table) == UNMOVED
    _, where, key, _, _ = tasks[0]
    values[key][0] *= 1.0 + 1e-9
    table.write_text(json.dumps({"values": values}), encoding="utf-8")
    lines = report_diff.reference_lines([0], table)
    assert lines[0] == "pof_narrow: 102 reference tasks checked, 1 moved"
    assert lines[1].startswith(f"  max-utilization U: largest relative change 1e-09 at {where} (")
    assert lines[2].startswith(f"  max-utilization U: 1 fell, the most by 1e-09 at {where} (")
    assert lines[3:] == UNMOVED[3:]
