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
