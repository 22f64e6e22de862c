import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from fairalloc.distributions import Normal, Poisson, TwoPoint
from fairalloc.scenario_io import (
    ScenarioError,
    dumps_report,
    emit_availability_curve,
    format_value,
    input_digest,
    load_scenario_file,
    parse_scenario,
    report_envelope,
    rows_to_csv,
    scenario_to_dict,
    serialize_scenario,
)


def test_parse_minimal_scenario():
    text = '{"resource":500,"groups":[{"name":"A","distribution":{"kind":"poisson","lambda":200}}]}'
    sc = parse_scenario(text)
    assert sc.resource == 500.0
    assert sc.size == 1
    assert sc.groups[0].name == "A"
    assert isinstance(sc.groups[0].dist, Poisson)
    assert sc.groups[0].dist.lam == 200.0


def test_parse_two_point_variant():
    sc = parse_scenario(
        '{"resource":5,"groups":[{"name":"t","distribution":{"kind":"two_point","k":10}}]}'
    )
    assert isinstance(sc.groups[0].dist, TwoPoint)
    assert sc.groups[0].dist.mean() == 1.0


def test_parse_every_kind():
    text = json.dumps(
        {
            "resource": 100,
            "groups": [
                {"name": "c", "distribution": {"kind": "constant", "c": 5}},
                {"name": "t", "distribution": {"kind": "two_point", "k": 4}},
                {"name": "b", "distribution": {"kind": "binomial", "n": 20, "p": 0.25}},
                {"name": "p", "distribution": {"kind": "poisson", "lambda": 7.5}},
                {"name": "n", "distribution": {"kind": "normal", "mu": 50, "sigma": 5}},
                {"name": "e", "distribution": {"kind": "exponential", "mean": 12}},
                {
                    "name": "m",
                    "distribution": {
                        "kind": "empirical",
                        "values": [1, 3.5],
                        "probabilities": [0.25, 0.75],
                    },
                },
            ],
        }
    )
    sc = parse_scenario(text)
    assert sc.size == 7
    assert [g.dist.kind for g in sc.groups] == [
        "constant", "two_point", "binomial", "poisson", "normal", "exponential", "empirical",
    ]


def test_binomial_n_zero_is_a_positioned_error():
    text = '{"resource":1,"groups":[{"name":"b","distribution":{"kind":"binomial","n":0,"p":0.5}}]}'
    with pytest.raises(ScenarioError, match=r"n must be >= 1") as err:
        parse_scenario(text)
    assert ".groups[0].distribution" in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("not json", "invalid JSON at line 1"),
        ('{"resource":1}', "groups"),
        ('{"resource":-2,"groups":[{"name":"a","distribution":{"kind":"constant","c":1}}]}', "resource"),
        ('{"resource":1,"groups":[],"defaults":{}}', "nonempty"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"warp","x":1}}]}', "unknown distribution kind"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":["poisson"],"lambda":2}}]}', "unknown distribution kind"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"poisson","lambda":2,"x":1}}]}', "unknown key"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"poisson","lambda":0}}]}', "lambda"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"binomial","n":5,"p":1.5}}]}', "p must be in"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"normal","mu":5,"sigma":0}}]}', "sigma"),
        ('{"resource":1,"groups":[{"name":"","distribution":{"kind":"constant","c":1}}]}', "name"),
        ('{"resource":1,"extra":2,"groups":[{"name":"a","distribution":{"kind":"constant","c":1}}]}', "unknown key"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"binomial","n":5.5,"p":0.5}}]}', "integer"),
        ('{"resource":1,"groups":[3]}', r"^\.groups\[0\]: expected an object, got int$"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"poisson"}}]}',
         r"^\.groups\[0\]\.distribution: missing required key 'lambda'$"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"empirical","values":3,"probabilities":[1]}}]}',
         "empirical needs 'values' and 'probabilities' lists"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"empirical","values":[1,2],"probabilities":[1]}}]}',
         "empirical values and probabilities must have equal length"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"empirical","values":[1,2],"probabilities":[1.5,-0.5]}}]}',
         "empirical probabilities must be finite and >= 0"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"constant","c":1}}],"defaults":{"epsilon":1}}',
         r"^\.defaults\.epsilon: epsilon must be in \(0, 1\), got 1\.0$"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"constant","c":1}}],"defaults":{"alpha":-1}}',
         r"^\.defaults\.alpha: alpha must be >= 0, got -1\.0$"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"constant","c":1}}],"defaults":{"seed":2.5}}',
         r"^\.defaults\.seed: seed must be an integer, got 2\.5$"),
        ('{"resource":1,"groups":[{"name":"a","distribution":{"kind":"constant","c":1}}],"defaults":{"samples":99}}',
         r"^\.defaults\.samples: samples must be >= 100, got 99$"),
    ],
)
def test_parse_errors_carry_field_context(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(text)


@pytest.mark.parametrize(
    "values,probabilities,field,message",
    [
        ([{}], [1], "values[0]", "expected a number"),
        ([1, "3"], [0.5, 0.5], "values[1]", "expected a number"),
        ([True], [1], "values[0]", "expected a number"),
        ([1, 2], [0.5, "0.5"], "probabilities[1]", "expected a number"),
        ([1, 2], [0.5, 10**400], "probabilities[1]", "expected a finite number"),
    ],
    ids=["object", "string", "bool", "string probability", "huge probability"],
)
def test_empirical_entries_must_be_finite_numbers(values, probabilities, field, message):
    dist = {"kind": "empirical", "values": values, "probabilities": probabilities}
    text = json.dumps({"resource": 1, "groups": [{"name": "a", "distribution": dist}]})
    with pytest.raises(ScenarioError, match=message) as err:
        parse_scenario(text)
    assert err.value.path == f".groups[0].distribution.{field}"


@pytest.mark.parametrize(
    "resource,lam,path",
    [
        (10**400, 5, ".resource"),
        (10, 10**400, ".groups[0].distribution.lambda"),
    ],
    ids=["resource", "lambda"],
)
def test_integer_too_large_for_a_double_is_a_positioned_error(resource, lam, path):
    dist = {"kind": "poisson", "lambda": lam}
    text = json.dumps({"resource": resource, "groups": [{"name": "a", "distribution": dist}]})
    with pytest.raises(ScenarioError, match="expected a finite number") as err:
        parse_scenario(text)
    assert err.value.path == path


def test_duplicate_group_names_rejected():
    text = (
        '{"resource":1,"groups":['
        '{"name":"a","distribution":{"kind":"constant","c":1}},'
        '{"name":"a","distribution":{"kind":"constant","c":2}}]}'
    )
    with pytest.raises(ScenarioError, match="unique"):
        parse_scenario(text)


def test_defaults_are_parsed_and_validated():
    text = json.dumps(
        {
            "resource": 10,
            "groups": [{"name": "a", "distribution": {"kind": "poisson", "lambda": 5}}],
            "defaults": {"epsilon": 0.1, "alpha": 0.25, "seed": 7, "samples": 5000},
        }
    )
    sf = load_scenario_file(text)
    assert sf.defaults["epsilon"] == 0.1
    assert sf.defaults["alpha"] == 0.25
    assert sf.defaults["seed"] == 7
    assert sf.defaults["samples"] == 5000
    bad = text.replace('"epsilon": 0.1', '"epsilon": 1.5')
    with pytest.raises(ScenarioError, match="epsilon"):
        load_scenario_file(bad)
    bad = text.replace('"samples": 5000', '"samples": 10')
    with pytest.raises(ScenarioError, match="samples"):
        load_scenario_file(bad)


def test_negative_default_seed_names_its_path():
    text = json.dumps(
        {
            "resource": 10,
            "groups": [{"name": "a", "distribution": {"kind": "poisson", "lambda": 5}}],
            "defaults": {"seed": -5},
        }
    )
    with pytest.raises(ScenarioError, match=r"seed must be >= 0, got -5") as err:
        load_scenario_file(text)
    assert err.value.path == ".defaults.seed"


def test_round_trip_preserves_scenario():
    specs = [
        {"kind": "constant", "c": 12.5},
        {"kind": "two_point", "k": 7.0},
        {"kind": "binomial", "n": 321, "p": 0.31},
        {"kind": "poisson", "lambda": 42.5},
        {"kind": "normal", "mu": 97.3, "sigma": 11.1},
        {"kind": "exponential", "mean": 18.75},
        {"kind": "empirical", "values": [0.5, 2.25, 9.0], "probabilities": [0.125, 0.5, 0.375]},
    ]
    text = json.dumps(
        {
            "resource": 123.456,
            "groups": [{"name": f"g{i}", "distribution": spec} for i, spec in enumerate(specs)],
        }
    )
    sf = load_scenario_file(text)
    assert [g.dist.to_spec() for g in sf.scenario.groups] == specs
    serialized = serialize_scenario(sf.scenario, sf.defaults)
    again = load_scenario_file(serialized)
    assert again.scenario == sf.scenario


def test_digest_tracks_exact_text():
    a = '{"resource":1,"groups":[{"name":"a","distribution":{"kind":"constant","c":1}}]}'
    b = a.replace("1}", "1} ")
    assert input_digest(a) != input_digest(b)
    assert load_scenario_file(a).digest == input_digest(a)


def test_scenario_to_dict_omits_empty_defaults():
    sc = parse_scenario(
        '{"resource":5,"groups":[{"name":"a","distribution":{"kind":"constant","c":2}}]}'
    )
    payload = scenario_to_dict(sc)
    assert "defaults" not in payload


# ---------------------------------------------------------------- curves

def test_constant_curve_is_linear_then_flat():
    rows = emit_availability_curve(__import__("fairalloc").Constant(100.0), 200.0, 201)
    assert len(rows) == 201
    vs = [r[0] for r in rows]
    qs = [r[1] for r in rows]
    assert vs[0] == 0.0 and vs[-1] == 200.0
    assert qs[0] == 0.0
    assert qs[-1] == pytest.approx(1.0, abs=1e-9)
    assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
    # linear ramp up to the mean, flat afterwards
    assert qs[50] == pytest.approx(0.5, abs=1e-12)
    assert qs[150] == 1.0


def test_normal_curve_saturates():
    rows = emit_availability_curve(Normal(100.0, 10.0), 200.0, 201)
    qs = [r[1] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
    assert qs[-1] >= 0.999
    ems = [r[2] for r in rows]
    assert ems[-1] == pytest.approx(100.0, abs=1e-6)


def test_curve_two_step_grid_hits_endpoints():
    dist = Normal(100.0, 10.0)
    rows = emit_availability_curve(dist, 100.0, 2)
    assert rows[0][0] == 0.0
    assert rows[1][0] == 100.0
    assert rows[1][1] == pytest.approx(dist.expected_min(100.0) / 100.0, abs=1e-15)


def test_curve_takes_numpy_integer_step_counts():
    # regression: np.int64(21) was rejected as "steps must be an integer >= 2"
    dist = Poisson(5.0)
    assert emit_availability_curve(dist, 10.0, np.int64(21)) == emit_availability_curve(dist, 10.0, 21)


def test_curve_grid_validation():
    dist = Normal(100.0, 10.0)
    for steps in (1, np.int64(1), True, 2.0):
        with pytest.raises(ValueError, match="steps must be an integer >= 2"):
            emit_availability_curve(dist, 100.0, steps)
    with pytest.raises(ValueError):
        emit_availability_curve(dist, 0.0, 10)
    with pytest.raises(ValueError):
        emit_availability_curve(dist, math.inf, 10)


# ---------------------------------------------------------------- formatting

def test_format_value_is_lossless_for_floats():
    for x in (0.1, 1.0 / 3.0, 96.01057719598568, 1e-300, 123456789.123456789):
        assert float(format_value(x)) == x
    assert format_value(True) == "true"
    assert format_value(None) == ""
    assert format_value("name") == "name"


def test_rows_to_csv_layout():
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": None}]
    text = rows_to_csv(rows, ["a", "b"])
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,"


def test_rows_to_csv_quotes_cells_per_rfc_4180():
    rows = [{"a": 'north, "east"', "b": 1.5}, {"a": "plain", "b": "line\nbreak"}]
    text = rows_to_csv(rows, ["a", "b"])
    assert text == 'a,b\n"north, ""east""",1.5\nplain,"line\nbreak"\n'


# All-float and all-text columns take rows_to_csv's bulk paths; int columns
# and mixed ones, with bools, None and np.float64, take the per-cell one.
_SPECIAL_TEXT = st.sampled_from([", ", "], [", "a\nb", "a\rb", '"q"', 'x, "y"\r\n', "\u00e9t\u00e9"])
_TEXT = st.text(max_size=6) | _SPECIAL_TEXT
_CSV_COLUMNS = st.sampled_from([
    st.floats(),
    _TEXT,
    st.integers(),
    st.floats() | st.integers() | st.booleans() | st.none() | _TEXT | st.floats().map(np.float64),
])


@given(data=st.data(),
       columns=st.lists(st.text(min_size=1, max_size=4) | _SPECIAL_TEXT, min_size=1, max_size=5,
                        unique=True),
       count=st.sampled_from([0, 1, 2, 37]))
def test_rows_to_csv_matches_the_row_by_row_writer(data, columns, count):
    cells = {col: data.draw(_CSV_COLUMNS) for col in columns}
    optional = set(data.draw(st.lists(st.sampled_from(columns), max_size=2)))
    rows = data.draw(st.lists(
        st.fixed_dictionaries({c: v for c, v in cells.items() if c not in optional},
                              optional={c: cells[c] for c in optional}),
        min_size=count, max_size=count))
    assert rows_to_csv(rows, columns) == oracles.rows_to_csv_rowwise(rows, columns)


_CELLS = st.sampled_from(
    [0, 1, -3, 10**20, -(10**20), 0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 2.5e-310]
) | st.integers() | st.floats()
_ROWS = st.lists(_CELLS, min_size=1, max_size=4)
_TABLES = st.lists(_ROWS | _ROWS.map(tuple), min_size=1, max_size=5)
# lists the fast path must leave alone: empty tables and rows, rows of bools,
# None or text, ragged rows, flat lists of numbers
_NEAR_TABLES = st.lists(
    st.lists(_CELLS | st.booleans() | st.none() | _TEXT, max_size=3), max_size=4
) | st.lists(_CELLS, max_size=3)
_LEAVES = st.none() | st.booleans() | _CELLS | _TEXT | _TABLES | _NEAR_TABLES
_REPORTS = st.recursive(
    st.dictionaries(_TEXT, _LEAVES, max_size=4),
    lambda children: st.dictionaries(_TEXT, _LEAVES | children, max_size=4)
    | st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple),
    max_leaves=12,
)


@given(_REPORTS)
@example({"series": {"a": [(0.0, 0.5, 1.0), (1.0, 1.0, 2.0)], "b": [[1, 2], [3]]}, "n": 2})
@example({"t": [[True, 1.0]], "e": [], "r": [[]], "s": [["], [", 1.0]], "x": {1: [[1.0]]}})
@example({"a\nb": {", ": [[-0.0, math.nan, 10**20]]}, "], [": "x, \"y\"\n"})
@example([{"t": [[1.0]]}])
def test_dumps_report_is_json_dumps_with_indent(obj):
    assert dumps_report(obj) == json.dumps(obj, indent=2)


def test_dumps_report_encodes_tables_compactly_and_other_reports_in_one_call(monkeypatch):
    calls = []
    dumps = json.dumps

    def counting(obj, **kwargs):
        calls.append((obj, kwargs.get("indent")))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    report = {"a": {"b": [1.0, 2.0]}, "rows": [{"c": [[1.0]]}]}
    dumps_report(report)
    assert calls == [(report, 2)]
    calls.clear()
    tables = [(0.0, 0.5, 1.0)] * 3, [[1, 2], [3, 4]]
    dumps_report({"series": {"x": tables[0], "y": tables[1]}, "n": 1})
    assert [obj for obj, indent in calls if indent == 2] == [1]
    assert [obj for obj, indent in calls if isinstance(obj, list)] == list(tables)


def test_report_envelope_fields():
    env = report_envelope("allocate", {"x": 1}, "abc", {"ok": True})
    assert env["tool"] == "fairalloc"
    assert env["version"]
    assert env["command"] == "allocate"
    assert env["input_digest"] == "abc"
    assert env["result"] == {"ok": True}
