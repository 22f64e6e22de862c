import builtins
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from fairalloc import scenario_io
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
    assert rows.shape == (201, 3) and rows.dtype == np.float64
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
    assert np.array_equal(emit_availability_curve(dist, 10.0, np.int64(21)),
                          emit_availability_curve(dist, 10.0, 21))


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
    text = rows_to_csv({"a": [1, 2], "b": np.array([0.5, np.nan])})
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,nan"
    assert rows_to_csv({"a": [1, 2], "b": [0.5, None]}) == "a,b\n1,0.5\n2,\n"


def test_rows_to_csv_quotes_cells_per_rfc_4180():
    text = rows_to_csv({"a": ['north, "east"', "plain"], "b": [1.5, "line\nbreak"]})
    assert text == 'a,b\n"north, ""east""",1.5\nplain,"line\nbreak"\n'


# All-float and all-text columns take rows_to_csv's bulk paths, float64
# arrays its distinct-value one; int columns and mixed ones, with bools,
# None and np.float64, take the per-cell one.
_SPECIAL_TEXT = st.sampled_from([", ", "], [", "a\nb", "a\rb", '"q"', 'x, "y"\r\n', "\u00e9t\u00e9"])
_TEXT = st.text(max_size=6) | _SPECIAL_TEXT
# doubles whose bits or text are easy to confuse: signed zeros, NaN, infinities, subnormals
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                                2.5e-310, 2.2250738585072009e-308, 1e-300, 0.1, 1.0])
_FLOATS = st.floats() | _EDGE_FLOATS
_CSV_COLUMNS = st.sampled_from([
    st.floats(),
    _TEXT,
    st.integers(),
    st.floats() | st.integers() | st.booleans() | st.none() | _TEXT | st.floats().map(np.float64),
])


@given(data=st.data(),
       headers=st.lists(st.text(min_size=1, max_size=4) | _SPECIAL_TEXT, min_size=1, max_size=5,
                        unique=True),
       count=st.sampled_from([0, 1, 2, 37]))
def test_rows_to_csv_matches_the_row_by_row_writer(data, headers, count):
    arrays = set(data.draw(st.lists(st.sampled_from(headers), max_size=2)))
    columns = {
        col: np.array(data.draw(st.lists(_FLOATS, min_size=count, max_size=count)))
        if col in arrays else data.draw(st.lists(data.draw(_CSV_COLUMNS), min_size=count, max_size=count))
        for col in headers
    }
    rows = [{col: values[i] for col, values in columns.items()} for i in range(count)]
    expected = oracles.rows_to_csv_rowwise(
        [{col: float(v) if col in arrays else v for col, v in row.items()} for row in rows], headers)
    assert rows_to_csv(columns) == expected


_CELLS = st.sampled_from(
    [0, 1, -3, 10**20, -(10**20), 0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 2.5e-310]
) | st.integers() | st.floats()
_ROWS = st.lists(_CELLS, min_size=1, max_size=4)
_LISTS = st.lists(_ROWS | _ROWS.map(tuple) | _CELLS | st.booleans() | st.none() | _TEXT, max_size=4)
# 2-D float arrays, 1x1 and 1xk among them; empty, 1-D and int arrays, and
# arrays in lists or under non-str keys, take the plain path
_ARRAYS = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(_FLOATS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    .map(lambda cells: np.array(cells, dtype=np.float64).reshape(shape))
) | st.sampled_from([np.empty((0, 3)), np.empty((2, 0)), np.array([1.5, -0.0]), np.array([[1, 2]])])
_LEAVES = st.none() | st.booleans() | _CELLS | _TEXT | _LISTS | _ARRAYS
_REPORTS = st.recursive(
    st.dictionaries(_TEXT, _LEAVES, max_size=4),
    lambda children: st.dictionaries(_TEXT, _LEAVES | children, max_size=4)
    | st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple),
    max_leaves=12,
)


def _as_lists(obj):
    """obj with each ndarray in it replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if type(obj) in (list, tuple):
        return list(map(_as_lists, obj))
    return {key: _as_lists(value) for key, value in obj.items()} if type(obj) is dict else obj


_TWICE = np.array([[0.0, -0.0, math.nan], [math.inf, -math.inf, 5e-324]])


@given(_REPORTS)
@example({"series": {"a": np.array([[0.0, 0.5, 1.0], [1.0, 1.0, 2.0]]), "b": [[1, 2], [3]]}, "n": 2})
@example({"a": _TWICE, "b": {"c": _TWICE, "d": np.array([[2.5e-310]])}, "e": np.array([[1.0, 2.0, 3.0]])})
@example({"a\nb": {", ": np.array([[-0.0, math.nan, 1e20]])}, "], [": "x, \"y\"\n"})
@example({"t": [[True, 1.0]], "e": [], "r": [[]], "s": [["], [", 1.0]], "x": {1: [[1.0]]}})
@example({"x": {1: np.array([[1.0]])}, "y": [np.array([[0.5, -0.0]])], "z": np.array([[1, 2]])})
@example([{"t": [[1.0]], "a": np.array([[1.0]])}])
def test_dumps_report_is_json_dumps_with_indent(obj):
    assert dumps_report(obj) == json.dumps(_as_lists(obj), indent=2)


def _counting(monkeypatch, module, name):
    """The arguments of every call to module.name from here on."""
    calls = []
    real = getattr(module, name, getattr(builtins, name, None))

    def counting(value, *args, **kwargs):
        calls.append(value)
        return real(value, *args, **kwargs)

    monkeypatch.setattr(module, name, counting, raising=False)
    return calls


def test_a_seven_group_curve_report_formats_each_distinct_double_once(monkeypatch):
    sf = load_scenario_file((pathlib.Path(__file__).parent / "golden" / "scenarios"
                             / "mix7_rz09.json").read_text())
    series = {g.name: emit_availability_curve(g.dist, 400.0, 2001) for g in sf.scenario.groups}
    cells = np.concatenate([a.ravel() for a in series.values()])
    distinct = np.unique(cells.view(np.int64)).tolist()
    assert len(distinct) < cells.size / 2
    report = {"result": {"v_max": 400.0, "steps": 2001, "series": series}, "tool": "fairalloc"}
    expected = json.dumps(_as_lists(report), indent=2)
    calls = _counting(monkeypatch, json, "dumps")
    assert dumps_report(report) == expected
    [numbers] = [obj for obj in calls if isinstance(obj, list)]
    assert sorted(np.array(numbers).view(np.int64).tolist()) == distinct
    # the CSV's float columns hold the same doubles
    table = np.concatenate(list(series.values()))
    formatted = _counting(monkeypatch, scenario_io, "format")
    rows_to_csv({"v": table[:, 0], "availability": table[:, 1], "expected_min": table[:, 2]})
    assert sorted(np.array(formatted).view(np.int64).tolist()) == distinct
    # a report without arrays is one call
    calls.clear()
    plain = {"a": {"b": [1.0, 2.0]}, "rows": [{"c": [[1.0]]}]}
    dumps_report(plain)
    assert calls == [plain]


def test_rows_to_csv_formats_each_distinct_double_of_its_float_arrays_once(monkeypatch):
    formatted = _counting(monkeypatch, scenario_io, "format")
    columns = {"x": np.array([0.5, -0.0, 0.5, math.nan]), "n": [1, 2, 3, 4],
               "y": np.array([0.0, 0.5, -0.0, 2.0])}
    assert rows_to_csv(columns) == "x,n,y\n0.5,1,0\n-0,2,0.5\n0.5,3,-0\nnan,4,2\n"
    assert len(formatted) == 5


def test_report_envelope_fields():
    env = report_envelope("allocate", {"x": 1}, "abc", {"ok": True})
    assert env["tool"] == "fairalloc"
    assert env["version"]
    assert env["command"] == "allocate"
    assert env["input_digest"] == "abc"
    assert env["result"] == {"ok": True}
