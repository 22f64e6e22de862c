import csv
import io
import json
import pathlib

import numpy as np
import pytest

import oracles
from fairalloc import Scenario, __version__, pof, scenario_certificate, scenario_io
from fairalloc import allocation as allocation_module
from fairalloc import cli
from fairalloc.cli import DEFAULT_SEED, EXIT_OK, EXIT_OPTIMIZER, EXIT_VALIDATION, main
from fairalloc.distributions import Binomial, DemandDistribution, Poisson
from fairalloc.scenario_io import format_value, load_scenario_path

# Sets epsilon 0.1, at which its certificate's delta is 0.38.
GOLDEN_POISSON = pathlib.Path(__file__).parent / "golden" / "scenarios" / "poisson.json"


@pytest.fixture
def poisson3(tmp_path):
    path = tmp_path / "poisson3.json"
    path.write_text(
        json.dumps(
            {
                "resource": 500,
                "groups": [
                    {"name": "g0", "distribution": {"kind": "poisson", "lambda": 200}},
                    {"name": "g1", "distribution": {"kind": "poisson", "lambda": 400}},
                    {"name": "g2", "distribution": {"kind": "poisson", "lambda": 400}},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def constants(tmp_path):
    path = tmp_path / "constants.json"
    path.write_text(
        json.dumps(
            {
                "resource": 20,
                "groups": [
                    {"name": "a", "distribution": {"kind": "constant", "c": 10}},
                    {"name": "b", "distribution": {"kind": "constant", "c": 30}},
                ],
            }
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_allocate_mean_weighted(capsys, poisson3):
    code, out, err = run(capsys, "allocate", "--scenario", poisson3)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["tool"] == "fairalloc"
    assert report["command"] == "allocate"
    values = [g["allocation"] for g in report["result"]["groups"]]
    assert values == [100.0, 200.0, 200.0]
    assert "mean-weighted" in err


def test_allocate_csv(capsys, poisson3):
    code, out, _ = run(capsys, "allocate", "--scenario", poisson3, "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "group,mean,allocation,tool_version,input_digest"
    assert lines[1].startswith("g0,200,100,")
    assert len(lines) == 4


@pytest.mark.parametrize("command, header", [
    ("optimize", "group,v_max_utilization,max_utilization,tool_version,input_digest"),
    ("evaluate", "group,v,q,utilization,fairness,tool_version,input_digest"),
])
def test_csv_header_without_alpha_or_epsilon(capsys, poisson3, command, header):
    # poisson3 sets no defaults: optimize runs without alpha, evaluate without epsilon
    code, out, _ = run(capsys, command, "--scenario", poisson3, "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == header
    assert len(lines) == 4


def test_evaluate_default_allocation_with_bounds(capsys, poisson3):
    code, out, _ = run(
        capsys, "evaluate", "--scenario", poisson3, "--epsilon", "0.1", "--alpha", "0.25"
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["bounds"]["fairness_ok"] is True
    assert result["bounds"]["utilization_ok"] is True
    assert result["bounds"]["pof_bound"] == pytest.approx(4.0 / 3.0)
    assert len(result["groups"]) == 3


def test_evaluate_without_epsilon_omits_bounds(capsys, poisson3):
    code, out, _ = run(capsys, "evaluate", "--scenario", poisson3)
    assert code == EXIT_OK
    assert json.loads(out)["result"]["bounds"] is None


def test_evaluate_explicit_allocation(capsys, poisson3):
    code, out, _ = run(
        capsys, "evaluate", "--scenario", poisson3, "--allocation", "50,225,225"
    )
    assert code == EXIT_OK
    groups = json.loads(out)["result"]["groups"]
    assert [g["allocation"] for g in groups] == [50.0, 225.0, 225.0]


def test_evaluate_rejects_mismatched_allocation(capsys, poisson3):
    code, _, err = run(
        capsys, "evaluate", "--scenario", poisson3, "--allocation", "50,450"
    )
    assert code == EXIT_VALIDATION
    assert "entries" in err
    for text in ("1,x", ""):
        code, out, err = run(capsys, "evaluate", "--scenario", poisson3, "--allocation", text)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert f"--allocation must be comma-separated numbers, got {text!r}" in err


@pytest.mark.parametrize("command", ["evaluate", "mc-check"])
def test_negative_allocation_entry_is_rejected_at_a_tiny_budget(capsys, tmp_path, command):
    # -1e-10 is 1e290 times R below zero; it was once clamped to 0 and scored
    law = {"kind": "constant", "c": 1e-300}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"resource": 1e-300, "groups": [
        {"name": "a", "distribution": law}, {"name": "b", "distribution": law}]}))
    code, out, err = run(capsys, command, "--scenario", str(path), "--allocation=-1e-10,1e-300")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "allocation entries must be finite and >= 0, got -1e-10" in err


@pytest.mark.parametrize("command, c", [
    (command, c) for command in ("allocate", "evaluate", "mc-check", "optimize", "pof")
    for c in (1e-300, 1e200)
])
def test_mean_shares_sum_to_the_budget_at_extreme_units_of_demand(capsys, tmp_path, command, c):
    # regression: the product R mu_i in R mu_i / Z, and the saturation
    # shortcut's excess mu_i, read 0 at 1e-300 (allocate wrote 0.0, 0.0 and
    # the rest exited 1) and inf at 1e200 (every command exited 1); mc-check's
    # squared draws read 0 at 1e-300, so every SE was 0 and three rows read
    # |z| 19-27 at 20,000 samples, and overflowed at 1e200
    if command in ("optimize", "pof"):
        # both supports fit in the budget: each group gets c plus half the excess
        resource, laws = 3.0 * c, [{"kind": "constant", "c": c}] * 2
    else:
        resource, laws = c, [{"kind": "exponential", "mean": c}, {"kind": "constant", "c": c}]
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"resource": resource, "groups": [
        {"name": f"g{i}", "distribution": law} for i, law in enumerate(laws)]}))
    extra = {"mc-check": ["--samples", "20000"], "optimize": ["--alpha", "0.05"],
             "pof": ["--alpha", "0.05"]}.get(command, [])
    code, out, _ = run(capsys, command, "--scenario", str(path), *extra)
    assert code == EXIT_OK
    doc = json.loads(out)
    result = doc["result"]
    if command == "allocate":
        allocations = [[g["allocation"] for g in result["groups"]]]
    elif command == "optimize":
        allocations = [result[key]["allocation"] for key in ("max_utilization", "alpha_fair")]
    elif command == "pof":
        allocations = [result["max_utilization_allocation"], result["alpha_fair_allocation"]]
    else:
        allocations = [doc["settings"]["allocation"]]
    for values in allocations:
        assert abs(sum(values) - resource) <= 1e-9 * resource
    if command == "mc-check":
        assert result["all_ok"] is True


@pytest.mark.parametrize("epsilon", [[], ["--epsilon", "0.1"]])
@pytest.mark.parametrize("alpha", ["nan", "-1", "inf"])
def test_evaluate_rejects_invalid_alpha(capsys, poisson3, epsilon, alpha):
    code, out, err = run(capsys, "evaluate", "--scenario", poisson3, *epsilon, "--alpha", alpha)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "alpha must be >= 0" in err


def test_optimize_reports_both_optima(capsys, poisson3):
    code, out, _ = run(capsys, "optimize", "--scenario", poisson3, "--alpha", "0.1")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["max_utilization"]["utilization"] >= result["alpha_fair"]["utilization"] - 1e-9
    assert result["alpha_fair"]["fairness"] <= 0.1 + 1e-6


def test_optimize_at_a_tiny_unit_of_demand_meets_alpha(capsys, tmp_path):
    # regression: at R = 1e-300 the absolute 1e-9 tolerances swallowed the
    # whole budget and the sweep's fairness 0.079 exited 2, a false non-convergence
    path = tmp_path / "tiny.json"
    groups = [{"name": "e", "distribution": {"kind": "exponential", "mean": 1e-300}},
              {"name": "c", "distribution": {"kind": "constant", "c": 1e-300}}]
    path.write_text(json.dumps({"resource": 1e-300, "groups": groups}))
    code, out, _ = run(capsys, "optimize", "--scenario", str(path), "--alpha", "0.05")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["alpha_fair"]["fairness"] <= 0.05 + 1e-6


def test_optimize_solves_max_utilization_once(capsys, poisson3, monkeypatch):
    # both optima come from one set of curves and one unconstrained fill
    prologues, max_fills = [], []
    prologue, max_fill = allocation_module._prologue, allocation_module._max_fill

    def counting_prologue(scenario):
        prologues.append(scenario)
        return prologue(scenario)

    def counting_max_fill(*args):
        max_fills.append(args)
        return max_fill(*args)

    monkeypatch.setattr(allocation_module, "_prologue", counting_prologue)
    monkeypatch.setattr(allocation_module, "_max_fill", counting_max_fill)
    code, _, _ = run(capsys, "optimize", "--scenario", poisson3, "--alpha", "0.1")
    assert code == EXIT_OK
    assert (len(prologues), len(max_fills)) == (1, 1)


def test_optimize_without_alpha_skips_constrained_run(capsys, poisson3):
    code, out, _ = run(capsys, "optimize", "--scenario", poisson3)
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["alpha_fair"] is None
    assert result["max_utilization"]["utilization"] > 0


def test_certify_table(capsys, poisson3):
    code, out, _ = run(
        capsys, "certify", "--scenario", poisson3, "--epsilon", "0.1",
        "--delta", "0.1", "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("group,mean,method,delta_exact,delta_chernoff,threshold,ok")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "g0"
    assert 0.08 < float(first[3]) < 0.085  # exact delta for the smallest mean
    assert float(first[4]) > float(first[3])  # Chernoff is looser
    assert first[6] == "true"


@pytest.mark.parametrize("delta", ["nan", "5", "-1", "0"])
def test_certify_rejects_delta_outside_unit_interval(capsys, tmp_path, delta):
    # exponential groups have no Chernoff threshold, the only place that
    # used to check --delta
    path = tmp_path / "exponential.json"
    groups = [{"name": n, "distribution": {"kind": "exponential", "mean": m}}
              for n, m in (("a", 10), ("b", 25))]
    path.write_text(json.dumps({"resource": 30, "groups": groups}))
    code, out, err = run(capsys, "certify", "--scenario", str(path), "--epsilon", "0.1",
                         "--delta", delta)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "delta must be in (0, 1)" in err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--epsilon", "0.1"],
    ["certify", "--epsilon", "0.1"],
    ["pof", "--alpha", "0.1", "--epsilon", "0.1"],
], ids=["evaluate", "certify", "pof"])
@pytest.mark.parametrize("law", [
    {"kind": "two_point", "k": 1e17},
    {"kind": "empirical", "values": [0, 1e18], "probabilities": [1.0, 1e-17]},
], ids=["two_point", "lottery"])
def test_certificate_whose_delta_rounds_to_one_names_the_group(capsys, tmp_path, argv, law):
    # regression: Pr[C <= 0.9 E[C]] = 1 - 1e-17 rounds to 1, and the error
    # was "delta must be in [0, 1), got 1.0", about a delta nobody gave
    path = tmp_path / "lottery.json"
    groups = [{"name": "rare", "distribution": law},
              {"name": "steady", "distribution": {"kind": "poisson", "lambda": 2}}]
    path.write_text(json.dumps({"resource": 3, "groups": groups}))
    code, out, err = run(capsys, argv[0], "--scenario", str(path), *argv[1:])
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "group 'rare'" in err
    assert "epsilon=0.1" in err


def test_certify_requires_epsilon(capsys, poisson3):
    code, _, err = run(capsys, "certify", "--scenario", poisson3)
    assert code == EXIT_VALIDATION
    assert "epsilon" in err


def test_pof_constants_is_one(capsys, constants):
    code, out, _ = run(capsys, "pof", "--scenario", constants, "--alpha", "0")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["pof"] == pytest.approx(1.0, abs=1e-9)


def test_pof_requires_alpha(capsys, constants):
    code, _, err = run(capsys, "pof", "--scenario", constants)
    assert code == EXIT_VALIDATION
    assert "alpha" in err


def test_pof_alpha_from_scenario_defaults(capsys, tmp_path):
    path = tmp_path / "with_defaults.json"
    path.write_text(
        json.dumps(
            {
                "resource": 20,
                "groups": [{"name": "a", "distribution": {"kind": "constant", "c": 40}}],
                "defaults": {"alpha": 0.5},
            }
        )
    )
    code, out, _ = run(capsys, "pof", "--scenario", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["settings"]["alpha"] == 0.5
    # a default is one cell, kept as written: an int alpha stays an int
    raw = json.loads(path.read_text())
    path.write_text(json.dumps({**raw, "defaults": {"alpha": 0}}))
    code, out, _ = run(capsys, "pof", "--scenario", str(path))
    assert code == EXIT_OK
    assert '"alpha": 0,' in out and isinstance(json.loads(out)["result"], dict)


def test_flag_beats_scenario_default_beats_built_in(capsys, poisson3, tmp_path):
    # with neither a flag nor a default, mc-check's built-in seed is checked by
    # test_mc_check_seed_does_not_carry_over_to_the_next_call
    raw = json.loads(pathlib.Path(poisson3).read_text())
    path = tmp_path / "with_defaults.json"
    path.write_text(json.dumps({**raw, "defaults": {"epsilon": 0.2, "seed": 7, "samples": 1000}}))
    path = str(path)

    def settings(*argv):
        code, out, _ = run(capsys, *argv, "--scenario", path)
        assert code == EXIT_OK
        return json.loads(out)["settings"]

    mc = settings("mc-check")
    assert (mc["seed"], mc["samples"]) == (7, 1000)
    mc = settings("mc-check", "--seed", "3")
    assert (mc["seed"], mc["samples"]) == (3, 1000)
    assert settings("certify")["epsilon"] == 0.2
    assert settings("certify", "--epsilon", "0.1")["epsilon"] == 0.1
    assert settings("allocate") == {"scenario": path}
    reports = [json.loads(run(capsys, "allocate", "--scenario", p)[1]) for p in (path, poisson3)]
    assert reports[0]["result"] == reports[1]["result"]


def test_pof_with_certificate_bounds(capsys, poisson3):
    code, out, _ = run(
        capsys, "pof", "--scenario", poisson3, "--alpha", "0.25", "--epsilon", "0.1"
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["bound_1_plus_2alpha"] == pytest.approx(1.5)
    assert result["pof"] <= 1.5 + 1e-3
    assert result["certificate"]["method"] == "exact_cdf"


def pof_grid_cells(capsys, *flags):
    code, out, _ = run(capsys, "pof", "--scenario", str(GOLDEN_POISSON), "--format", "csv",
                       "--r-over-z", "0.5,1.2", "--alpha", "0.05,0.49", *flags)
    assert code == EXIT_OK
    header, *rows = csv.reader(io.StringIO(out))
    return [dict(zip(header, row)) for row in rows]


def test_pof_grid_writes_one_row_per_ratio_and_alpha(capsys):
    cells = pof_grid_cells(capsys)
    assert [(float(c["r_over_z"]), float(c["alpha"])) for c in cells] == [
        (0.5, 0.05), (0.5, 0.49), (1.2, 0.05), (1.2, 0.49)]
    base = load_scenario_path(str(GOLDEN_POISSON)).scenario
    cert = scenario_certificate(base, 0.1)
    for cell in cells:
        ratio, alpha = float(cell["r_over_z"]), float(cell["alpha"])
        sc = Scenario(resource=ratio * base.total_mean, groups=base.groups)
        expected = {"r_over_z": ratio, "resource": sc.resource,
                    **pof(sc, alpha, certificate=cert).to_row()}
        assert {key: cell[key] for key in expected} == {
            key: format_value(value) for key, value in expected.items()}


def test_pof_grid_bounds_are_empty_exactly_below_eps_plus_delta(capsys):
    cells = pof_grid_cells(capsys)
    base = load_scenario_path(str(GOLDEN_POISSON)).scenario
    tail_sum = 0.1 + scenario_certificate(base, 0.1).delta  # 0.48, below 1/2
    below = [float(c["alpha"]) < tail_sum for c in cells]
    assert below == [True, False, True, False]
    for cell, empty in zip(cells, below):
        assert (cell["bound_1_over_1_minus_alpha"] == "") == empty
        assert (cell["bound_1_plus_2alpha"] == "") == empty


@pytest.mark.parametrize("flags, alpha", [
    (["--r-over-z", "0.5,1.2", "--alpha", "0.05,0.49"], [0.05, 0.49]),
    (["--alpha", "0.05,0.49"], [0.05, 0.49]),
    (["--r-over-z", "1.2", "--alpha", "0.05"], 0.05),
], ids=["ratios-and-alphas", "alphas-only", "one-ratio"])
def test_pof_grid_json_has_one_entry_per_cell(capsys, flags, alpha):
    code, out, _ = run(capsys, "pof", "--scenario", str(GOLDEN_POISSON), *flags)
    assert code == EXIT_OK
    report = json.loads(out)
    ratios = report["settings"].get("r_over_z")
    assert report["settings"]["alpha"] == alpha
    alphas = alpha if isinstance(alpha, list) else [alpha]
    assert len(report["result"]) == len(ratios or [None]) * len(alphas)
    singles = {a: json.loads(run(capsys, "pof", "--scenario", str(GOLDEN_POISSON),
                                 "--alpha", str(a))[1])["result"] for a in alphas}
    base = load_scenario_path(str(GOLDEN_POISSON)).scenario
    for i, entry in enumerate(report["result"]):
        assert entry["alpha"] == alphas[i % len(alphas)]
        if ratios is None:
            # no --r-over-z: the scenario's own budget, the single report's result
            assert entry == singles[entry["alpha"]]
        else:
            lead = {"r_over_z": ratios[i // len(alphas)],
                    "resource": ratios[i // len(alphas)] * base.total_mean}
            assert list(entry)[:2] == list(lead) and entry.items() >= lead.items()
            assert list(entry)[2:] == list(singles[entry["alpha"]])


INFEASIBLE = {
    "resource": 1.0,
    "groups": [
        {"name": "wide", "distribution": {"kind": "normal", "mu": 1, "sigma": 100}},
        {"name": "narrow", "distribution": {"kind": "normal", "mu": 1, "sigma": 0.01}},
    ],
}


@pytest.mark.parametrize("flags, fault, code, message", [
    (["--alpha", "1.0"], None, EXIT_VALIDATION, "pof requires 0 <= alpha < 1, got 1.0"),
    (["--r-over-z", "1.0", "--alpha", "0.05"], "infeasible", EXIT_VALIDATION,
     "infeasible: no availability floor admits a feasible fairness band for alpha=0.05"),
    (["--r-over-z", "x"], None, EXIT_VALIDATION,
     "--r-over-z must be comma-separated numbers, got 'x'"),
    ([], "missing", EXIT_VALIDATION, "[Errno 2] No such file or directory"),
    ([], "stalled", EXIT_OPTIMIZER, "optimizer error: stalled"),
], ids=["alpha-one", "infeasible-cell", "bad-ratio", "missing-file", "no-convergence"])
def test_pof_grid_reports_errors_without_a_traceback(capsys, tmp_path, monkeypatch, flags, fault,
                                                     code, message):
    path = GOLDEN_POISSON
    if fault == "infeasible":
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(INFEASIBLE))
    elif fault == "missing":
        path = tmp_path / "missing.json"
    elif fault == "stalled":
        def stalled_pof(*args, **kwargs):
            raise allocation_module.ConvergenceError("stalled")
        monkeypatch.setattr(allocation_module, "pof", stalled_pof)
    status, out, err = run(capsys, "pof", "--scenario", str(path),
                           "--r-over-z", "0.5,1.2", "--alpha", "0.05,0.49", *flags)
    assert (status, out) == (code, "")
    assert err.splitlines()[-1].startswith(f"fairalloc: {message}")
    assert "Traceback" not in err


def test_curve_csv_monotone(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(
        json.dumps(
            {
                "resource": 100,
                "groups": [
                    {"name": "const", "distribution": {"kind": "constant", "c": 100}},
                    {"name": "gauss", "distribution": {"kind": "normal", "mu": 100, "sigma": 10}},
                ],
            }
        )
    )
    code, out, _ = run(
        capsys, "curve", "--scenario", str(path), "--v-max", "200", "--steps", "201",
        "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("group,v,availability,expected_min")
    assert len(lines) == 1 + 2 * 201
    by_group = {}
    for line in lines[1:]:
        name, v, q, em = line.split(",")[:4]
        by_group.setdefault(name, []).append(float(q))
    for qs in by_group.values():
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
    assert by_group["const"][-1] == pytest.approx(1.0, abs=1e-9)
    assert by_group["gauss"][-1] >= 0.999


def test_curve_default_grid_end_stays_finite_past_half_the_largest_double(capsys, tmp_path):
    # regression: twice a mean of 1e308 is inf, and curve exited 1 naming --v-max
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"resource": 1e308, "groups": [
        {"name": "a", "distribution": {"kind": "constant", "c": 1e308}}]}))
    code, out, err = run(capsys, "curve", "--scenario", str(path), "--steps", "5")
    assert code == EXIT_OK, err
    result = json.loads(out)["result"]
    assert result["v_max"] == 1.7976931348623157e308
    assert result["series"]["a"][-1] == [1.7976931348623157e308, 1.0, 1e308]


@pytest.mark.parametrize("steps", [2 ** 62, 2 ** 63])
def test_curve_rejects_step_counts_numpy_cannot_index(capsys, poisson3, steps):
    # regression: 2^63 made an empty grid and died with an IndexError
    # traceback, and 2^62 exited 1 with numpy's "array is too big"
    code, out, err = run(capsys, "curve", "--scenario", poisson3, "--steps", str(steps))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith(f"fairalloc: steps must be an integer >= 2 and <= {2 ** 60 - 1}, got {steps}")
    assert "Traceback" not in err


MIX7 = pathlib.Path(__file__).parent / "golden" / "scenarios" / "mix7_rz09.json"


def test_curve_reports_at_benchmark_size_round_trip(capsys):
    # seven families at the benchmark's 2,001 steps: 14,007 rows
    sf = scenario_io.load_scenario_path(str(MIX7))
    argv = ["curve", "--scenario", str(MIX7), "--steps", "2001"]
    code, text, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    result = json.loads(text)["result"]
    tables = {g.name: scenario_io.emit_availability_curve(g.dist, result["v_max"], 2001)
              for g in sf.scenario.groups}
    for name, table in tables.items():
        # bit for bit, so -0.0 and NaN payloads count too
        assert np.array_equal(np.array(result["series"][name]).view(np.int64), table.view(np.int64))
    code, text, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    rows = [{"group": name, "v": v, "availability": q, "expected_min": em,
             "tool_version": __version__, "input_digest": sf.digest}
            for name, table in tables.items() for v, q, em in table.tolist()]
    assert text == oracles.rows_to_csv_rowwise(rows, list(rows[0]))


@pytest.mark.parametrize("command,flags,key", [
    ("allocate", [], "group"),
    ("certify", ["--epsilon", "0.2", "--delta", "0.05"], "group"),
    ("curve", ["--steps", "3"], "group"),
    ("mc-check", ["--samples", "1000"], "quantity"),
])
def test_csv_cells_holding_commas_quotes_and_newlines_are_quoted(capsys, tmp_path, command, flags,
                                                                 key):
    names = ['north, "east"', "line\nbreak", "plain"]
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"resource": 60, "groups": [
        {"name": name, "distribution": {"kind": "poisson", "lambda": 30}} for name in names]}))
    code, out, _ = run(capsys, command, "--scenario", str(path), "--format", "csv", *flags)
    assert code == EXIT_OK
    header, *rows = csv.reader(io.StringIO(out))
    assert all(len(row) == len(header) for row in rows)
    cells = [row[header.index(key)] for row in rows]
    for name in names:
        assert any(cell == name or cell.endswith(f"[{name}]") for cell in cells)


def test_mc_check_reports_pass_column(capsys, poisson3):
    code, out, _ = run(
        capsys, "mc-check", "--scenario", poisson3, "--samples", "20000", "--seed", "42"
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["all_ok"] is True
    quantities = [row["quantity"] for row in result["rows"]]
    assert "expected_min[g0]" in quantities
    assert "availability[g1]" in quantities
    assert "utilization" in quantities
    for row in result["rows"]:
        assert abs(row["z_score"]) <= 4.0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_mc_check_computes_each_expected_min_once(capsys, poisson3, monkeypatch, fmt):
    # one exact E[min] per group serves its expected_min, availability and
    # utilization rows (they made 3n calls)
    calls = []
    expected_min = DemandDistribution.expected_min

    def counting_expected_min(self, v):
        calls.append(v)
        return expected_min(self, v)

    monkeypatch.setattr(DemandDistribution, "expected_min", counting_expected_min)
    code, _, _ = run(capsys, "mc-check", "--scenario", poisson3, "--samples", "1000",
                     "--format", fmt)
    assert code == EXIT_OK
    assert len(calls) == 3


@pytest.fixture
def poisson_normal(tmp_path):
    path = tmp_path / "poisson_normal.json"
    path.write_text(json.dumps({"resource": 130, "groups": [
        {"name": "p", "distribution": {"kind": "poisson", "lambda": 200}},
        {"name": "n", "distribution": {"kind": "normal", "mu": 40, "sigma": 8}},
    ]}))
    return str(path)


def test_mc_check_rows_with_every_draw_clipped_read_ok(capsys, poisson_normal):
    # Pr[C < 130] = 5.2e-8 for Poisson(200) and Pr[C < 0] = 2.9e-7 for the
    # Normal, so no draw of 100k falls below v: every sample SE is 0 while
    # the exact values lie 1.4e-7 and 4.3e-7 below the sampled ones
    code, out, _ = run(capsys, "mc-check", "--scenario", poisson_normal,
                       "--allocation", "130,0", "--samples", "100000")
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["all_ok"] is True
    for row in result["rows"]:
        assert row["se"] == 0.0 and row["mc_value"] != row["exact"]
        assert row["se_floor"] > 0.0 and abs(row["z_score"]) < 0.1


@pytest.mark.parametrize("kind", ["poisson", "binomial"])
def test_mc_check_flags_a_sampler_whose_mean_is_off_by_0_2_percent(capsys, tmp_path, monkeypatch,
                                                                    kind):
    spec = {"poisson": {"kind": "poisson", "lambda": 200},
            "binomial": {"kind": "binomial", "n": 1000, "p": 0.5}}[kind]
    path = tmp_path / "one.json"
    # at v = the mean, half the draws fall below v and carry the shift
    path.write_text(json.dumps({"resource": 200 if kind == "poisson" else 500,
                                "groups": [{"name": "g", "distribution": spec}]}))
    law = {"poisson": Poisson, "binomial": Binomial}[kind]
    honest = law.sample
    skewed = Poisson(200.0 * 1.002) if kind == "poisson" else Binomial(1000, 0.5 * 1.002)
    monkeypatch.setattr(law, "sample", lambda self, rng, size=None: honest(skewed, rng, size))
    code, out, _ = run(capsys, "mc-check", "--scenario", str(path))
    assert code == EXIT_OK
    rows = json.loads(out)["result"]["rows"]
    # |z| reads 24.8 (Poisson) and 55.4 (Binomial); the SE floor is 3.5e-4 and 8.7e-4
    assert all(abs(row["z_score"]) > 20.0 and not row["ok"] for row in rows)


def test_mc_check_rejects_overflowing_draws_without_a_report(capsys, tmp_path):
    # regression: the command exited 0 with "mc_value": -Infinity and
    # "se": NaN, which is not JSON
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"resource": 1e308, "groups": [
        {"name": "a", "distribution": {"kind": "normal", "mu": 1e308, "sigma": 5.39e307}}]}))
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "mc-check", "--scenario", str(path), "--samples", "1000",
                         "--output", str(target))
    assert code == EXIT_VALIDATION
    assert out == "" and not target.exists()
    assert "overflow" in err


def test_mc_check_negative_seed_names_the_flag(capsys, poisson3):
    code, out, err = run(capsys, "mc-check", "--scenario", poisson3, "--seed", "-5")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert "--seed must be >= 0, got -5" in err


def test_reports_are_byte_identical_across_runs(capsys, poisson3):
    _, out1, _ = run(capsys, "mc-check", "--scenario", poisson3, "--samples", "10000")
    _, out2, _ = run(capsys, "mc-check", "--scenario", poisson3, "--samples", "10000")
    assert out1 == out2


def test_output_file_option(capsys, tmp_path, poisson3):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "allocate", "--scenario", poisson3, "--output", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    assert err.strip()
    assert json.loads(target.read_text())["command"] == "allocate"


def test_missing_scenario_file_is_validation_error(capsys):
    code, _, err = run(capsys, "allocate", "--scenario", "/nonexistent/sc.json")
    assert code == EXIT_VALIDATION
    assert err


def test_invalid_scenario_is_validation_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"resource": -5, "groups": []}')
    code, _, err = run(capsys, "allocate", "--scenario", str(path))
    assert code == EXIT_VALIDATION
    assert "resource" in err


@pytest.mark.parametrize("entry", [{}, "3", True])
def test_non_numeric_empirical_entry_is_validation_error(capsys, tmp_path, entry):
    path = tmp_path / "bad.json"
    dist = {"kind": "empirical", "values": [entry], "probabilities": [1]}
    path.write_text(json.dumps({"resource": 5, "groups": [{"name": "a", "distribution": dist}]}))
    code, out, err = run(capsys, "allocate", "--scenario", str(path))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert ".groups[0].distribution.values[0]: expected a number" in err


@pytest.mark.parametrize(
    "command,flag",
    [
        ("pof", ["--bogus"]),
        ("pof", ["--ell-grid", "64"]),
        ("pof", ["--refine-iterations", "16"]),
        # flags that exist on other commands but that this command does not read
        ("allocate", ["--alpha", "0.1"]),
        ("optimize", ["--epsilon", "0.1"]),
        ("certify", ["--seed", "1"]),
        ("pof", ["--samples", "100"]),
        ("curve", ["--method", "exact_cdf"]),
        ("mc-check", ["--alpha", "0.1"]),
        ("evaluate", ["--steps", "5"]),
        ("optimize", ["--r-over-z", "1"]),
    ],
)
def test_unknown_flag_is_validation_error(capsys, poisson3, command, flag):
    extra = ["--alpha", "0.1"] if command == "pof" else ["--epsilon", "0.1"] if command == "certify" else []
    code, _, err = run(capsys, command, "--scenario", poisson3, *extra, *flag)
    assert code == EXIT_VALIDATION
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "error,expected",
    [
        (allocation_module.ConvergenceError, EXIT_OPTIMIZER),
        # infeasible constraints are a property of the input
        (allocation_module.InfeasibleError, EXIT_VALIDATION),
    ],
)
def test_optimizer_failure_exit_codes(capsys, poisson3, monkeypatch, error, expected):
    def boom(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setattr(allocation_module, "_optima", boom)
    code, _, err = run(capsys, "optimize", "--scenario", poisson3)
    assert code == expected
    assert "forced failure" in err


def test_repeated_calls_build_the_parser_once(capsys, poisson3, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert run(capsys, "allocate", "--scenario", poisson3)[0] == EXIT_OK
    first = len(built)
    assert run(capsys, "curve", "--scenario", poisson3, "--steps", "5")[0] == EXIT_OK
    assert run(capsys, "mc-check", "--scenario", poisson3, "--samples", "1000")[0] == EXIT_OK
    assert len(built) == first


def test_curve_steps_do_not_carry_over_to_the_next_call(capsys, poisson3):
    assert run(capsys, "curve", "--scenario", poisson3, "--steps", "5")[0] == EXIT_OK
    code, out, _ = run(capsys, "curve", "--scenario", poisson3)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["settings"]["steps"] == 201
    assert [len(rows) for rows in report["result"]["series"].values()] == [201, 201, 201]


def test_mc_check_seed_does_not_carry_over_to_the_next_call(capsys, poisson3):
    argv = ("mc-check", "--scenario", poisson3, "--samples", "1000")
    assert json.loads(run(capsys, *argv, "--seed", "7")[1])["settings"]["seed"] == 7
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["settings"]["seed"] == DEFAULT_SEED


def test_rejected_calls_leave_the_next_report_unchanged(capsys, poisson3):
    _, first, _ = run(capsys, "allocate", "--scenario", poisson3)
    code, out, err = run(capsys, "allocate", "--scenario", poisson3, "--alpha", "0.1")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "unrecognized arguments: --alpha 0.1" in err
    code, out, err = run(capsys, "allocate")
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "the following arguments are required: --scenario" in err
    code, out, _ = run(capsys, "allocate", "--scenario", poisson3)
    assert (code, out) == (EXIT_OK, first)
