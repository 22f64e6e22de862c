import json
import pathlib

import pytest

from fairalloc import allocation as allocation_module
from fairalloc import cli
from fairalloc.cli import DEFAULT_SEED, EXIT_OK, EXIT_OPTIMIZER, EXIT_VALIDATION, main
from fairalloc.distributions import Binomial, Poisson


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

    monkeypatch.setattr(allocation_module, "max_utilization", boom)
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
