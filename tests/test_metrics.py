import ast
import pathlib
import tokenize

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies
from fairalloc import certificates, metrics
from fairalloc.allocation import mean_weighted
from fairalloc.distributions import Binomial, Constant, DemandDistribution, Normal, Poisson, TwoPoint
from fairalloc.metrics import (
    Allocation,
    Group,
    Scenario,
    availability,
    check_allocation,
    evaluate,
    fairness,
    group_availabilities,
    is_alpha_fair,
    negative_mass_warnings,
    utilization,
)


def constants_scenario(resource):
    return Scenario(
        resource=resource,
        groups=(Group("a", Constant(10.0)), Group("b", Constant(30.0))),
    )


def poisson_scenario(resource):
    return Scenario(
        resource=resource,
        groups=tuple(
            Group(f"g{i}", Poisson(lam)) for i, lam in enumerate((200.0, 400.0, 400.0))
        ),
    )


def binomial_scenario(resource):
    params = ((1000, 0.3), (2000, 0.5), (1500, 0.4))
    return Scenario(
        resource=resource,
        groups=tuple(Group(f"g{i}", Binomial(n, p)) for i, (n, p) in enumerate(params)),
    )


# ---------------------------------------------------------------- availability

def test_availability_examples():
    # mean-weighted level for constants: q = R / Z
    assert availability(Constant(10.0), 5.0) == 0.5
    assert availability(TwoPoint(10.0), 5.0) == 0.5
    assert availability(Poisson(7.0), 0.0) == 0.0


def test_availability_is_one_beyond_support():
    assert availability(Constant(10.0), 50.0) == 1.0
    assert availability(TwoPoint(10.0), 10.0) == 1.0
    assert availability(Binomial(20, 0.5), 20.0) == 1.0


def test_availability_monotone_in_level():
    for dist in (Constant(5.0), TwoPoint(10.0), Binomial(50, 0.3), Poisson(20.0), Normal(100.0, 10.0)):
        grid = np.linspace(0.0, 2.5 * dist.mean(), 60)
        qs = [availability(dist, v) for v in grid]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))


@given(dist=strategies.demand_distributions, scale=st.floats(0.0, 3.0))
def test_availability_stays_in_unit_interval(dist, scale):
    q = availability(dist, scale * dist.mean())
    assert -1e-9 <= q <= 1.0


# ---------------------------------------------------------------- utilization / fairness

def test_utilization_examples():
    sc = constants_scenario(20.0)
    assert utilization(sc, Allocation((5.0, 15.0))) == 20.0
    zero = Scenario(resource=0.0, groups=(Group("a", Constant(10.0)),))
    assert utilization(zero, Allocation((0.0,))) == 0.0
    single = Scenario(resource=5.0, groups=(Group("t", TwoPoint(10.0)),))
    assert utilization(single, Allocation((5.0,))) == 0.5


def test_utilization_capped_by_resource_and_demand():
    sc = poisson_scenario(500.0)
    alloc = Allocation((100.0, 200.0, 200.0))
    u = utilization(sc, alloc)
    assert u <= min(sc.resource, sc.total_mean) + 1e-9


def test_fairness_examples():
    single = Scenario(resource=5.0, groups=(Group("t", TwoPoint(10.0)),))
    assert fairness(single, Allocation((5.0,))) == 0.0
    sc = constants_scenario(20.0)
    assert fairness(sc, Allocation((5.0, 15.0))) == 0.0
    mixed = Scenario(
        resource=1.0, groups=(Group("t", TwoPoint(10.0)), Group("c", Constant(1.0)))
    )
    assert fairness(mixed, Allocation((0.5, 0.5))) == pytest.approx(0.45, abs=1e-12)


def test_fairness_treats_near_equal_availability_as_equal():
    sc = constants_scenario(20.0)
    # availabilities differing below 1e-12 count as equal
    assert fairness(sc, Allocation((5.0 + 1e-12, 15.0 - 1e-12))) == 0.0


def test_fairness_equals_max_pairwise_gap():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = rng.integers(2, 10)
        dists = [Poisson(float(rng.uniform(5, 50))) for _ in range(k)]
        weights = rng.uniform(0.1, 1.0, k)
        budget = float(rng.uniform(1.0, 100.0))
        values = tuple(budget * w / weights.sum() for w in weights)
        sc = Scenario(resource=budget, groups=tuple(Group(f"g{i}", d) for i, d in enumerate(dists)))
        alloc = Allocation(values)
        qs = group_availabilities(sc, alloc)
        pairwise = max(abs(a - b) for a in qs for b in qs)
        assert fairness(sc, alloc) == pytest.approx(pairwise, abs=1e-12)


def test_is_alpha_fair():
    sc = constants_scenario(20.0)
    assert is_alpha_fair(sc, Allocation((5.0, 15.0)), 0.0)
    mixed = Scenario(
        resource=1.0, groups=(Group("t", TwoPoint(10.0)), Group("c", Constant(1.0)))
    )
    assert not is_alpha_fair(mixed, Allocation((0.5, 0.5)), 0.4)
    assert is_alpha_fair(mixed, Allocation((0.5, 0.5)), 1.0)
    for alpha in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            is_alpha_fair(sc, Allocation((5.0, 15.0)), alpha)


# ---------------------------------------------------------------- certified availability bounds

@pytest.mark.parametrize("make", [poisson_scenario, binomial_scenario])
@pytest.mark.parametrize("ratio", [0.3, 0.5, 0.9])
def test_availability_bounds_low_resource(make, ratio):
    # mean-weighted level with R <= (1-eps) Z: (v/mu)(1-delta) <= q <= v/mu <= 1-eps
    epsilon = 0.1
    base = make(1.0)
    budget = ratio * base.total_mean
    sc = make(budget)
    cert = certificates.scenario_certificate(sc, epsilon)
    share = budget / sc.total_mean
    assert budget <= (1.0 - epsilon) * sc.total_mean
    for group in sc.groups:
        v = share * group.dist.mean()
        q = availability(group.dist, v)
        assert share * (1.0 - cert.delta) - 1e-12 <= q <= share + 1e-12
        assert share <= 1.0 - epsilon + 1e-12


@pytest.mark.parametrize("make", [poisson_scenario, binomial_scenario])
@pytest.mark.parametrize("ratio", [0.9, 1.0, 1.2])
def test_availability_bounds_high_resource(make, ratio):
    # R >= (1-eps) Z: (1-eps)(1-delta) <= q <= 1
    epsilon = 0.1
    base = make(1.0)
    budget = ratio * base.total_mean
    sc = make(budget)
    cert = certificates.scenario_certificate(sc, epsilon)
    share = budget / sc.total_mean
    for group in sc.groups:
        q = availability(group.dist, share * group.dist.mean())
        assert (1.0 - epsilon) * (1.0 - cert.delta) - 1e-12 <= q <= 1.0 + 1e-12


# ---------------------------------------------------------------- scenario / allocation validation

def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(resource=-1.0, groups=(Group("a", Constant(1.0)),))
    with pytest.raises(ValueError):
        Scenario(resource=1.0, groups=())
    with pytest.raises(ValueError):
        Scenario(resource=1.0, groups=(Group("a", Constant(1.0)), Group("a", Constant(2.0))))


def test_scenario_derived_totals():
    sc = poisson_scenario(500.0)
    assert sc.total_mean == 1000.0
    assert sc.means == (200.0, 400.0, 400.0)
    assert sc.names == ("g0", "g1", "g2")
    assert sc.size == 3


def test_allocation_validation():
    with pytest.raises(ValueError):
        Allocation((1.0, -0.5))
    with pytest.raises(ValueError):
        Allocation((1.0, -1e-12))  # no clamping: the budget that sets "small" is unknown here
    sc = constants_scenario(20.0)
    with pytest.raises(ValueError):
        check_allocation(sc, Allocation((5.0,)))
    with pytest.raises(ValueError):
        check_allocation(sc, Allocation((5.0, 16.0)))
    check_allocation(sc, Allocation((5.0, 15.0 + 1e-9)))


# ---------------------------------------------------------------- evaluation reports

def test_evaluate_without_certificate():
    sc = constants_scenario(20.0)
    report = evaluate(sc, Allocation((5.0, 15.0)))
    assert report.bounds is None
    assert report.utilization == 20.0
    assert report.fairness == 0.0
    assert [g.availability for g in report.groups] == [0.5, 0.5]
    assert report.warnings == ()
    payload = report.to_dict()
    assert payload["bounds"] is None
    assert payload["groups"][0]["name"] == "a"


def test_evaluate_with_certificate_bounds():
    sc = poisson_scenario(500.0)
    alloc = Allocation((100.0, 200.0, 200.0))
    report = evaluate(sc, alloc, epsilon=0.1, alpha=0.25)
    bounds = report.bounds
    assert bounds is not None
    assert bounds.method == "exact_cdf"
    assert bounds.fairness_bound == pytest.approx(
        0.1 + bounds.delta - 0.1 * bounds.delta, abs=1e-15
    )
    assert bounds.fairness_ok
    assert bounds.utilization_ok
    # R = 500 <= 0.9 * 1000, so the low-resource bounds apply
    assert bounds.fairness_bound_low_resource == pytest.approx(0.9 * bounds.delta, abs=1e-15)
    assert bounds.utilization_bound_low_resource == pytest.approx(
        (1.0 - bounds.delta) * 500.0, abs=1e-9
    )
    assert bounds.fairness_low_resource_ok
    assert bounds.utilization_low_resource_ok
    assert bounds.pof_bound == pytest.approx(1.0 / 0.75, abs=1e-15)
    assert bounds.pof_bound_small == pytest.approx(1.5, abs=1e-15)
    rows = report.to_csv_rows()
    assert len(rows) == 3
    assert set(rows[0]) >= {"group", "v", "q", "utilization", "fairness", "fairness_bound"}


def test_evaluate_computes_each_availability_once(monkeypatch):
    # one E[min] per group for the availabilities and one for utilization;
    # fairness reads the same availabilities (it recomputed them: 3n calls)
    sc = poisson_scenario(500.0)
    alloc = mean_weighted(sc)
    calls = []
    expected_min = DemandDistribution.expected_min

    def counting_expected_min(self, v):
        calls.append(v)
        return expected_min(self, v)

    monkeypatch.setattr(DemandDistribution, "expected_min", counting_expected_min)
    report = evaluate(sc, alloc, epsilon=0.1)
    assert len(calls) == 2 * sc.size
    assert report.fairness == fairness(sc, alloc)


def test_evaluate_flags_negative_mass_models():
    sc = Scenario(resource=10.0, groups=(Group("n", Normal(10.0, 10.0)),))
    report = evaluate(sc, Allocation((10.0,)))
    assert len(report.warnings) == 1
    assert "Pr[C < 0]" in report.warnings[0]
    assert negative_mass_warnings(sc)


def test_report_availability_within_unit_interval():
    sc = poisson_scenario(1200.0)
    alloc = Allocation((240.0, 480.0, 480.0))
    report = evaluate(sc, alloc)
    for g in report.groups:
        assert -1e-9 <= g.availability <= 1.0 + 1e-9
    qs = [g.availability for g in report.groups]
    assert report.fairness == pytest.approx(max(qs) - min(qs), abs=1e-12)


# ---------------------------------------------------------------- tolerances

SRC = pathlib.Path(metrics.__file__).parent


def small_float_literals(path, allowed_lines=frozenset()):
    """(line, text) of each float literal with 0 < |x| < 1e-3 in a source file."""
    found = []
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            text = tok.string.replace("_", "").lower()
            if tok.type != tokenize.NUMBER or text.startswith(("0x", "0o", "0b")) or text.endswith("j"):
                continue
            if 0.0 < float(text) < 1e-3 and tok.start[0] not in allowed_lines:
                found.append((tok.start[0], tok.string))
    return found


def test_every_result_tolerance_is_named_in_the_metrics_block():
    # the block is metrics.py's module-level assignments; numerical-method
    # and input-validation literals elsewhere (distributions, certificates)
    # are not result tolerances
    tree = ast.parse((SRC / "metrics.py").read_text())
    block = frozenset(line for node in tree.body if isinstance(node, ast.Assign)
                      for line in range(node.lineno, node.end_lineno + 1))
    assert block
    found = {name: small_float_literals(SRC / name)
             for name in ("allocation.py", "cli.py", "montecarlo.py", "scenario_io.py")}
    found["metrics.py"] = small_float_literals(SRC / "metrics.py", block)
    assert {name: lits for name, lits in found.items() if lits} == {}
