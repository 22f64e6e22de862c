import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from fairalloc import allocation as allocation_module
from fairalloc.allocation import (
    InfeasibleError,
    alpha_fair_optimal,
    max_utilization,
    mean_weighted,
    pof,
)
from fairalloc.certificates import TailCertificate, scenario_certificate
from fairalloc.distributions import (
    Binomial,
    Constant,
    Empirical,
    Exponential,
    Normal,
    Poisson,
    TwoPoint,
)
from fairalloc.metrics import Allocation, Group, Scenario, fairness, utilization
from fairalloc.scenario_io import load_scenario_path


def scenario(resource, *dists):
    return Scenario(
        resource=resource,
        groups=tuple(Group(f"g{i}", d) for i, d in enumerate(dists)),
    )


# ---------------------------------------------------------------- mean-weighted

def test_mean_weighted_examples():
    assert mean_weighted(scenario(20.0, Constant(10.0), Constant(30.0))).values == (5.0, 15.0)
    assert mean_weighted(scenario(7.5, Poisson(3.0))).values == (7.5,)
    sc = scenario(500.0, Poisson(200.0), Poisson(400.0), Poisson(400.0))
    assert mean_weighted(sc).values == (100.0, 200.0, 200.0)


@given(dists=st.lists(strategies.demand_distributions, min_size=1, max_size=5),
       budget=st.floats(0.0, 1000.0))
def test_mean_weighted_sums_to_budget_with_equal_shares(dists, budget):
    sc = scenario(budget, *dists)
    alloc = mean_weighted(sc)
    assert abs(alloc.total - budget) <= 1e-12 * max(budget, 1.0)
    shares = [v / g.dist.mean() for v, g in zip(alloc.values, sc.groups)]
    for share in shares:
        assert share == pytest.approx(budget / sc.total_mean, rel=1e-12)


# ---------------------------------------------------------------- max utilization

def test_symmetric_poisson_splits_evenly():
    sc = scenario(150.0, Poisson(100.0), Poisson(100.0))
    alloc = max_utilization(sc)
    assert alloc.values == (75.0, 75.0)


def test_constants_with_surplus_saturate_then_share_excess():
    sc = scenario(60.0, Constant(10.0), Constant(30.0))
    alloc = max_utilization(sc)
    assert utilization(sc, alloc) == pytest.approx(40.0, abs=1e-12)
    # documented choice: saturate supports, spread the excess in mean shares
    assert alloc.values == pytest.approx((15.0, 45.0), abs=1e-12)
    assert fairness(sc, alloc) == 0.0


def test_constants_below_demand_reach_full_consumption():
    sc = scenario(20.0, Constant(10.0), Constant(30.0))
    alloc = max_utilization(sc)
    assert utilization(sc, alloc) == pytest.approx(20.0, abs=1e-12)


def test_exponential_waterfilling_matches_analytic_solution():
    sc = scenario(21.0, Exponential(10.0), Exponential(25.0))
    alloc = max_utilization(sc)
    assert alloc.values[0] == pytest.approx(6.0, abs=1e-6)
    assert alloc.values[1] == pytest.approx(15.0, abs=1e-6)
    s0 = sc.groups[0].dist.survival(alloc.values[0])
    s1 = sc.groups[1].dist.survival(alloc.values[1])
    assert s0 == pytest.approx(s1, abs=1e-9)


def test_kkt_equal_marginals_for_continuous_groups():
    sc = scenario(140.0, Normal(100.0, 10.0), Exponential(30.0), Normal(60.0, 5.0))
    alloc = max_utilization(sc)
    survs = [g.dist.survival(v) for g, v in zip(sc.groups, alloc.values)
             if 0.0 < v < sc.resource]
    for a in survs:
        for b in survs:
            assert abs(a - b) <= 1e-6


def test_discrete_waterfilling_residual_goes_to_lowest_index():
    # two identical two-point groups; the level sits on a survival step
    sc = scenario(6.0, TwoPoint(10.0), TwoPoint(10.0))
    alloc = max_utilization(sc)
    assert alloc.total == pytest.approx(6.0, abs=1e-12)
    assert alloc.values[0] >= alloc.values[1] - 1e-12


def test_zero_budget():
    sc = scenario(0.0, Poisson(5.0), Constant(3.0))
    for alloc in (max_utilization(sc), alpha_fair_optimal(sc, 0.2), mean_weighted(sc)):
        assert alloc.values == (0.0, 0.0)


@given(dists=st.lists(strategies.demand_distributions, min_size=1, max_size=4),
       ratio=st.floats(0.05, 2.0))
@settings(max_examples=40)
def test_max_utilization_dominates_mean_weighted(dists, ratio):
    sc = scenario(ratio * sum(d.mean() for d in dists), *dists)
    u_best = utilization(sc, max_utilization(sc))
    u_mw = utilization(sc, mean_weighted(sc))
    assert u_best >= u_mw - 1e-9 * max(1.0, u_mw)


def test_max_utilization_deterministic():
    sc = scenario(500.0, Poisson(200.0), Poisson(400.0), Poisson(400.0))
    assert max_utilization(sc).values == max_utilization(sc).values


# ---------------------------------------------------------------- alpha-fair optimum

def test_alpha_zero_constants_recover_mean_weighted():
    for budget in (20.0, 40.0, 60.0):
        sc = scenario(budget, Constant(10.0), Constant(30.0))
        alloc = alpha_fair_optimal(sc, 0.0)
        assert utilization(sc, alloc) == pytest.approx(min(budget, 40.0), abs=1e-9)
        assert fairness(sc, alloc) <= 1e-12


def test_alpha_one_matches_unconstrained_optimum():
    sc = scenario(500.0, Poisson(200.0), Poisson(400.0), Poisson(400.0))
    u_fair = utilization(sc, alpha_fair_optimal(sc, 1.0))
    u_best = utilization(sc, max_utilization(sc))
    assert u_fair == pytest.approx(u_best, abs=1e-6)


def test_alpha_fair_respects_fairness_band():
    sc = scenario(200.0, Poisson(50.0), Poisson(200.0))
    for alpha in (0.0, 0.02, 0.1, 0.5):
        alloc = alpha_fair_optimal(sc, alpha)
        assert fairness(sc, alloc) <= alpha + 1e-6
        assert abs(alloc.total - 200.0) <= 1e-9 * 200.0


def test_alpha_fair_against_bruteforce_grid():
    budget = 200.0
    sc = scenario(budget, Poisson(50.0), Poisson(200.0))
    vals1, pmf1 = oracles.discrete_atoms(Poisson(50.0))
    vals2, pmf2 = oracles.discrete_atoms(Poisson(200.0))
    v1 = np.arange(0, int(budget * 100) + 1) / 100.0
    em1 = np.array([oracles.expected_min_brute(vals1, pmf1, v) for v in v1[:: 1]])
    # vectorized brute force for the larger grid
    em2 = np.array([oracles.expected_min_brute(vals2, pmf2, budget - v) for v in v1])
    q_gap = np.abs(em1 / 50.0 - em2 / 200.0)
    total = em1 + em2
    alpha = 0.05
    oracle_best = total[q_gap <= alpha].max()
    alloc = alpha_fair_optimal(sc, alpha)
    assert utilization(sc, alloc) >= oracle_best - 1e-3


def test_alpha_relaxation_is_monotone():
    sc = scenario(420.0, Poisson(200.0), Poisson(400.0), Binomial(500, 0.4))
    alphas = (0.01, 0.05, 0.15, 0.4)
    us = [utilization(sc, alpha_fair_optimal(sc, a)) for a in alphas]
    for lo, hi in zip(us, us[1:]):
        assert lo <= hi + 1e-6


def test_alpha_fair_rejects_negative_alpha():
    sc = scenario(10.0, Poisson(5.0))
    with pytest.raises(ValueError):
        alpha_fair_optimal(sc, -0.2)


def test_alpha_fair_deterministic():
    sc = scenario(200.0, Poisson(50.0), Poisson(200.0))
    assert alpha_fair_optimal(sc, 0.05).values == alpha_fair_optimal(sc, 0.05).values


def test_mixed_families_alpha_fair():
    sc = scenario(
        120.0,
        Poisson(60.0),
        Normal(50.0, 5.0),
        Binomial(100, 0.4),
        Constant(20.0),
        Empirical((5.0, 25.0), (0.5, 0.5)),
    )
    for alpha in (0.05, 0.3):
        alloc = alpha_fair_optimal(sc, alpha)
        assert fairness(sc, alloc) <= alpha + 1e-6
        u_mw = utilization(sc, mean_weighted(sc))
        if fairness(sc, mean_weighted(sc)) <= alpha:
            assert utilization(sc, alloc) >= u_mw - 1e-6


def test_single_group_alpha_fair_takes_everything():
    sc = scenario(7.5, Poisson(8.0))
    alloc = alpha_fair_optimal(sc, 0.0)
    assert alloc.values == pytest.approx((7.5,), abs=1e-9)
    assert fairness(sc, alloc) == 0.0


@pytest.mark.parametrize(
    "sc_alpha",
    [
        # strict zero-fairness with budgets beyond total demand but below the
        # bounded supports: availabilities pin at 1 where dv/dq blows up
        (
            scenario(
                1355.234,
                Binomial(592, 0.16797135781491773),
                TwoPoint(32.50794600588658),
                Poisson(531.1807866815133),
            ),
            0.0,
        ),
        (
            scenario(77.6950633927731, Constant(49.483317439538055), Binomial(53, 0.16177187364631782)),
            0.0,
        ),
        (
            scenario(
                933.687,
                Binomial(295, 0.5136696232179093),
                TwoPoint(18.307069896755035),
                Normal(346.1790567689092, 11.35589291532226),
                Empirical(
                    (4.412, 15.916, 33.699, 39.375, 54.012),
                    (0.2695794754987251, 0.05756861935926043, 0.08221943863408866,
                     0.23470047565278962, 0.35593199085513627),
                ),
            ),
            0.0,
        ),
    ],
    ids=["bounded-and-poisson", "constant-binomial", "four-family-mix"],
)
def test_alpha_fair_saturation_edge_cases(sc_alpha):
    # regression: floors pinned against availability 1 used to be declared
    # infeasible because no representable floor hit the budget exactly
    sc, alpha = sc_alpha
    alloc = alpha_fair_optimal(sc, alpha)
    assert abs(alloc.total - sc.resource) <= 1e-9 * max(sc.resource, 1.0)
    assert fairness(sc, alloc) <= alpha + 1e-6
    assert min(alloc.values) >= 0.0
    mw = mean_weighted(sc)
    if fairness(sc, mw) <= alpha:
        assert utilization(sc, alloc) >= utilization(sc, mw) - 1e-6


def test_alpha_fair_retry_is_live_on_the_constant_binomial_edge_case():
    # No floor of the exact band meets the budget here, as adjacent floors
    # straddle it near q = 1; the retry's band, 2e-9 wider, does. If this
    # case stops needing the retry, the first assertion says so.
    sc = scenario(77.6950633927731, Constant(49.483317439538055), Binomial(53, 0.16177187364631782))
    curves = allocation_module._prologue(sc)[1]
    with pytest.raises(InfeasibleError):
        allocation_module._floor_sweep(curves, sc.resource, 0.0)
    v = allocation_module._floor_sweep(curves, sc.resource, 2e-9)
    assert abs(sum(v) - sc.resource) <= 1e-9 * sc.resource
    assert fairness(sc, Allocation(tuple(v))) <= 1e-6
    assert alpha_fair_optimal(sc, 0.0).values == tuple(v)


@pytest.mark.parametrize("alpha", [0.15, 0.2, 0.5])
def test_alpha_fair_with_negative_availability_at_zero(alpha):
    # regression: q_a(0) = -1.145 lies below the floor range the sweep used
    # to search, [0, 1], so every floor was rejected
    sc = scenario(10.0, Normal(5.0, 20.0), Normal(50.0, 5.0))
    alloc = alpha_fair_optimal(sc, alpha)
    assert abs(alloc.total - sc.resource) <= 1e-9 * sc.resource
    assert fairness(sc, alloc) <= alpha + 1e-6


def test_alpha_fair_below_the_least_reachable_gap_is_infeasible():
    # q_a(10) = -0.145 and q_b >= 0, so every allocation has Q >= 0.145
    sc = scenario(10.0, Normal(5.0, 20.0), Normal(50.0, 5.0))
    # the error names the requested alpha, not the retry's alpha + 2e-9
    with pytest.raises(InfeasibleError, match="no availability floor admits .* for alpha=0.1$"):
        alpha_fair_optimal(sc, 0.1)


def count_fill_steps(monkeypatch):
    """A list that grows by one per group per evaluated water-fill step."""
    fill_calls = []
    box_fill = allocation_module._Curve.box_fill

    def counting_box_fill(curve, lo, hi):
        fill = box_fill(curve, lo, hi)

        def counting_fill(s):
            fill_calls.append(s)
            return fill(s)

        return counting_fill

    monkeypatch.setattr(allocation_module._Curve, "box_fill", counting_box_fill)
    return fill_calls


def count_box_inverses(monkeypatch):
    """A list that grows by one per box inverse of any group."""
    calls = []
    for name in ("lowest_v_with_q_at_least", "highest_v_with_q_at_most"):
        invert = getattr(allocation_module._Curve, name)

        def counting_invert(curve, *args, invert=invert):
            calls.append(args)
            return invert(curve, *args)

        monkeypatch.setattr(allocation_module._Curve, name, counting_invert)
    return calls


def test_alpha_fair_solve_takes_few_water_fills(monkeypatch):
    # regression: a 512-floor grid, two probe floors and a golden-section
    # refine around the best grid floor used to cost 577 water-fills here;
    # halving on after the allocation was final cost 984 bisection steps,
    # and bisecting each floor's cdf level from [0, 1] again cost 395;
    # bisecting the floor interval's ends cost 248 box inverses per group
    sc = scenario(900.0, Poisson(200.0), Poisson(400.0), Poisson(400.0))
    calls = []
    water_fill = allocation_module._water_fill

    def counting_water_fill(*args):
        calls.append(args)
        return water_fill(*args)

    monkeypatch.setattr(allocation_module, "_water_fill", counting_water_fill)
    fill_calls = count_fill_steps(monkeypatch)
    inverses = count_box_inverses(monkeypatch)
    alpha_fair_optimal(sc, 0.05)
    assert len(calls) < 100
    assert len(fill_calls) / sc.size <= 250
    assert len(inverses) / sc.size <= 170


def test_alpha_fair_smooth_solve_takes_few_expected_min_calls(monkeypatch):
    # regression: bisecting every smooth box inverse cost 41,298 calls here,
    # and bisecting each floor's cdf level from [0, 1] again 2,448 fill steps;
    # bisecting the floor interval's ends and starting every inverse from
    # [0, cap] cost 5,547 calls and 248 box inverses per group; starting each
    # inverse from its curve's last crossing, the solve takes 2,395 calls
    sc = scenario(540.0, Normal(100.0, 10.0), Normal(200.0, 20.0), Normal(300.0, 30.0))
    calls = []
    expected_min = Normal._expected_min

    def counting_expected_min(dist, v):
        calls.append(v)
        return expected_min(dist, v)

    monkeypatch.setattr(Normal, "_expected_min", counting_expected_min)
    fill_calls = count_fill_steps(monkeypatch)
    inverses = count_box_inverses(monkeypatch)
    alpha_fair_optimal(sc, 0.05)
    assert len(calls) <= 3_500
    assert len(fill_calls) / sc.size <= 1_500
    assert len(inverses) / sc.size <= 170


def test_alpha_fair_below_one_skips_max_utilization(monkeypatch):
    # pof used to build every curve twice: once for each optimum
    sc = scenario(900.0, Poisson(200.0), Poisson(400.0), Poisson(400.0))
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
    alpha_fair_optimal(sc, 0.05)
    assert (len(prologues), len(max_fills)) == (1, 0)
    pof(sc, 0.05)
    assert (len(prologues), len(max_fills)) == (2, 1)


def fresh_bracket_water_fill(monkeypatch):
    """Make every water-fill start from [0, 1], ignoring any inherited bracket."""
    water_fill = allocation_module._water_fill

    def fresh(curves, budget, lo, hi, known=(0.0, 1.0)):
        return water_fill(curves, budget, lo, hi)

    monkeypatch.setattr(allocation_module, "_water_fill", fresh)


def solve_outcomes(sc, alpha):
    """alpha_fair_optimal and pof results, or the error each raised."""
    outcomes = []
    for solve in (lambda: alpha_fair_optimal(sc, alpha).values,
                  lambda: pof(sc, alpha).to_dict()):
        try:
            outcomes.append(solve())
        except allocation_module.OptimizerError as exc:
            outcomes.append(repr(exc))
    return outcomes


GOLDEN_SCENARIOS = sorted(
    (pathlib.Path(__file__).parent / "golden" / "scenarios").glob("*.json")
)


@pytest.mark.parametrize("alpha", [0.05, 0.25])
@pytest.mark.parametrize("path", GOLDEN_SCENARIOS, ids=lambda path: path.stem)
def test_inherited_fill_brackets_keep_golden_solves_bit_identical(path, alpha, monkeypatch):
    sc = load_scenario_path(str(path)).scenario
    inherited = solve_outcomes(sc, alpha)
    fresh_bracket_water_fill(monkeypatch)
    assert inherited == solve_outcomes(sc, alpha)


@given(dists=st.lists(st.one_of(strategies.demand_distributions, strategies.heavy_normals()),
                      min_size=2, max_size=4),
       ratio=st.floats(0.2, 1.5),
       alpha=st.sampled_from([0.05, 0.25]))
@settings(max_examples=60)
def test_inherited_fill_brackets_keep_solves_bit_identical(dists, ratio, alpha):
    sc = scenario(ratio * sum(d.mean() for d in dists), *dists)
    inherited = solve_outcomes(sc, alpha)
    with pytest.MonkeyPatch.context() as monkeypatch:
        fresh_bracket_water_fill(monkeypatch)
        assert inherited == solve_outcomes(sc, alpha)


@given(dists=st.lists(strategies.demand_distributions, min_size=2, max_size=4),
       ratio=st.floats(0.2, 1.5),
       weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
@settings(max_examples=40)
def test_alpha_fair_beats_every_allocation_it_admits(dists, ratio, weights):
    # the floor search is exact only if the best utilization is concave in the
    # floor: any allocation with fairness Q(v) must do no better at alpha = Q(v)
    sc = scenario(ratio * sum(d.mean() for d in dists), *dists)
    weights = weights[: sc.size]
    v = Allocation(tuple(sc.resource * w / sum(weights) for w in weights))
    gap = fairness(sc, v)
    assume(gap < 1.0)
    u_v = utilization(sc, v)
    alloc = alpha_fair_optimal(sc, gap)
    assert utilization(sc, alloc) >= u_v - 1e-9 * max(1.0, u_v)


# ---------------------------------------------------------------- price of fairness

def test_pof_constant_demand_is_one():
    for budget in (20.0, 40.0, 60.0):
        sc = scenario(budget, Constant(10.0), Constant(30.0))
        result = pof(sc, 0.0)
        assert result.pof == pytest.approx(1.0, abs=1e-9)


def test_pof_scaled_exponential_family_is_one_at_alpha_zero():
    sc = scenario(21.0, Exponential(10.0), Exponential(25.0))
    result = pof(sc, 0.0)
    assert result.pof == pytest.approx(1.0, abs=1e-6)


def test_pof_bounds_attachment():
    sc = scenario(500.0, Poisson(200.0), Poisson(400.0), Poisson(400.0))
    cert = scenario_certificate(sc, 0.1)
    assert cert.epsilon + cert.delta <= 0.25
    result = pof(sc, 0.25, certificate=cert)
    assert result.bound_1_over_1_minus_alpha == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert result.bound_1_plus_2alpha == pytest.approx(1.5, abs=1e-12)
    assert result.pof <= result.bound_1_over_1_minus_alpha + 1e-3
    assert result.pof <= result.bound_1_plus_2alpha + 1e-3
    assert result.certificate is cert
    payload = result.to_dict()
    assert payload["alpha"] == 0.25
    assert len(payload["max_utilization_allocation"]) == 3

    # alpha below eps + delta: the 1 + 2 alpha claim is not attached
    small = pof(sc, 0.05, certificate=cert)
    assert small.bound_1_plus_2alpha is None

    # large tail sum: certificate cannot support the small bound either
    weak = TailCertificate(epsilon=0.4, delta=0.3, method="exact_cdf", per_group_deltas=(0.3,))
    weak_result = pof(sc, 0.75, certificate=weak)
    assert weak_result.bound_1_plus_2alpha is None


def test_pof_bounds_follow_theoretical_bounds():
    # eps + delta exceeds alpha, so neither bound holds; without a
    # certificate there is nothing to bound with
    sc = scenario(220.0, Poisson(20.0), Poisson(200.0))
    cert = scenario_certificate(sc, 0.1)
    assert cert.epsilon + cert.delta > 0.05
    for result in (pof(sc, 0.05, certificate=cert), pof(sc, 0.05)):
        assert result.bound_1_over_1_minus_alpha is None
        assert result.bound_1_plus_2alpha is None


def test_pof_at_least_one():
    cases = [
        scenario(200.0, Poisson(50.0), Poisson(200.0)),
        scenario(35.0, Exponential(10.0), Exponential(25.0)),
        scenario(900.0, Binomial(1000, 0.3), Binomial(2000, 0.5)),
    ]
    for sc in cases:
        for alpha in (0.0, 0.1, 0.5):
            assert pof(sc, alpha).pof >= 1.0
    # the alpha-fair utilization beats the water-fill's by an ulp or two here
    assert pof(scenario(45.0, Binomial(40, 0.5), Binomial(100, 0.3)), 0.05).pof >= 1.0
    assert pof(scenario(45.0, Normal(10.0, 4.0), Normal(40.0, 10.0)), 0.1).pof >= 1.0


def test_pof_alpha_validation():
    sc = scenario(10.0, Poisson(5.0))
    for alpha in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            pof(sc, alpha)


def test_constrained_never_beats_unconstrained():
    sc = scenario(420.0, Poisson(200.0), Poisson(400.0), Binomial(500, 0.4))
    result = pof(sc, 0.03)
    assert result.constrained_utilization <= result.unconstrained_utilization


# ---------------------------------------------------------------- scale families

@given(
    means=st.lists(st.floats(1.0, 50.0), min_size=2, max_size=4),
    ratio=st.floats(0.1, 2.0),
)
@settings(max_examples=25)
def test_scaled_exponential_max_utilization_is_zero_fair(means, ratio):
    # exponentials form a scale family, so the unconstrained optimum is 0-fair
    budget = ratio * sum(means)
    sc = scenario(budget, *(Exponential(m) for m in means))
    alloc = max_utilization(sc)
    assert fairness(sc, alloc) <= 1e-6


# ---------------------------------------------------------------- box inverses and water-fill stop

@pytest.mark.parametrize("slope", [1e6, 0.0, math.inf, math.nan, 1.0])
@pytest.mark.parametrize("strict", [False, True])
def test_crossing_ends_on_adjacent_doubles(slope, strict):
    # Slope 1e6 makes the Newton steps crawl, so the halvings after them must
    # finish; 0, inf and nan give no usable slope; slope 1 is the exact one.
    calls = []

    def gap(v):
        calls.append(v)
        return v - 0.3

    found = allocation_module._crossing(gap, lambda v: slope, strict, 0.0, 1.0, 0.0, -0.3)
    if strict:
        assert found == (0.3, math.nextafter(0.3, 1.0))
    else:
        assert found == (math.nextafter(0.3, 0.0), 0.3)
    assert len(calls) <= 2 * allocation_module.BISECTION_STEPS
    if slope == 1e6:
        assert len(calls) > allocation_module.BISECTION_STEPS
    if slope == 1.0:
        assert len(calls) == 2


@given(
    dist=st.one_of(strategies.heavy_normals(), strategies.continuous_distributions),
    cap_ratio=st.floats(0.5, 40.0),
    share=st.floats(0.0, 1.0, exclude_max=True),
    tail=st.one_of(st.none(), st.floats(1e-16, 1e-12)),
)
@settings(max_examples=150)
def test_smooth_box_inverses_match_reference_bisection(dist, cap_ratio, share, tail):
    curve = allocation_module._curve(dist, cap_ratio * dist.mean())
    q0 = curve.em0 / curve.mu
    target = 1.0 - tail if tail is not None else q0 + (1.0 - q0) * share
    t = target * curve.mu
    em = curve.em
    cases = (
        (curve.lowest_v_with_q_at_least(target), lambda v: em(v) >= t, 1),
        (curve.highest_v_with_q_at_most(target), lambda v: em(v) > t, 0),
    )
    for v, reached, end in cases:
        if reached(0.0) or not reached(curve.cap):
            continue  # answered before any root search
        assert reached(v) == (end == 1)
        ref = oracles.bisect_bracket(reached, 0.0, curve.cap, allocation_module.BISECTION_STEPS)[end]
        # Where the curve is flat at rounding level, the computed em is not
        # monotone across the crossing, so v may land on another crossing
        # whose em agrees with the reference's to rounding.
        assert (abs(v - ref) <= max(curve.cap * 2.0**-60, math.ulp(ref))
                or abs(em(v) - em(ref)) <= 8 * math.ulp(curve.mu))


def same_up_to_flat_curve(curve, warm, cold):
    # the flat-curve clause of the reference-bisection test above
    return warm == cold or (warm is not None and cold is not None
                            and abs(curve.em(warm) - curve.em(cold)) <= 8 * math.ulp(curve.mu))


@given(
    dist=st.one_of(strategies.heavy_normals(), strategies.continuous_distributions),
    cap_ratio=st.floats(0.5, 40.0),
    shares=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3, unique=True),
    before=st.sampled_from([(0,), (2,), (0, 2), (2, 0)]),
)
@settings(max_examples=150)
def test_warm_box_inverses_match_cold(dist, cap_ratio, shares, before):
    # An inverse run after the same curve's inverses at a lower target, a
    # higher one or both returns what a fresh curve returns, up to the
    # flat-curve clause, and evaluates em only on the previous crossing's
    # side: at or right of it when it is unreached, at or left of it when
    # it is reached.
    cap = cap_ratio * dist.mean()
    q0 = dist._expected_min(0.0) / dist.mean()
    targets = sorted(q0 + (1.0 - q0) * share for share in shares)
    mid = targets[1]
    t = mid * dist.mean()
    cases = (
        ("lowest_v_with_q_at_least", False, lambda v: dist._expected_min(v) >= t),
        ("highest_v_with_q_at_most", True, lambda v: dist._expected_min(v) > t),
    )
    for name, strict, reached in cases:
        curve = allocation_module._curve(dist, cap)
        for i in before:
            getattr(curve, name)(targets[i])
        last = curve._last[strict]
        cold = getattr(allocation_module._curve(dist, cap), name)(mid)
        points = []
        expected_min = type(dist)._expected_min

        def recording(d, v):
            points.append(v)
            return expected_min(d, v)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(type(dist), "_expected_min", recording)
            warm = getattr(curve, name)(mid)
        assert same_up_to_flat_curve(curve, warm, cold)
        if not points or not 0.0 < last < curve.cap:
            continue  # answered before any root search, or started cold
        if reached(last):
            assert max(points) <= last
        else:
            assert min(points) >= last


@pytest.mark.parametrize("sc, first, alpha", [
    (scenario(540.0, Normal(100.0, 10.0), Normal(200.0, 20.0), Normal(300.0, 30.0)), 0.25, 0.05),
    (scenario(540.0, Normal(100.0, 10.0), Normal(200.0, 20.0), Normal(300.0, 30.0)), 0.05, 0.25),
    (scenario(10.0, Normal(5.0, 20.0), Normal(50.0, 5.0)), 0.5, 0.15),
    (scenario(200.0, Exponential(40.0), Normal(120.0, 30.0), Exponential(90.0)), 0.0, 0.1),
], ids=["normals-down", "normals-up", "negative-availability", "mixed"])
def test_alpha_fair_on_reused_curves_matches_fresh_curves(sc, first, alpha):
    # the retry at alpha + 2e-9 reuses the first pass's curves, whose inverses
    # then start from that pass's crossings
    curves = allocation_module._prologue(sc)[1]
    allocation_module._alpha_fair(sc, first, curves)
    warm = allocation_module._alpha_fair(sc, alpha, curves).values
    cold = allocation_module._alpha_fair(sc, alpha, allocation_module._prologue(sc)[1]).values
    for curve, w, c in zip(curves, warm, cold):
        assert same_up_to_flat_curve(curve, w, c)


def assert_floor_interval_matches_bisection(curves, budget, alpha):
    expected = oracles.floor_interval_bisect(
        curves, budget, alpha, allocation_module.BISECTION_STEPS
    )
    try:
        found = allocation_module._feasible_floors(curves, budget, alpha)[:2]
    except InfeasibleError:
        found = None
    assert (found is None) == (expected is None)
    if found is None:
        return
    for end, ref in zip(found, expected):
        # where a sum decides its crossing at rounding level (a flat Normal),
        # the end may land on another crossing whose em targets ell * mu agree
        assert end == ref or all(
            abs(end - ref) * c.mu <= 8 * math.ulp(c.mu) for c in curves
        ), (found, expected)


FLOOR_INTERVAL_CASES = [
    (scenario(7.5, Poisson(8.0)), 0.0),
    (scenario(672.2743411034232, Normal(110.1684102412788, 26.690216611057924),
              Normal(363.16818391266133, 48.16225174861001),
              Normal(86.89202343224592, 18.133009097478133)), 0.05),
] + [(load_scenario_path(str(path)).scenario, alpha)
     for path in GOLDEN_SCENARIOS for alpha in (0.0, 0.05, 0.25)]


# widen 0 is the first pass's band, 2e-9 the retry's
@pytest.mark.parametrize("widen", [0.0, 2e-9])
@pytest.mark.parametrize("sc, alpha", FLOOR_INTERVAL_CASES)
def test_floor_interval_matches_per_group_bisection_on_cases(sc, alpha, widen):
    curves = [allocation_module._curve(g.dist, sc.resource) for g in sc.groups]
    assert_floor_interval_matches_bisection(curves, sc.resource, alpha + widen)


@given(dists=st.lists(st.one_of(strategies.demand_distributions, strategies.heavy_normals()),
                      min_size=1, max_size=4),
       ratio=st.floats(0.05, 1.5),
       alpha=st.sampled_from([0.0, 0.05, 0.25]),
       widen=st.sampled_from([0.0, 2e-9]))
@settings(max_examples=150)
def test_floor_interval_matches_per_group_bisection(dists, ratio, alpha, widen):
    budget = ratio * sum(d.mean() for d in dists)
    curves = [allocation_module._curve(d, budget) for d in dists]
    assert_floor_interval_matches_bisection(curves, budget, alpha + widen)


@given(
    dists=st.lists(strategies.discrete_distributions, min_size=1, max_size=4),
    repeat=st.booleans(),
    cap=st.floats(1.0, 600.0),
    ends=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=5, max_size=5),
    where=st.floats(0.0, 1.0),
    on_step=st.booleans(),
)
@settings(max_examples=200)
def test_knot_water_fill_stop_matches_full_loop(dists, repeat, cap, ends, where, on_step):
    # repeat gives two groups the same cdf levels; two_point with k > cap and
    # a constant past the cap give one group a repeated level
    if repeat:
        dists = dists + dists[:1]
    curves = [allocation_module._curve(d, cap) for d in dists]
    lo, hi = [], []
    for c, (x, y) in zip(curves, ends):
        top = min(cap, c.dist.support_max())
        a, b = sorted((x * top, y * top))
        lo.append(a)
        hi.append(b)
    if on_step:
        # a budget that some cdf level fills exactly
        budget = sum(c.box_fill(a, b)(where) for c, a, b in zip(curves, lo, hi))
    else:
        budget = sum(lo) + where * (sum(hi) - sum(lo))
    expected = oracles.water_fill_full_loop(
        curves, budget, lo, hi, allocation_module.BISECTION_STEPS, allocation_module.V_TOLERANCE
    )
    assert allocation_module._water_fill(curves, budget, lo, hi)[0] == expected


def test_huge_poisson_budgets_take_knot_curves_with_the_same_allocation():
    # At R = 5e7 a table up to the budget passed 2**20 knots, so Poisson(5)
    # took the smooth path; its table now ends at the tail and gives knots.
    sc = scenario(5e7, Poisson(5.0), Poisson(2e7))
    curves = allocation_module._prologue(sc)[1]
    assert [type(c) for c in curves] == [allocation_module._KnotCurve, allocation_module._SmoothCurve]
    smooth = [allocation_module._SmoothCurve(g.dist, sc.resource) for g in sc.groups]
    assert (allocation_module._max_fill(curves, sc.resource)
            == allocation_module._max_fill(smooth, sc.resource))
    assert (allocation_module._alpha_fair(sc, 0.05, curves)
            == allocation_module._alpha_fair(sc, 0.05, smooth))
