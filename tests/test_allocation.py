import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from fairalloc.metrics import (
    Allocation,
    Group,
    Scenario,
    evaluate,
    fairness,
    resource_tol,
    utilization,
)
from fairalloc.montecarlo import estimate_report
from fairalloc.scenario_io import emit_availability_curve, load_scenario_path


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


def count_water_fills(monkeypatch):
    """A list that grows by one per water-fill."""
    calls = []
    water_fill = allocation_module._water_fill

    def counting_water_fill(*args):
        calls.append(args)
        return water_fill(*args)

    monkeypatch.setattr(allocation_module, "_water_fill", counting_water_fill)
    return calls


def test_alpha_fair_solve_takes_few_water_fills(monkeypatch):
    # regression: a 512-floor grid, two probe floors and a golden-section
    # refine around the best grid floor used to cost 577 water-fills here,
    # and golden-section alone 70 (the slope search takes 4);
    # halving on after the allocation was final cost 984 bisection steps,
    # and bisecting the cdf level of each of golden-section's floors from
    # [0, 1] cost 395 (26 for the slope search's floors);
    # bisecting the floor interval's ends cost 248 box inverses per group
    sc = scenario(900.0, Poisson(200.0), Poisson(400.0), Poisson(400.0))
    calls = count_water_fills(monkeypatch)
    fill_calls = count_fill_steps(monkeypatch)
    inverses = count_box_inverses(monkeypatch)
    alpha_fair_optimal(sc, 0.05)
    assert len(calls) <= 10
    assert len(fill_calls) / sc.size <= 250
    assert len(inverses) / sc.size <= 170


def test_alpha_fair_smooth_solve_takes_few_expected_min_calls(monkeypatch):
    # regression: bisecting every smooth box inverse cost 41,298 calls here,
    # and bisecting the cdf level of each of golden-section's floors from
    # [0, 1] 2,448 fill steps (41 for the slope search's floors);
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


@pytest.mark.parametrize("resource, dists, most", [
    (540.0, (Normal(100.0, 10.0), Normal(200.0, 20.0), Normal(300.0, 30.0)), 3),
    (300.0, (Exponential(100.0), Exponential(250.0), Normal(150.0, 40.0)), 12),
    (150.0, (Constant(50.0), Constant(80.0), Constant(120.0)), 2),
    (3.6, (TwoPoint(15.460489652455978), TwoPoint(13.328626013842639),
           TwoPoint(12.55082082733259)), 7),
], ids=["normals", "exponentials-and-normal", "constants", "two-points"])
def test_alpha_fair_solve_scores_few_floors(resource, dists, most, monkeypatch):
    # regression: the golden-section search scored 70 floors on each, and the
    # slope search scores 3, 9, 2 and 5; on the normals the first floor is
    # 0-fair at its max-utilization allocation, so U* is flat and the first
    # floor scored inside the interval has g = 0
    sc = scenario(resource, *dists)
    calls = count_water_fills(monkeypatch)
    alpha_fair_optimal(sc, 0.05)
    assert len(calls) <= most


GOLDEN_SCENARIOS = sorted(
    (pathlib.Path(__file__).parent / "golden" / "scenarios").glob("*.json")
)


def golden_section_outcome(sc, alpha):
    """alpha_fair_optimal's (U, fairness, water-fills), or its error, with a
    golden-section search on the floors' values in place of the slope search."""
    def golden_search(score, slope, a, b):
        oracles.golden_search(score, a, b)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(allocation_module, "_slope_search", golden_search)
        return fair_outcome(sc, alpha, monkeypatch)


def fair_outcome(sc, alpha, monkeypatch):
    calls = count_water_fills(monkeypatch)
    try:
        alloc = alpha_fair_optimal(sc, alpha)
    except allocation_module.OptimizerError as exc:
        return repr(exc), None, len(calls)
    return utilization(sc, alloc), fairness(sc, alloc), len(calls)


@given(dists=st.lists(st.one_of(strategies.demand_distributions, strategies.heavy_normals(),
                                strategies.large_empiricals()), min_size=2, max_size=8),
       ratio=st.floats(0.2, 1.5),
       alpha=st.sampled_from([0.0, 0.01, 0.05, 0.25, 0.5]))
# regressions: near a kink of U* where every fill sits on a box end, the
# fill's own price labelled floors on the wrong side of the kink (the first
# two), and tangent steps crept towards it for 106 floors (the third); a
# knot fill that stopped inside a step priced the floor at its bracket's
# midpoint and lost 1.8e-5 of U (the fourth, pof_narrow seed 0's set 12)
@example(dists=[Normal(6.0, 1.0), Normal(1.0, 1.0)], ratio=0.5, alpha=0.01)
@example(dists=[Normal(1.0, 1.0), Normal(6.0, 1.0)], ratio=1.0, alpha=0.01)
@example(dists=[Normal(3.0, 10.0), Normal(22.0, 15.0)], ratio=0.203125, alpha=0.25)
@example(dists=[
    Empirical((72.0, 234.0, 269.0, 297.0, 350.0, 384.0),
              (0.19506234247147133, 0.004740768914429087, 0.19041007978909874,
               0.1764034009652462, 0.05050073633713464, 0.38288267152262007)),
    Empirical((26.0, 34.0, 37.0, 42.0, 58.0, 68.0, 93.0, 151.0, 159.0, 162.0, 171.0,
               192.0, 207.0, 217.0, 233.0, 245.0, 273.0, 278.0, 293.0, 305.0, 307.0,
               320.0, 328.0, 330.0, 348.0, 360.0, 364.0, 368.0, 383.0, 384.0, 397.0),
              (0.04789540704161894, 0.009668786165980155, 0.008351522234356982,
               0.012411291084179557, 0.06617316992657854, 0.06530578192109636,
               0.0556064321241373, 0.006954857642900828, 0.08617938621170314,
               0.012282710783864212, 0.003506822841440318, 0.03717489299757282,
               0.0011813600905840518, 0.04043268304652504, 0.03436815241209973,
               0.02785627804759094, 0.13293805847798196, 0.08344947410978865,
               0.012030033878551581, 0.021305659996580933, 0.014642805057533383,
               0.07573462995171053, 0.0014215333091900158, 0.012332372933137811,
               0.001475261868579454, 0.028441806670756666, 0.03783844235245211,
               0.0073922774129707635, 0.014106132226916777, 0.0057642490627060556,
               0.035777728118914304)),
    Empirical((21.0, 202.0, 226.0, 251.0, 277.0, 288.0, 293.0, 317.0),
              (0.19048790760677276, 0.2760212406760565, 0.0012475556401708766,
               0.0035315527334287646, 0.025859755681841862, 0.2914021670254714,
               0.1788076996753637, 0.0326421209608943)),
], ratio=1.2, alpha=0.05)
# regression: the fifth's fills met the budget within tol, 4e-13 above it, on
# a stretch of levels where the empirical law sits on its knot at 1; the
# water-fill priced the floor at the stretch's top end (lam 0.5, g = +0.5)
# where the fills cross the budget at its bottom (lam 1, g = -3), so every
# floor just right of the kink of U* read as left of it: 142 water-fills
# against golden-section's 70
@example(dists=[Constant(3.0), TwoPoint(4.0), Empirical((1.0, 2.0), (0.5, 0.5))],
         ratio=1.0, alpha=0.05)
# regression: the last floor's fills met the budget within tol, 3.8e-10 above
# it, and the signed dust went by index to the constant on its atom, whose
# marginal is 1, rather than to the exponential, whose marginal is the price
# 0.0098: U read 5.1e-11 below golden-section's
@example(dists=[Constant(6.25), Exponential(1.0)], ratio=1.5, alpha=0.01)
# regression: right of a kink both groups sat on box ends 6e-10 above the
# budget, and the dust took the normal below its low end where the binomial,
# on its high end, could take it inside its box: 83 water-fills against 67
@example(dists=[Normal(7.0, 5.0), Binomial(6, 0.5)], ratio=1.0, alpha=0.01)
@settings(max_examples=200)
def test_slope_search_does_as_well_as_golden_section_with_fewer_floors(dists, ratio, alpha):
    assert_slope_search_does_as_well_as_golden_section(
        scenario(ratio * sum(d.mean() for d in dists), *dists), alpha)


# regression: just right of a kink of U*, the water-fill's signed dust left
# a group below its low box end, within its tolerance, where another group
# could take it inside its box. The U those floors scored then departed from
# the right branch while slope() rightly read g < 0, so each tangent step
# landed on b, was clamped by its margin, and b crept left: 120, 91 and 129
# water-fills against golden-section's 67, 70 and 67 (the third is where
# --hypothesis-seed 28 shrank the test above to). The water-fill's ends
# jumping across its fills' stretches brought the first two to 8 and 9; dust
# that stays inside the boxes where it can brings the third to 8.
@pytest.mark.parametrize("dists, ratio, alpha", [
    ([TwoPoint(29.0), TwoPoint(82.0), TwoPoint(1.5), Exponential(1.0)], 1.0, 0.01),
    ([Exponential(1.0), Constant(1.0), TwoPoint(1.5)], 1.5, 0.05),
    ([TwoPoint(191.0), TwoPoint(2.0), Exponential(1.0)], 1.0, 0.01),
], ids=["two-points-and-exponential", "exponential-constant-two-point", "two-points-191-2-exponential"])
def test_slope_search_scores_no_more_floors_than_golden_section_next_to_a_kink(
        dists, ratio, alpha):
    sc = scenario(ratio * sum(d.mean() for d in dists), *dists)
    _, _, golden_fills = golden_section_outcome(sc, alpha)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _, _, fills = fair_outcome(sc, alpha, monkeypatch)
    assert fills <= golden_fills


@pytest.mark.parametrize("alpha", [0.05, 0.25])
@pytest.mark.parametrize("path", GOLDEN_SCENARIOS, ids=lambda path: path.stem)
def test_slope_search_does_as_well_as_golden_section_on_golden_scenarios(path, alpha):
    assert_slope_search_does_as_well_as_golden_section(load_scenario_path(str(path)).scenario, alpha)


def assert_slope_search_does_as_well_as_golden_section(sc, alpha):
    golden_u, golden_gap, golden_fills = golden_section_outcome(sc, alpha)
    with pytest.MonkeyPatch.context() as monkeypatch:
        u, gap, fills = fair_outcome(sc, alpha, monkeypatch)
    if isinstance(golden_u, str):
        assert u == golden_u
        return
    # A water-fill meets the budget within its tolerance and may overstep a
    # box by as much where no group can take its dust inside its own box, so
    # golden-section can score an allocation a little past alpha (Normal(1, 1)
    # + Normal(6, 1) at R/Z 1, alpha 0.01: by 2.5e-10, while the dust went by
    # index alone). Each unit of fairness past alpha is worth at most sum mu_i
    # of U.
    excess = max(0.0, golden_gap - alpha) * sc.total_mean
    assert u >= golden_u - 1e-11 * abs(golden_u) - excess
    assert gap <= alpha + 1e-6
    assert fills <= golden_fills


def test_mixed_water_fills_take_few_fill_steps(monkeypatch):
    # regression: plain halving of the level of a fill with both knot and
    # smooth curves took 2,565 fill steps per group here over the six
    # solves; moving each end to the edge of the fills' stretches takes 1,546
    dists = (Normal(100.0, 10.0), Poisson(80.0), Exponential(50.0), Binomial(200, 0.4),
             Constant(60.0), TwoPoint(5.0), Empirical((10.0, 40.0, 90.0), (0.2, 0.5, 0.3)),
             Normal(30.0, 6.0))
    total_mean = sum(d.mean() for d in dists)
    fill_calls = count_fill_steps(monkeypatch)
    for ratio in (0.5, 0.9, 1.2):
        for alpha in (0.05, 0.25):
            pof(scenario(ratio * total_mean, *dists), alpha)
    assert len(fill_calls) / len(dists) <= 2_000


def test_knot_water_fill_stops_once_no_level_is_left(monkeypatch):
    # regression: each Constant law has the cdf levels 0 and 1 only, so every
    # midpoint in (0, s_hi) repeated the fills at s_hi, and the water-fills
    # ran on to BISECTION_STEPS: 2,962 fill steps per group, one per fill now
    sc = scenario(150.0, Constant(50.0), Constant(80.0), Constant(120.0))
    fills = count_water_fills(monkeypatch)
    fill_calls = count_fill_steps(monkeypatch)
    pof(sc, 0.05)
    assert len(fill_calls) / sc.size == len(fills)


@pytest.mark.parametrize("laws, cap, lo, hi, budget, price, evaluations", [
    ((Constant(50.0), Constant(80.0)), 200.0, (0.0, 0.0), (50.0, 80.0), 100.0, 1.0, 2),
    ((Constant(50.0), Constant(80.0)), 200.0, (0.0, 0.0), (200.0, 200.0), 150.0, 0.0, 2),
    ((Constant(5.0), Poisson(2.0)), 5.0, (0.0, 4.0), (5.0, 5.0), 7.0, 1.0, 2),
    ((Constant(50.0), Constant(50.0)), 200.0, (0.0, 0.0), (60.0, 60.0), 120.0 - 5e-10, 0.0, 2),
], ids=["all-midpoints-above", "all-midpoints-below", "levels-under-a-low-end",
        "hi-within-tol-above"])
def test_knot_water_fill_stop_at_an_end_matches_full_loop(
        laws, cap, lo, hi, budget, price, evaluations, monkeypatch):
    # every midpoint in (0, 1) gives the same fills: the atoms, above the
    # budget (hi is the atoms) or below it (hi lies above it), or 5 and the
    # Poisson's low end 4, above it (the Poisson's cdf levels 0.135 and 0.406
    # lie under the end's 0.947). So one evaluated step settles it, and the
    # fills step at s = 0 (lo) or at s = 1 (hi), which prices them at 1 or 0.
    # In the last case only hi, at s = 1, meets the budget within tol; it is
    # never probed, but its sum is checked once the bracket is final
    # (regression: the capped loop priced that step at s = 0, price 1)
    curves = [allocation_module._curve(d, cap) for d in laws]
    lo, hi = list(lo), list(hi)
    tol = resource_tol(budget)  # the library's stop
    expected, _ = oracles.water_fill_full_loop(curves, budget, lo, hi, tol)
    fill_calls = count_fill_steps(monkeypatch)
    assert allocation_module._water_fill(curves, budget, lo, hi) == (expected, price)
    assert len(fill_calls) == evaluations


@pytest.mark.parametrize("excess, price", [(4e-13, 1.0), (-4e-13, 0.5)], ids=["above", "below"])
def test_water_fill_within_tol_prices_the_level_where_the_fills_cross(excess, price):
    # every level s in (0, 0.5] fills 2 (hi, below the atom at 3), 2.5 (lo,
    # the two-point law's cdf is 0.75 there) and 1 (the empirical knot), 5.5
    # in all; the first midpoint, 0.5, meets the budget within tol. Above the
    # budget the fills step down onto it at s = 0, below it they step up at
    # s = 0.5, so the price 1 - s is 1 or 0.5
    curves = [allocation_module._curve(d, 6.0)
              for d in (Constant(3.0), TwoPoint(4.0), Empirical((1.0, 2.0), (0.5, 0.5)))]
    lo, hi = [1.75, 2.5, 0.75], [2.0, 2.75, 1.25]
    v, fill_price = allocation_module._water_fill(curves, 5.5 - excess, lo, hi)
    assert v[2] == 1.0
    assert fill_price == price


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


SCALED_MIXES = {
    "exponential+constant": lambda c: [Exponential(c), Constant(c)],
    "normal+exponential": lambda c: [Normal(c, 0.3 * c), Exponential(c)],
    "empirical+normal+constant": lambda c: [
        Empirical((0.0, c, 3.0 * c), (0.25, 0.5, 0.25)), Normal(2.0 * c, 0.5 * c), Constant(0.5 * c)
    ],
    # every support bounded, so R/Z = 3 saturates it
    "empirical+constant": lambda c: [Empirical((0.0, c, 3.0 * c), (0.25, 0.5, 0.25)), Constant(2.0 * c)],
}


@pytest.mark.parametrize("c", [1e-300, 1e-12, 1e-5, 1e5, 1e100, 1e200])
@pytest.mark.parametrize("mix", SCALED_MIXES.values(), ids=SCALED_MIXES)
def test_scaling_every_law_and_the_budget_scales_both_optima(mix, c):
    # regression: tolerances in absolute resource units made pof raise
    # ConvergenceError below R = 1, or read a PoF up to 7.9% off the unscaled
    # one; the product R mu_i in R mu_i / Z underflowed at 1e-300 and
    # overflowed at 1e200
    unit, scaled = mix(1.0), mix(c)

    def assert_scaled(got, want, resource):
        assert max(abs(v - c * w) for v, w in zip(got.values, want.values)) <= 1e-8 * resource

    for ratio in (0.5, 0.9, 1.2, 3.0):
        base_sc = scenario(ratio * sum(d.mean() for d in unit), *unit)
        sc = scenario(ratio * sum(d.mean() for d in scaled), *scaled)
        assert_scaled(mean_weighted(sc), mean_weighted(base_sc), sc.resource)
        for alpha in (0.0, 0.05, 0.5):
            base, result = pof(base_sc, alpha), pof(sc, alpha)
            assert result.pof == pytest.approx(base.pof, rel=1e-8, abs=0.0)
            assert_scaled(result.max_utilization_allocation, base.max_utilization_allocation, sc.resource)
            assert_scaled(result.alpha_fair_allocation, base.alpha_fair_allocation, sc.resource)
        base_report, report = (evaluate(s, mean_weighted(s), epsilon=0.1, alpha=0.05) for s in (base_sc, sc))
        for got, want in zip(report.groups, base_report.groups):
            assert got.availability == pytest.approx(want.availability, rel=0.0, abs=1e-9)
        assert report.fairness == pytest.approx(base_report.fairness, rel=0.0, abs=1e-9)
        assert report.utilization == pytest.approx(c * base_report.utilization, rel=1e-9, abs=0.0)
        flags = ("fairness_ok", "fairness_low_resource_ok", "utilization_ok", "utilization_low_resource_ok")
        assert [getattr(report.bounds, f) for f in flags] == [getattr(base_report.bounds, f) for f in flags]
        # regression: mc-check's SE read 0 at 1e-300, and its squares overflowed at 1e200
        base_mc, mc = (estimate_report(s, mean_weighted(s), 10_000, 3) for s in (base_sc, sc))
        for got, want in zip(mc.groups, base_mc.groups):
            assert got.availability.value == pytest.approx(want.availability.value, rel=0.0, abs=1e-9)
            assert got.availability.standard_error == pytest.approx(
                want.availability.standard_error, rel=0.0, abs=1e-9)
        assert mc.utilization.value / c == pytest.approx(base_mc.utilization.value, rel=1e-9, abs=0.0)
    base_deltas, deltas = (scenario_certificate(scenario(1.0, *laws), 0.1).per_group_deltas
                           for laws in (unit, scaled))
    assert deltas == pytest.approx(base_deltas, rel=0.0, abs=1e-9)
    for base_law, law in zip(unit, scaled):
        v_max = 2.0 * base_law.mean()
        base_rows, rows = (emit_availability_curve(d, v, 41) for d, v in ((base_law, v_max), (law, c * v_max)))
        assert rows[:, 1] == pytest.approx(base_rows[:, 1], rel=0.0, abs=1e-9)


# ---------------------------------------------------------------- box inverses and water-fill stop

@pytest.mark.parametrize("slope, root", [
    (1e6, 0.3), (0.0, 0.3), (math.inf, 0.3), (math.nan, 0.3), (1.0, 0.3), (1e6, 1e-20),
], ids=["1000000.0", "0.0", "inf", "nan", "1.0", "1000000.0-at-1e-20"])
@pytest.mark.parametrize("strict", [False, True])
def test_crossing_ends_on_adjacent_doubles(slope, root, strict):
    # Slope 1e6 makes the Newton steps crawl, so the halvings after them must
    # finish; 0, inf and nan give no usable slope; slope 1 is the exact one.
    # regression: at the root 1e-20 the old cap of 2 * BISECTION_STEPS steps
    # ended the halvings after 120 calls on (6.0e-25, 8.7e-19); they reach
    # adjacent doubles there after 179
    calls = []

    def gap(v):
        calls.append(v)
        return v - root

    found = allocation_module._crossing(gap, lambda v: slope, strict, 0.0, 1.0, 0.0, -root)
    if strict:
        assert found == (root, math.nextafter(root, 1.0))
    else:
        assert found == (math.nextafter(root, 0.0), root)
    if root == 1e-20:
        # the docstring's bound on the bracket (0, 1)
        assert len(calls) <= allocation_module.BISECTION_STEPS + 1_075
    else:
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
@example(dist=Normal(1.2240233744618738, 24.480467489237476), cap_ratio=20.0,
         share=0.7536818930112946, tail=None)
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
        ref = oracles.bisect_bracket(reached, 0.0, curve.cap, 60)[end]  # the halvings it replays
        # Where the curve is flat at rounding level, the computed em is not
        # monotone across the crossing, so v may land on another crossing
        # whose em agrees with the reference's to rounding.
        assert (abs(v - ref) <= max(curve.cap * 2.0**-60, math.ulp(ref))
                or same_up_to_flat_curve(curve, v, ref))


def em_rounding(curve, v):
    """8 ulp of the largest term of the smooth E[min] formula at v.

    Normal._expected_min forms mu - (mu - v) S - sigma phi, with S = Pr[C > v]
    and phi the standard density at (mu - v) / sigma. Each term is computed
    to a few ulp of itself (mu - v, erfc, exp and the products) and each
    subtraction rounds to half an ulp of its result, so em carries a few ulp
    of the largest term, and two evaluations of em differ by up to twice
    that. With sigma <= mu no term passes mu: (mu - v) S <= mu for 0 <= v <=
    mu, (v - mu) S <= 0.17 sigma for v > mu, and sigma phi < 0.4 sigma. So
    the allowance is 8 ulp(mu) there, while a heavy Normal's sigma phi can
    pass mu many times over. Exponential's -m expm1(-v / m) is one term, at
    most mu.
    """
    dist, terms = curve.dist, [curve.mu]
    if isinstance(dist, Normal):
        z = (dist.mu - v) / dist.sigma
        terms += [abs(dist.mu - v) * dist.survival(v),
                  dist.sigma * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)]
    return 8 * math.ulp(max(terms))


def same_up_to_flat_curve(curve, warm, cold):
    # the flat-curve clause of the reference-bisection test above
    return warm == cold or (warm is not None and cold is not None and abs(curve.em(warm) - curve.em(cold))
                            <= max(em_rounding(curve, warm), em_rounding(curve, cold)))


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
    expected = oracles.floor_interval_bisect(curves, budget, alpha, 60)  # the halvings it replays
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
@example(dists=[Constant(1.0), Constant(1.0)], repeat=False, cap=1.0,
         ends=[(0.0, 1e-09), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)], where=0.0, on_step=False)
# regression: both groups' fills step from 0 to 1 at level 2**-192, which 60
# halvings from [0, 1] never reached; the capped loop returned [2, 0]
@example(dists=[Binomial(192, 0.5)], repeat=True, cap=2.0,
         ends=[(0.0, 1.0), (0.0, 1.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)],
         where=1.6676989416022122e-58, on_step=True)
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
        budget = sum(b if where == 1.0 else c.box_fill(a, b)(where)[0]
                     for c, a, b in zip(curves, lo, hi))
    else:
        budget = sum(lo) + where * (sum(hi) - sum(lo))
    tol = resource_tol(budget)  # the library's stop
    expected, (s_lo, s_hi) = oracles.water_fill_full_loop(curves, budget, lo, hi, tol)
    v, price = allocation_module._water_fill(curves, budget, lo, hi)
    assert v == expected
    # the stop's level lies in the full loop's final bracket; 1 - price
    # rounds it by at most 2**-54
    assert s_lo - 2**-54 <= 1.0 - price <= s_hi + 2**-54


def test_huge_poisson_budgets_take_knot_curves_with_the_same_allocation():
    # At R = 5e7 a table up to the budget passed 2**20 knots, so Poisson(5)
    # and Binomial(2e6, 1e-5) took the smooth path; their tables now end at
    # the tail and give knots.
    sc = scenario(5e7, Poisson(5.0), Binomial(2_000_000, 1e-5), Poisson(2e7))
    curves = allocation_module._prologue(sc)[1]
    assert [type(c) for c in curves] == [allocation_module._KnotCurve] * 2 + [allocation_module._SmoothCurve]
    smooth = [allocation_module._SmoothCurve(g.dist, sc.resource) for g in sc.groups]
    assert (allocation_module._max_fill(curves, sc.resource)
            == allocation_module._max_fill(smooth, sc.resource))
    assert (allocation_module._alpha_fair(sc, 0.05, curves)
            == allocation_module._alpha_fair(sc, 0.05, smooth))


def test_lattice_tables_near_the_knot_cap_give_the_smooth_allocation():
    # the budget passes 2**20 and both tables end near 5.6e5 knots
    sc = scenario(1.06e6, Poisson(5.3e5), Binomial(2_000_000, 0.27))
    curves = allocation_module._prologue(sc)[1]
    assert [type(c) for c in curves] == [allocation_module._KnotCurve] * 2
    smooth = [allocation_module._SmoothCurve(g.dist, sc.resource) for g in sc.groups]
    assert (allocation_module._max_fill(curves, sc.resource)
            == allocation_module._max_fill(smooth, sc.resource))
