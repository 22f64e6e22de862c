import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracles
import strategies
from fairalloc.allocation import mean_weighted, pof
from fairalloc.certificates import (
    CertificateError,
    TailCertificate,
    bennett_h,
    chernoff_delta,
    chernoff_threshold,
    exact_lower_deviation,
    min_parameter_threshold,
    scenario_certificate,
    theoretical_bounds,
)
from fairalloc.distributions import (
    Binomial, Constant, Empirical, Exponential, Normal, Poisson, TwoPoint,
)
from fairalloc.metrics import Group, Scenario, evaluate


# ---------------------------------------------------------------- exact deltas

def test_exact_lower_deviation_examples():
    assert exact_lower_deviation(Constant(5.0), 0.3) == 0.0
    assert exact_lower_deviation(TwoPoint(10.0), 0.5) == pytest.approx(0.9, abs=1e-15)
    expected = oracles.mp_poisson_cdf(400.0, 360)
    assert exact_lower_deviation(Poisson(400.0), 0.1) == pytest.approx(expected, rel=1e-12)


def test_exact_lower_deviation_includes_integer_boundary_atom():
    # (1-eps) mu = 180 exactly: the atom at 180 is in the event (non-strict tail)
    dist = Poisson(200.0)
    delta = exact_lower_deviation(dist, 0.1)
    assert delta == pytest.approx(dist.cdf(180), abs=0.0)
    assert delta > dist.cdf(179)


@pytest.mark.parametrize("law, epsilon", [
    (lambda c: Exponential(c), 0.1),
    (lambda c: Normal(100.0 * c, 10.0 * c), 0.1),
    (lambda c: Empirical((c, 3.0 * c), (0.5, 0.5)), 0.5),
], ids=["exponential", "normal", "empirical"])
def test_exact_lower_deviation_is_scale_free(law, epsilon):
    # regression: the threshold snapped to an integer within an absolute
    # 1e-9 below 1, so a tiny (1 - eps) mu became 0 and the delta read 0.
    # The Normal's tail amplifies the rounding of its z-score to about 6 ulps.
    unit = exact_lower_deviation(law(1.0), epsilon)
    assert unit > 0.0
    for c in (1e-300, 1e-200, 1e-12, 1e-3, 1e3, 1e100):
        scaled = exact_lower_deviation(law(c), epsilon)
        assert scaled == pytest.approx(unit, rel=16 * 2.0**-52, abs=0.0)


def test_exact_lower_deviation_epsilon_validation():
    for eps in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(CertificateError):
            exact_lower_deviation(Poisson(4.0), eps)


def test_exact_lower_deviation_nonincreasing_in_epsilon():
    for dist in (Poisson(50.0), Binomial(300, 0.4), Normal(100.0, 10.0)):
        grid = np.linspace(0.02, 0.98, 25)
        deltas = [exact_lower_deviation(dist, e) for e in grid]
        assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))


def test_normal_exact_certificate_is_gaussian_tail():
    dist = Normal(100.0, 10.0)
    eps = 0.1
    # Pr[C <= (1-eps) mu] = Phi(-eps mu / sigma)
    expected = 0.5 * math.erfc(eps * 100.0 / (10.0 * math.sqrt(2.0)))
    assert exact_lower_deviation(dist, eps) == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------- Chernoff deltas

def test_chernoff_examples():
    assert chernoff_delta(Binomial(1000, 0.5), 0.1) == pytest.approx(
        math.exp(-2.5), rel=1e-15
    )
    assert chernoff_delta(Normal(100.0, 10.0), 0.1) == pytest.approx(
        math.exp(-0.5), rel=1e-15
    )
    lam = 400.0
    h = 2.0 * ((1.0 - 0.1) * math.log(0.9) + 0.1) / 0.01
    assert chernoff_delta(Poisson(lam), 0.1) == pytest.approx(
        math.exp(-(0.01 * lam / 2.0) * h), rel=1e-12
    )


def test_chernoff_rejects_unsupported_families():
    for dist in (Constant(5.0), TwoPoint(10.0), Exponential(10.0)):
        with pytest.raises(CertificateError, match="binomial, normal, poisson"):
            chernoff_delta(dist, 0.1)


@pytest.mark.parametrize(
    "dist",
    [Binomial(1000, 0.3), Binomial(50, 0.7), Poisson(400.0), Poisson(12.0), Normal(100.0, 10.0), Normal(50.0, 3.0)],
)
def test_chernoff_upper_bounds_exact_on_grid(dist):
    for eps in np.linspace(0.02, 0.98, 30):
        assert chernoff_delta(dist, eps) >= exact_lower_deviation(dist, eps) - 1e-15


# ---------------------------------------------------------------- h shape

def test_h_limit_and_values():
    assert bennett_h(-1e-9) == pytest.approx(1.0, abs=1e-7)
    assert bennett_h(1e-9) == pytest.approx(1.0, abs=1e-7)
    direct = 2.0 * ((1.0 - 0.1) * math.log(0.9) + 0.1) / 0.01
    assert bennett_h(-0.1) == pytest.approx(direct, rel=1e-12)
    assert bennett_h(-0.1) == pytest.approx(1.0352, abs=2e-4)
    with pytest.raises(CertificateError, match=r"h\(x\) requires x > -1, got -1.0"):
        bennett_h(-1.0)


def test_h_exceeds_one_on_lower_tail():
    for eps in np.linspace(0.01, 0.99, 40):
        assert bennett_h(-eps) > 1.0
    assert bennett_h(-0.001) == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------- thresholds

def test_threshold_examples():
    assert min_parameter_threshold("binomial", 0.1, 0.01, p=0.5) == 1843
    assert min_parameter_threshold("normal", 0.1, 0.01, sigma=10.0) == pytest.approx(
        math.sqrt(20000.0 * math.log(100.0)), rel=1e-12
    )
    expected = (2.0 / (0.01 * bennett_h(-0.1))) * math.log(100.0)
    assert min_parameter_threshold("poisson", 0.1, 0.01) == pytest.approx(expected, rel=1e-12)


def test_threshold_boundary_is_sharp():
    # at the threshold the Chernoff bound certifies delta; one below it fails
    n_min = min_parameter_threshold("binomial", 0.1, 0.01, p=0.5)
    assert chernoff_delta(Binomial(n_min, 0.5), 0.1) <= 0.01
    assert chernoff_delta(Binomial(n_min - 1, 0.5), 0.1) > 0.01
    mu_min = min_parameter_threshold("normal", 0.1, 0.01, sigma=10.0)
    assert chernoff_delta(Normal(mu_min, 10.0), 0.1) <= 0.01 + 1e-12
    lam_min = min_parameter_threshold("poisson", 0.1, 0.01)
    assert chernoff_delta(Poisson(lam_min), 0.1) <= 0.01 + 1e-12
    assert chernoff_delta(Poisson(lam_min * 0.99), 0.1) > 0.01


def test_chernoff_threshold_dispatches_on_family():
    assert chernoff_threshold(Binomial(100, 0.5), 0.1, 0.01) == 1843
    assert chernoff_threshold(Normal(50.0, 10.0), 0.1, 0.01) == min_parameter_threshold(
        "normal", 0.1, 0.01, sigma=10.0
    )
    assert chernoff_threshold(Poisson(5.0), 0.1, 0.01) == min_parameter_threshold("poisson", 0.1, 0.01)
    for dist in (Constant(3.0), TwoPoint(4.0), Exponential(2.0)):
        assert chernoff_threshold(dist, 0.1, 0.01) is None


def test_threshold_validation():
    with pytest.raises(CertificateError):
        min_parameter_threshold("weibull", 0.1, 0.01)
    with pytest.raises(CertificateError):
        min_parameter_threshold("binomial", 0.1, 0.01)  # p missing
    with pytest.raises(CertificateError):
        min_parameter_threshold("normal", 0.1, 0.01)  # sigma missing
    with pytest.raises(CertificateError):
        min_parameter_threshold("poisson", 0.1, 1.5)


# ---------------------------------------------------------------- scenario certificates

def test_all_constant_scenario_certifies_delta_zero():
    sc = Scenario(resource=10.0, groups=(Group("a", Constant(10.0)), Group("b", Constant(30.0))))
    cert = scenario_certificate(sc, 0.25)
    assert cert.delta == 0.0
    assert cert.per_group_deltas == (0.0, 0.0)
    assert cert.method == "exact_cdf"


def test_poisson_scenario_certificate_smallest_mean_dominates():
    sc = Scenario(
        resource=500.0,
        groups=tuple(Group(f"g{i}", Poisson(lam)) for i, lam in enumerate((200.0, 400.0, 400.0))),
    )
    cert = scenario_certificate(sc, 0.1)
    oracle = [oracles.mp_poisson_cdf(lam, int(0.9 * lam)) for lam in (200.0, 400.0, 400.0)]
    for got, want in zip(cert.per_group_deltas, oracle):
        assert got == pytest.approx(want, rel=1e-11)
    assert cert.delta == cert.per_group_deltas[0]
    assert cert.delta == max(cert.per_group_deltas)

    chern = scenario_certificate(sc, 0.1, "chernoff_poisson")
    assert chern.delta > cert.delta
    assert all(c > e for c, e in zip(chern.per_group_deltas, cert.per_group_deltas))


def test_chernoff_certificate_rejects_family_mismatch():
    sc = Scenario(
        resource=10.0,
        groups=(Group("p", Poisson(50.0)), Group("b", Binomial(100, 0.5))),
    )
    with pytest.raises(CertificateError, match="poisson"):
        scenario_certificate(sc, 0.1, "chernoff_poisson")
    with pytest.raises(CertificateError):
        scenario_certificate(sc, 0.1, "chernoff_made_up")


def test_tail_certificate_validation():
    with pytest.raises(CertificateError):
        TailCertificate(epsilon=1.2, delta=0.1, method="exact_cdf", per_group_deltas=(0.1,))
    with pytest.raises(CertificateError):
        TailCertificate(epsilon=0.1, delta=1.0, method="exact_cdf", per_group_deltas=(1.0,))
    with pytest.raises(CertificateError):
        TailCertificate(epsilon=0.1, delta=0.2, method="exact_cdf", per_group_deltas=(0.1,))
    with pytest.raises(CertificateError, match="unknown method 'nope'"):
        TailCertificate(epsilon=0.1, delta=0.1, method="nope", per_group_deltas=(0.1,))
    cert = TailCertificate(epsilon=0.1, delta=0.0, method="exact_cdf", per_group_deltas=(0.0,))
    assert cert.delta == 0.0


# ---------------------------------------------------------------- derived bounds

def _cert(epsilon, delta):
    return TailCertificate(
        epsilon=epsilon, delta=delta, method="exact_cdf", per_group_deltas=(delta,)
    )


def _scenario(resource, total_mean):
    return Scenario(resource=resource, groups=(Group("a", Constant(total_mean)),))


def test_theoretical_bounds_example_values():
    tb = theoretical_bounds(_cert(0.1, 0.01), _scenario(10.0, 40.0), alpha=0.25)
    assert tb.fairness_bound == pytest.approx(0.109, abs=1e-15)
    assert tb.utilization_fraction == pytest.approx(0.89, abs=1e-15)
    assert tb.pof_bound == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert tb.pof_bound_small == pytest.approx(1.5, abs=1e-15)
    assert tb.low_resource  # 10 <= 0.9 * 40
    assert tb.fairness_bound_low_resource == pytest.approx(0.9 * 0.01, abs=1e-15)
    assert tb.utilization_fraction_low_resource == pytest.approx(0.99, abs=1e-15)


def test_theoretical_bounds_delta_zero():
    tb = theoretical_bounds(_cert(0.1, 0.0), _scenario(100.0, 40.0))
    assert tb.fairness_bound == pytest.approx(0.1, abs=1e-15)
    assert tb.utilization_fraction == pytest.approx(0.9, abs=1e-15)
    assert not tb.low_resource
    assert tb.fairness_bound_low_resource is None
    assert tb.utilization_fraction_low_resource is None
    assert tb.pof_bound is None  # no alpha supplied


def test_theoretical_bounds_large_tail_sum():
    tb = theoretical_bounds(_cert(0.2, 0.4), _scenario(10.0, 40.0), alpha=0.7)
    assert tb.pof_bound == pytest.approx(1.0 / 0.3, rel=1e-12)
    assert tb.pof_bound_small is None  # eps + delta = 0.6 > 1/2


def test_theoretical_bounds_alpha_below_tail_sum():
    tb = theoretical_bounds(_cert(0.2, 0.4), _scenario(10.0, 40.0), alpha=0.5)
    assert tb.pof_bound is None
    assert tb.pof_bound_small is None


def test_fairness_bound_consistency():
    for eps in (0.05, 0.2, 0.6):
        for delta in (0.01, 0.3):
            tb = theoretical_bounds(_cert(eps, delta), _scenario(1.0, 40.0))
            assert tb.fairness_bound < eps + delta
            assert tb.fairness_bound == pytest.approx(1 - (1 - eps) * (1 - delta), abs=1e-15)


@given(dists=st.lists(strategies.demand_distributions, min_size=2, max_size=5),
       r_over_z=st.floats(0.3, 2.0), epsilon=st.floats(0.02, 0.6), extra=st.floats(0.0, 0.5))
@settings(max_examples=200, deadline=None)
def test_mean_weighted_and_pof_meet_the_certificate_bounds(dists, r_over_z, epsilon, extra):
    """The paper's theorems, at alpha >= eps + delta, for laws on C >= 0.

    The mean-weighted split meets every fairness and utilization bound the
    certificate gives, and the PoF is at most 1/(1 - alpha) and, where given,
    1 + 2 alpha. The theorems assume C >= 0, so heavy_normals stay out: on
    Constant(1) + Normal(0.5, 1) at R/Z 1 and eps 0.5 the split's fairness
    is 0.798, above its bound of 0.701.
    """
    groups = tuple(Group(f"g{i}", dist) for i, dist in enumerate(dists))
    sc = Scenario(resource=r_over_z * sum(dist.mean() for dist in dists), groups=groups)
    try:
        cert = scenario_certificate(sc, epsilon)
    except CertificateError:  # some delta rounds to 1
        reject()
    alpha = epsilon + cert.delta + extra
    if alpha >= 1.0:
        reject()
    bounds = evaluate(sc, mean_weighted(sc), epsilon=epsilon, alpha=alpha).bounds
    assert bounds.fairness_ok and bounds.utilization_ok
    assert bounds.fairness_low_resource_ok is not False
    assert bounds.utilization_low_resource_ok is not False
    result = pof(sc, alpha, cert)
    for bound in (result.bound_1_over_1_minus_alpha, result.bound_1_plus_2alpha):
        if bound is not None:
            assert result.pof <= bound * (1.0 + 1e-9)
