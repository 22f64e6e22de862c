import dataclasses
import math
import time
import tracemalloc
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
import strategies
from fairalloc import distributions
from fairalloc.distributions import (
    Binomial,
    Constant,
    DistributionError,
    Empirical,
    Exponential,
    Normal,
    Poisson,
    TwoPoint,
)
from fairalloc.montecarlo import CHUNK_SIZE

ATOMIC = [
    Constant(5.0),
    TwoPoint(10.0),
    TwoPoint(1.0),
    Binomial(10, 0.5),
    Binomial(200, 0.3),
    Poisson(4.0),
    Poisson(400.0),
    Empirical((2.0, 4.0), (0.5, 0.5)),
    Empirical((0.0, 1.5, 7.25), (0.2, 0.5, 0.3)),
]
SMOOTH = [Normal(100.0, 10.0), Exponential(10.0)]
ALL = ATOMIC + SMOOTH

ids = lambda d: f"{d.kind}{d.to_spec()}"


# ---------------------------------------------------------------- mean

def test_mean_examples():
    assert Binomial(10, 0.5).mean() == 5.0
    assert TwoPoint(10.0).mean() == 1.0
    assert Empirical((2.0, 4.0), (0.5, 0.5)).mean() == 3.0


@pytest.mark.parametrize("k", [1.0, 2.5, 10.0, 1000.0])
def test_two_point_mean_exactly_one(k):
    assert TwoPoint(k).mean() == 1.0


@pytest.mark.parametrize("dist", ALL, ids=ids)
def test_mean_positive(dist):
    assert dist.mean() > 0.0


# ---------------------------------------------------------------- cdf / survival

def test_cdf_examples():
    assert Constant(5.0).cdf(4.9) == 0.0
    assert TwoPoint(10.0).cdf(0.0) == pytest.approx(0.9, abs=1e-15)
    assert Binomial(10, 0.5).cdf(5) == pytest.approx(0.623046875, abs=1e-12)


def test_binomial_cdf_matches_exact_fractions():
    pmf = oracles.binomial_pmf_fractions(10, Fraction(1, 2))
    dist = Binomial(10, 0.5)
    for k in range(11):
        exact = float(sum(pmf[: k + 1]))
        assert dist.cdf(k) == pytest.approx(exact, abs=1e-13)


def test_survival_examples():
    for dist in ATOMIC + [Exponential(10.0)]:
        assert dist.survival(-1.0) == 1.0
    assert TwoPoint(10.0).survival(5.0) == pytest.approx(0.1, abs=1e-15)
    assert Normal(100.0, 10.0).survival(100.0) == pytest.approx(0.5, abs=1e-15)
    # tail mass far below the 1e-16 spacing of 1 - cdf keeps its value
    deep = Empirical((1.0, 2.0, 3.0), (1 - 1.2e-16, 1e-16, 2e-17))
    assert deep.survival(2.0) == pytest.approx(2e-17, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dist", ALL, ids=ids)
def test_survival_complements_cdf(dist):
    for x in (-1.0, 0.0, 0.5, 1.0, 3.7, dist.mean(), dist.mean() * 1.5 + 1.0):
        assert dist.survival(x) == pytest.approx(1.0 - dist.cdf(x), abs=1e-12)


@pytest.mark.parametrize("dist", ALL, ids=ids)
def test_survival_nonincreasing(dist):
    grid = np.linspace(-1.0, dist.mean() * 2.0 + 5.0, 80)
    values = [dist.survival(x) for x in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("dist", [
    Constant(5.0), Constant(1e-300), TwoPoint(1.0), TwoPoint(10.0),
    Empirical((0.0, 1.5, 7.25), (0.2, 0.5, 0.3)),
    Empirical((1.0, 2.0, 3.0), (0.3, 0.0, 0.7)),
    Empirical(tuple(range(1, 4001)), tuple(np.full(4000, 1.0 / 4000.0))),
], ids=ids)
def test_atom_law_lookups_equal_numpy_searchsorted(dist):
    xs = [-math.inf, math.inf, math.nan, -0.0]
    for atom in dist._vals.tolist():
        xs += [math.nextafter(atom, -math.inf), atom, math.nextafter(atom, math.inf)]
    for x in xs:
        idx = int(np.searchsorted(dist._vals, x, side="right"))
        assert dist.cdf(x) == (0.0 if idx == 0 else float(dist._cum[idx - 1]))
        assert dist.survival(x) == float(dist._suffix[idx])
        assert type(dist.cdf(x)) is float and type(dist.survival(x)) is float


def test_discrete_cdf_right_continuous():
    dist = Binomial(10, 0.5)
    assert dist.cdf(5) == dist.cdf(5.49)
    assert dist.cdf(4.999) < dist.cdf(5)


# ---------------------------------------------------------------- quantile

def test_quantile_examples():
    assert Constant(5.0).quantile(0.3) == 5.0
    assert Normal(100.0, 10.0).quantile(0.5) == pytest.approx(100.0, abs=1e-9)
    assert Poisson(4.0).quantile(0.6) == 4.0


def test_poisson_quantile_against_summation():
    # cumulative pmf crosses 0.6 between x=3 and x=4
    values, probs = oracles.discrete_atoms(Poisson(4.0))
    cum = np.cumsum(probs)
    assert cum[3] < 0.6 <= cum[4]


@pytest.mark.parametrize("dist", ALL, ids=ids)
@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.0001])
def test_quantile_rejects_levels_outside_open_interval(dist, p):
    with pytest.raises(DistributionError):
        dist.quantile(p)


@pytest.mark.parametrize("dist", ALL, ids=ids)
def test_quantile_is_generalized_inverse(dist):
    for p in (0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999):
        x = dist.quantile(p)
        assert dist.cdf(x) >= p - 1e-12


@pytest.mark.parametrize("dist", SMOOTH, ids=ids)
def test_quantile_inverts_cdf_for_smooth(dist):
    scale = max(1.0, dist.mean())
    for p in (0.001, 0.1, 0.5, 0.9, 0.999):
        x = dist.quantile(p)
        assert dist.cdf(x) == pytest.approx(p, abs=1e-9)
        assert dist.cdf(x - 1e-9 * scale) < p + 1e-9


@pytest.mark.parametrize("dist", [Binomial(30, 0.4), Poisson(12.0), TwoPoint(4.0)], ids=ids)
def test_quantile_returns_smallest_support_point(dist):
    for p in np.linspace(0.01, 0.99, 23):
        x = dist.quantile(p)
        assert dist.cdf(x) >= p
        if x > 0:
            assert dist.cdf(x - 1e-9) < p


@pytest.mark.parametrize("dist", [Binomial(30, 0.4), Binomial(200, 0.3), Poisson(12.0), Poisson(400.0)],
                         ids=ids)
@pytest.mark.parametrize("guess", [-1e6, math.nan], ids=["far-too-low", "nan"])
def test_lattice_quantile_walks_from_any_guess_to_the_smallest_k(dist, guess, monkeypatch):
    # the family's guess only sets where the walk starts: from 0, or from the mean
    levels = [1e-12, *np.linspace(0.001, 0.999, 37).tolist(), 1.0 - 1e-12]
    expected = [dist.quantile(p) for p in levels]
    cdfs = [dist.cdf(k) for k in range(int(max(expected)) + 1)]
    monkeypatch.setattr(type(dist), "_guess", lambda self, p: guess)
    for p, x in zip(levels, expected):
        smallest = next(k for k, c in enumerate(cdfs) if c >= p)
        assert dist.quantile(p) == x == smallest


# ---------------------------------------------------------------- expected_min

def test_expected_min_examples():
    assert TwoPoint(10.0).expected_min(5.0) == 0.5
    assert Constant(3.5).expected_min(3.5) == 3.5
    assert Constant(3.5).expected_min(100.0) == 3.5
    assert Binomial(10, 0.5).expected_min(5.0) == pytest.approx(4.384765625, abs=1e-12)
    assert Normal(100.0, 10.0).expected_min(100.0) == pytest.approx(
        96.01057719598568, abs=1e-9
    )


def test_binomial_expected_min_exact_fraction_oracle():
    pmf = oracles.binomial_pmf_fractions(10, Fraction(1, 2))
    expected = float(sum(min(k, 5) * w for k, w in enumerate(pmf)))
    assert expected == 4.384765625
    assert Binomial(10, 0.5).expected_min(5.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("dist", ALL, ids=ids)
def test_expected_min_rejects_negative_levels(dist):
    with pytest.raises(DistributionError):
        dist.expected_min(-0.5)


def _level_grid(dist):
    mu = dist.mean()
    return [0.0, 0.3, 1.0, mu * 0.25, mu * 0.5, mu * 0.9, mu, mu * 1.1, mu * 2.0 + 3.7]


@pytest.mark.parametrize("dist", ATOMIC, ids=ids)
def test_expected_min_matches_bruteforce_summation(dist):
    values, probs = oracles.discrete_atoms(dist)
    for v in _level_grid(dist):
        brute = oracles.expected_min_brute(values, probs, v)
        assert dist.expected_min(v) == pytest.approx(brute, abs=1e-12 * max(1.0, brute))


@pytest.mark.parametrize("dist", SMOOTH, ids=ids)
def test_expected_min_matches_quadrature(dist):
    for v in _level_grid(dist):
        assert dist.expected_min(v) == pytest.approx(
            oracles.expected_min_quad(dist, v), abs=1e-9 * max(1.0, dist.mean())
        )


@pytest.mark.parametrize("dist", ALL, ids=ids)
def test_expected_min_fractional_levels(dist):
    # min applies outcome-wise; fractional v interpolates, never rounds
    for v in (0.25, 1.5, dist.mean() * 0.755):
        em = dist.expected_min(v)
        assert 0.0 <= em + 1e-12
        assert em <= min(v, dist.mean()) + 1e-9


@given(dist=strategies.demand_distributions, scale=st.floats(0.0, 2.5))
def test_expected_min_bounded_by_level_and_mean(dist, scale):
    v = scale * dist.mean()
    em = dist.expected_min(v)
    assert em <= min(v, dist.mean()) + 1e-9 * max(1.0, dist.mean())


@given(dist=strategies.demand_distributions)
def test_expected_min_zero_at_zero(dist):
    # untruncated normals keep ~sigma*phi(mu/sigma) expectation below zero
    slack = 1e-12 if dist.kind != "normal" else max(1e-12, 10.0 * dist.sigma * dist.mass_below_zero() + 1e-7)
    assert dist.expected_min(0.0) == pytest.approx(0.0, abs=slack)


@given(dist=strategies.demand_distributions, lo=st.floats(0.0, 2.0), span=st.floats(1e-3, 1.0))
def test_expected_min_monotone_and_concave(dist, lo, span):
    mu = dist.mean()
    v1, v2, v3 = lo * mu, (lo + span) * mu, (lo + 2 * span) * mu
    e1, e2, e3 = dist.expected_min(v1), dist.expected_min(v2), dist.expected_min(v3)
    assert e2 >= e1 - 1e-12 * max(1.0, mu)
    slope_left = (e2 - e1) / (v2 - v1)
    slope_right = (e3 - e2) / (v3 - v2)
    assert slope_left >= slope_right - 1e-9


@pytest.mark.parametrize("dist", SMOOTH, ids=ids)
def test_expected_min_slope_is_survival(dist):
    h = 1e-5
    for v in (0.5, dist.mean() * 0.5, dist.mean(), dist.mean() * 1.3):
        slope = (dist.expected_min(v + h) - dist.expected_min(v - h)) / (2 * h)
        assert slope == pytest.approx(dist.survival(v), abs=1e-3)


def test_expected_min_saturates_exactly_at_support_top():
    for dist in (Constant(7.0), TwoPoint(9.0), Binomial(25, 0.3), Empirical((1.0, 6.0), (0.4, 0.6))):
        assert dist.expected_min(dist.support_max()) == dist.mean()
        assert dist.expected_min(dist.support_max() + 12.3) == dist.mean()


WIDE_ATOM_LAWS = (st.floats(1e-300, 1e300).map(Constant), st.floats(1.0, 1e300).map(TwoPoint))


def _grid_with_atoms(dist, scales):
    """0, each atom or integer of the law with its nextafter neighbours, the support top,
    points past it, and scales times the top; a smooth law's atom is its mean."""
    if dist.kind in ("normal", "exponential"):
        atoms = [dist.mean()]
    else:
        atoms = oracles.discrete_atoms(dist)[0].tolist()
    top = dist.support_max() if math.isfinite(dist.support_max()) else atoms[-1]
    grid = {0.0, top, math.nextafter(top, math.inf), 2.0 * top + 1.0}
    grid.update(s * top for s in scales)
    for x in atoms:
        grid.update((x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)))
    return np.array(sorted(grid))


@given(dist=st.one_of(*WIDE_ATOM_LAWS, strategies.binomials, strategies.poissons, strategies.normals(),
                      strategies.heavy_normals(), strategies.exponentials, strategies.large_empiricals()),
       scales=st.lists(st.floats(0.0, 3.0), max_size=20))
@example(dist=Binomial(25, 0.3), scales=[])
@example(dist=Binomial(1, 0.5), scales=[0.5])
@example(dist=Poisson(0.1), scales=[])
@example(dist=Empirical((0.0, 2.0, 5.0), (0.2, 0.3, 0.5)), scales=[0.3])
@example(dist=TwoPoint(1.0), scales=[])
def test_array_expected_min_equals_the_scalar_bit_for_bit(dist, scales):
    vs = _grid_with_atoms(dist, scales)
    got = dist._expected_min_at(vs)
    expected = np.array([dist.expected_min(v) for v in vs.tolist()])
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


@given(dist=st.one_of(*WIDE_ATOM_LAWS, strategies.large_empiricals()),
       picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@example(dist=Empirical(tuple(np.random.default_rng(0).uniform(0.05, 200.0, 4000)), (1 / 4000,) * 4000),
         picks=[0.0, 0.37, 0.5, 1.0])
@example(dist=Empirical((1.0, 6.0), (0.4, 0.6)), picks=[0.5])
@settings(max_examples=40)
def test_atom_expected_min_is_within_ulps_of_the_exact_sum(dist, picks):
    # scalar, array and knot-table values, at atoms, between them and past the top
    atoms = oracles.discrete_atoms(dist)[0].tolist()
    top = atoms[-1]
    vs = [0.0, top, 2.0 * top] + [p * top for p in picks] + [atoms[int(p * (len(atoms) - 1))] for p in picks]
    xs, _, _, ems = dist.expected_min_knots(top)
    knots = [int(p * (len(xs) - 1)) for p in picks]
    pairs = [(v, dist.expected_min(v)) for v in vs] \
        + list(zip(vs, dist._expected_min_at(np.array(vs)).tolist())) \
        + [(xs[i], ems[i]) for i in knots]
    exact = {v: oracles.atom_expected_min_exact(dist, v) for v, _ in pairs}
    unit = Fraction(math.ulp(dist.mean()))
    for v, got in pairs:
        assert abs(Fraction(got) - exact[v]) <= Fraction(5, 2) * unit, v


# ---------------------------------------------------------------- knot tables

@pytest.mark.parametrize("dist", ATOMIC, ids=ids)
def test_expected_min_knots_agree_with_scalar_ops(dist):
    cap = dist.mean() * 1.7 + 3.0
    table = dist.expected_min_knots(cap)
    assert table is not None
    xs, cdfs, sfs, ems = table
    for x, c, s, e in zip(xs, cdfs, sfs, ems):
        assert c == pytest.approx(dist.cdf(x), abs=1e-13)
        assert s == pytest.approx(dist.survival(x), abs=1e-13)
        assert e == pytest.approx(dist.expected_min(x), abs=1e-12 * max(1.0, e))


def test_smooth_distributions_have_no_knots():
    assert Normal(100.0, 10.0).expected_min_knots(50.0) is None
    assert Exponential(10.0).expected_min_knots(50.0) is None


def test_huge_budgets_get_tail_sized_knot_tables():
    for dist in (Poisson(5.0), Binomial(2_000_000, 1e-5)):
        table = dist.expected_min_knots(5e7)
        assert table is not None and len(table[0]) < 1_000  # ends at the tail, not the budget
    assert Poisson(2e6).expected_min_knots(5e7) is None  # the tail alone passes 2**20 knots
    assert Binomial(10, 0.5).expected_min_knots(5e7) is not None  # support caps the table


def test_lattice_tables_near_the_knot_cap_are_built():
    # The first zero survival of each law lies near 5.6e5; a search doubling
    # from the span's top once stepped past 2**20 and gave up on both tables.
    for dist in (Poisson(5.3e5), Binomial(2_000_000, 0.27)):
        table = dist.expected_min_knots(5e7)
        assert table is not None
        n = len(table[0])
        assert table[2][-1] == 0.0 < table[2][-2]
        assert table == oracles.lattice_knots_to_cap(dist, n - 1)


@given(dist=st.one_of(st.floats(1e-3, 2_000.0).map(Poisson),
                      st.builds(Binomial, st.integers(1, 5_000), st.floats(1e-4, 0.9999))),
       cap=st.floats(0.0, 20_000.0))
@example(dist=Poisson(5.0), cap=20_000.0)
@example(dist=Poisson(400.0), cap=1_366.0)
@example(dist=Binomial(5_000, 0.01), cap=20_000.0)
@example(dist=Binomial(5_000, 0.5), cap=4_000.0)
@settings(max_examples=150)
def test_lattice_knot_tables_end_at_the_tail(dist, cap):
    table = dist.expected_min_knots(cap)
    full = oracles.lattice_knots_to_cap(dist, cap)
    n = len(table[0])
    assert table == tuple(column[:n] for column in full)
    if n < len(full[0]):
        # cut at the first zero survival: past it the budget-length table is
        # flat, up to the entry at a Binomial's n, where bdtr reads exactly 1
        # and not 1 - 2**-53 as on the rest of the far tail; no cdf level lies
        # between the two, and E[min] there is at most one ulp higher
        _, cdfs, sfs, ems = full
        flat = len(cdfs) - (dist.kind == "binomial" and full[0][-1] == dist.n)
        assert sfs[n - 2] > 0.0
        assert set(sfs[n - 1:]) == {0.0}
        assert cdfs[n - 1] == 1.0 or dist.kind == "binomial" and cdfs[n - 1] == 1.0 - 2.0**-53
        assert set(cdfs[n - 1:flat]) == {cdfs[n - 1]}
        assert set(ems[n - 1:flat]) == {ems[n - 1]}
        assert cdfs[-1] - cdfs[n - 1] <= 2.0**-53 and ems[-1] - ems[n - 1] <= math.ulp(dist.mean())
        assert dist.expected_min_knots(1e12) == table
    sd = _scipy_law(dist).std()
    assert n <= 4.0 * (dist.mean() + 40.0 * sd + 40.0) + 1.0


@given(dist=st.one_of(strategies.large_empiricals(), *WIDE_ATOM_LAWS),
       where=st.sampled_from(("below", "on", "between", "past")),
       pick=st.floats(0.0, 1.0))
@example(dist=Empirical((0.0, 2.0, 5.0), (0.2, 0.3, 0.5)), where="below", pick=0.0)
@example(dist=Empirical((0.0, 2.0, 5.0), (0.2, 0.3, 0.5)), where="on", pick=0.0)
@example(dist=Empirical((0.0, 2.0, 5.0), (0.2, 0.3, 0.5)), where="between", pick=0.0)
@example(dist=Empirical((0.0, 2.0, 5.0), (0.2, 0.3, 0.5)), where="past", pick=0.0)
@example(dist=Empirical((1.0, 2.0), (0.5, 0.5)), where="below", pick=0.0)
@example(dist=Constant(3.0), where="below", pick=0.0)
@example(dist=TwoPoint(4.0), where="below", pick=0.0)
@example(dist=TwoPoint(1.0), where="past", pick=0.0)
@settings(max_examples=100)
def test_empirical_knot_tables_equal_per_atom_lookups(dist, where, pick):
    values = oracles.discrete_atoms(dist)[0].tolist()
    i = int(pick * (len(values) - 1))
    cap = {
        "below": values[0] / 2.0,
        "on": values[i],
        "between": (values[i] + values[i + 1]) / 2.0 if i + 1 < len(values) else values[i] + 1.0,
        "past": 2.0 * values[-1] + 1.0,
    }[where]
    xs = [0.0] + [x for x in values if 0.0 < x <= cap]
    expected = (xs, [dist.cdf(x) for x in xs], [dist.survival(x) for x in xs],
                [dist._expected_min(x) for x in xs])
    assert dist.expected_min_knots(cap) == expected


@given(dist=st.one_of(*WIDE_ATOM_LAWS),
       where=st.sampled_from(("below", "on", "between", "past")),
       pick=st.floats(0.0, 1.0),
       p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(dist=TwoPoint(4.0), where="on", pick=0.0, p=0.75)
@example(dist=TwoPoint(1.0), where="between", pick=0.5, p=5e-324)
@example(dist=Constant(2.0), where="on", pick=0.0, p=0.5)
@settings(max_examples=300)
def test_atom_laws_keep_their_closed_forms(dist, where, pick, p):
    atoms = oracles.discrete_atoms(dist)[0].tolist()
    top = atoms[-1]
    x = {
        "below": -pick * top - 5e-324,
        "on": atoms[min(int(pick * len(atoms)), len(atoms) - 1)],
        # strictly inside (0, top), the one gap below the top atom of either law
        "between": min(max(pick * top, 5e-324), math.nextafter(top, 0.0)),
        "past": math.nextafter(top, math.inf) + pick * top,
    }[where]
    got = (dist.cdf(x), dist.survival(x), dist.quantile(p), dist.support_max())
    assert got == oracles.atom_law_closed_forms(dist, x, p)
    assert all(type(value) is float for value in got)


# ---------------------------------------------------------------- sampling

@pytest.mark.parametrize("dist", ALL, ids=ids)
def test_sampling_deterministic_for_fixed_seed(dist):
    a = dist.sample(np.random.default_rng(7), 1000)
    b = dist.sample(np.random.default_rng(7), 1000)
    assert np.array_equal(a, b)


def test_constant_samples_are_constant():
    draws = Constant(7.0).sample(np.random.default_rng(1), 10_000)
    assert np.all(draws == 7.0)
    assert Constant(7.0).sample(np.random.default_rng(1)) == 7.0


def test_two_point_sample_frequency():
    draws = TwoPoint(10.0).sample(np.random.default_rng(42), 1_000_000)
    freq = float(np.mean(draws == 10.0))
    assert freq == pytest.approx(0.1, abs=1e-3)


def test_binomial_sample_mean():
    draws = Binomial(10, 0.5).sample(np.random.default_rng(42), 1_000_000)
    assert float(draws.mean()) == pytest.approx(5.0, abs=0.01)


@given(strategies.large_empiricals())
@example(Empirical(tuple(range(1, 11)), (0.1,) * 10))
def test_empirical_draws_equal_generator_choice(dist):
    for seed, size in enumerate((None, 1, 7, CHUNK_SIZE + 333)):
        mine, numpy_own = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = dist.sample(mine, size)
        expected = numpy_own.choice(dist.values, size, p=dist.probabilities)
        if size is None:
            assert type(draws) is float and draws == expected
        else:
            assert draws.dtype == expected.dtype and np.array_equal(draws, expected)
        assert mine.bit_generator.state == numpy_own.bit_generator.state


class _KnownUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size=None):
        assert size == self.uniforms.size
        return self.uniforms.copy()


@given(strategies.large_empiricals())
@example(Empirical(tuple(range(1, 11)), (0.1,) * 10))
@example(Empirical(tuple(range(1, 13)), (1.0 / 12.0,) * 12))
def test_empirical_draws_next_to_cdf_points_follow_choice_inverse(dist):
    # Generator.random returns multiples of 2**-53; take those at and next
    # to every cdf point, where a bucket edge that is not an exact double
    # would send a draw to the wrong side of the point
    cdf = np.cumsum(dist.probabilities)
    cdf /= cdf[-1]
    grid = np.floor(cdf * 2.0**53)[:, None] + np.arange(-3.0, 4.0)
    uniforms = grid.ravel() / 2.0**53
    uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
    draws = dist.sample(_KnownUniforms(uniforms), uniforms.size)
    expected = np.asarray(dist.values)[cdf.searchsorted(uniforms, side="right")]
    assert np.array_equal(draws, expected)


def test_example_law_cumsum_ends_below_one():
    dist = Empirical(tuple(range(1, 11)), (0.1,) * 10)
    assert float(np.cumsum(dist.probabilities)[-1]) < 1.0


# a zero-probability atom (two equal cdf points in one bucket), two tiny atoms
# sharing bucket 0, and a lattice table with buckets of every kind
GUIDE_TABLE_LAWS = [
    Empirical((1, 2, 3), (0.3, 0.0, 0.7)),
    Empirical((1, 2, 3, 9), (1e-6, 1e-6, 0.5, 0.5 - 2e-6)),
    Poisson(200.0),
]


def test_guide_table_draws_at_bucket_edges_and_cdf_points_invert_the_cdf():
    kinds = set()
    for dist in GUIDE_TABLE_LAWS:
        table = dist._table
        buckets = table.guide.size
        # a bucket has no cdf point inside it, exactly one, or several
        kinds.update(np.where(~np.isnan(table.guide), "none",
                              np.where(table.single >= 0, "one", "several")).tolist())
        # Generator.random returns multiples of 2**-53; take those at and
        # next to every bucket edge and every cdf point
        points = np.concatenate((np.arange(buckets) / buckets, table.cdf))
        grid = np.floor(points * 2.0**53)[:, None] + np.arange(-3.0, 4.0)
        uniforms = np.unique(grid.ravel()) / 2.0**53
        uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
        draws = dist.sample(_KnownUniforms(uniforms), uniforms.size)
        expected = table.values[table.cdf.searchsorted(uniforms, side="right")]
        assert np.array_equal(draws, expected)
    assert kinds == {"none", "one", "several"}


@st.composite
def guide_table_cdfs(draw):
    """A nondecreasing cdf ending at 1, with repeated points (zero-probability
    atoms), points on bucket edges, subnormal points and uniform ones."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    buckets = 1 << ((n + 1).bit_length() + 4)
    mix = rng.dirichlet(np.ones(4) * draw(st.sampled_from((0.2, 1.0))))
    kind = rng.choice(4, n, p=mix)
    points = np.select(
        [kind == 0, kind == 1, kind == 2],
        [rng.integers(0, buckets, n) / buckets,
         rng.integers(0, 1000, n) * 5e-324,
         np.repeat(rng.random(1), n)],
        rng.random(n),
    )
    return np.append(np.sort(points), 1.0)


@given(guide_table_cdfs())
@example(np.array([0.0, 0.0, 5e-324, 0.25, 0.25, 0.5, 1.0]))
def test_guide_tables_equal_the_search_over_bucket_edges(cdf):
    table = distributions._GuideTable(cdf, np.arange(cdf.size, dtype=float))
    guide, single = oracles.guide_table_by_search(table.cdf, table.values)
    assert np.array_equal(table.guide, guide, equal_nan=True)
    assert np.array_equal(table.single, single)


def test_law_guide_tables_equal_the_search_over_bucket_edges():
    for dist in GUIDE_TABLE_LAWS + [Empirical(tuple(range(4000)), (1 / 4000,) * 4000)]:
        guide, single = oracles.guide_table_by_search(dist._table.cdf, dist._table.values)
        assert np.array_equal(dist._table.guide, guide, equal_nan=True)
        assert np.array_equal(dist._table.single, single)


BIT_GENERATORS = (np.random.MT19937, np.random.PCG64, np.random.Philox, np.random.SFC64)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda cls: cls.__name__)
@given(dist=strategies.large_empiricals())
@example(dist=GUIDE_TABLE_LAWS[0])
@example(dist=GUIDE_TABLE_LAWS[1])
def test_empirical_draws_equal_generator_choice_on_every_bit_generator(bit_generator, dist):
    for seed, size in enumerate((None, 7, CHUNK_SIZE + 333)):
        mine = np.random.Generator(bit_generator(seed))
        numpy_own = np.random.Generator(bit_generator(seed))
        draws = dist.sample(mine, size)
        expected = numpy_own.choice(dist.values, size, p=dist.probabilities)
        assert np.array_equal(draws, expected)
        # MT19937 states hold arrays; the next uniform shows the state instead
        assert mine.random() == numpy_own.random()


LATTICE = [
    Binomial(1, 0.5),
    Binomial(10, 0.5),
    Binomial(200, 0.3),
    Binomial(50, 0.999),
    Binomial(1000, 0.5),
    Binomial(10**7, 0.5),
    Binomial(10**7, 1e-6),
    Poisson(0.01),
    Poisson(4.0),
    Poisson(400.0),
    Poisson(2000.0),  # e**-lambda underflows
    Poisson(1e7),
]


def _scipy_law(dist):
    if isinstance(dist, Binomial):
        return stats.binom(dist.n, dist.p)
    return stats.poisson(dist.lam)


def _mpmath_poisson_pmf(lam, k):
    with mpmath.workdps(40):
        return float(mpmath.exp(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1)))


@pytest.mark.parametrize("dist", LATTICE, ids=ids)
def test_lattice_tables_match_scipy_pmf(dist):
    ks, pmf = dist._lattice()
    law = _scipy_law(dist)
    expected = law.pmf(ks)
    if dist == Poisson(1e7):
        # scipy's exp(k log lam - lam - gammaln(k + 1)) cancels terms near
        # 1.6e8 and is 2e-8 off here; 40-digit mpmath on every 211th point
        ks, pmf = ks[::211], pmf[::211]
        expected = np.array([_mpmath_poisson_pmf(dist.lam, k) for k in ks])
    kept = expected >= 1e-300
    assert np.allclose(pmf[kept], expected[kept], rtol=1e-10, atol=0.0)
    assert not np.any(pmf[~kept] >= 1e-290)
    # the tails past the table are out of reach of a 53-bit uniform
    ks = dist._table.values
    assert law.cdf(ks[0] - 1.0) < 2.0**-53 and law.sf(ks[-1]) < 2.0**-53
    assert dist._table.cdf[-1] == 1.0


@pytest.mark.parametrize("dist", LATTICE, ids=ids)
def test_lattice_cdf_and_survival_at_infinity(dist):
    assert dist.cdf(math.inf) == 1.0 and dist.survival(math.inf) == 0.0
    assert dist.cdf(-math.inf) == 0.0 and dist.survival(-math.inf) == 1.0


@pytest.mark.parametrize("dist", [d for d in LATTICE if d.mean() < 1e4], ids=ids)
def test_lattice_draws_next_to_cdf_points_invert_the_cdf(dist):
    cdf = dist._table.cdf
    grid = np.floor(cdf * 2.0**53)[:, None] + np.arange(-3.0, 4.0)
    uniforms = np.unique(grid.ravel()) / 2.0**53
    uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
    draws = dist.sample(_KnownUniforms(uniforms), uniforms.size)
    # the smallest k with cdf[k] > u
    expected = np.array([dist._table.values[np.argmax(cdf > u)] for u in uniforms])
    assert np.array_equal(draws, expected)


@pytest.mark.parametrize("dist", [Binomial(10**7, 0.5), Binomial(10**7, 1e-6), Poisson(1e7)],
                         ids=ids)
def test_large_lattice_laws_draw_a_million_in_bounded_time_and_memory(dist):
    fresh = dataclasses.replace(dist)
    tracemalloc.start()
    start = time.process_time()
    try:
        draws = fresh.sample(np.random.default_rng(5), 1_000_000)
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.03-0.13 s and 32-43 MB (the draws themselves take 32 MB)
    assert elapsed < 1.0
    assert peak < 100e6
    assert fresh._table is not None
    se = math.sqrt(_scipy_law(dist).var() / draws.size)
    assert abs(float(draws.mean()) - dist.mean()) <= 5.0 * se


def test_lattice_laws_past_the_table_cap_keep_numpy_samplers():
    for dist in (Poisson(1e11), Binomial(10**12, 0.5)):
        assert dist._table is None
        draws = dist.sample(np.random.default_rng(3), 1000)
        assert draws.dtype == float
        assert abs(float(draws.mean()) - dist.mean()) <= 5.0 * math.sqrt(dist.mean() / 1000)
        assert type(dist.sample(np.random.default_rng(3))) is float


@pytest.mark.parametrize("dist", ALL + LATTICE, ids=ids)
def test_sampling_calls_no_cdf_formula(dist, monkeypatch):
    # Monte Carlo checks the closed forms built on these, so no draw may use them
    def refuse(*args):
        raise AssertionError("a sampler called a scipy.special formula")

    # every scipy.special function the library reads, all through distributions.special
    names = ("bdtr", "bdtrc", "bdtrik", "pdtr", "pdtrc", "pdtrik", "ndtri", "log_ndtr")
    monkeypatch.setattr(distributions, "special", types.SimpleNamespace(**dict.fromkeys(names, refuse)))
    fresh = dataclasses.replace(dist)
    assert type(fresh.sample(np.random.default_rng(0))) is float
    draws = fresh.sample(np.random.default_rng(0), 100)
    assert draws.shape == (100,)
    # a sized draw is the caller's to overwrite, as Monte Carlo clips it in place
    assert draws.base is None and draws.flags.writeable


@pytest.mark.parametrize("mu,sigma,v", [(40.0, 8.0, 0.0), (1.0, 10.0, 2.0), (1.2, 24.5, 5.0),
                                         (100.0, 10.0, 60.0)])
def test_normal_shortfall_bound_is_v_or_the_exact_root_mean_square(mu, sigma, v):
    with mpmath.workdps(30):
        below = mpmath.quad(lambda x: (v - x) ** 2 * mpmath.npdf(x, mu, sigma), [-mpmath.inf, v])
        rms = float(mpmath.sqrt(below / mpmath.ncdf(v, mu, sigma)))
    assert Normal(mu, sigma).shortfall_bound(v) == pytest.approx(max(v, rms), rel=1e-9)
    assert Poisson(mu).shortfall_bound(v) == v


@pytest.mark.parametrize("dist", ALL, ids=ids)
def test_sample_mean_near_analytic_mean(dist):
    draws = dist.sample(np.random.default_rng(2024), 200_000)
    se = float(draws.std()) / math.sqrt(len(draws))
    assert float(draws.mean()) == pytest.approx(dist.mean(), abs=max(6.0 * se, 1e-12))


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize(
    "build",
    [
        lambda: Constant(0.0),
        lambda: Constant(-1.0),
        lambda: Constant(math.inf),
        lambda: TwoPoint(0.5),
        lambda: TwoPoint(0.0),
        lambda: Binomial(0, 0.5),
        lambda: Binomial(10, 0.0),
        lambda: Binomial(10, 1.0),
        lambda: Binomial(2.5, 0.5),
        lambda: Poisson(0.0),
        lambda: Poisson(-3.0),
        lambda: Normal(0.0, 1.0),
        lambda: Normal(100.0, 0.0),
        lambda: Normal(-5.0, 1.0),
        lambda: Exponential(0.0),
        lambda: Empirical((), ()),
        lambda: Empirical((1.0,), (0.5,)),
        lambda: Empirical((1.0, 2.0), (0.6, 0.6)),
        lambda: Empirical((-1.0, 2.0), (0.5, 0.5)),
        lambda: Empirical((0.0,), (1.0,)),
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(DistributionError):
        build()


def test_empirical_probabilities_must_sum_within_tolerance():
    Empirical((1.0, 2.0), (0.5, 0.5 + 5e-13))  # inside 1e-12: fine
    with pytest.raises(DistributionError):
        Empirical((1.0, 2.0), (0.5, 0.5 + 5e-12))


def test_empirical_merges_duplicate_atoms():
    dist = Empirical((2.0, 2.0, 4.0), (0.25, 0.25, 0.5))
    assert dist.values == (2.0, 4.0)
    assert dist.probabilities == (0.5, 0.5)


@given(
    st.lists(
        st.tuples(st.sampled_from((0.0, 0.5, 2.0, 3.25, 1e6)), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=60,
    )
)
@example(atoms=[(0.0, 1.0), (0.5, 5e-324)])
# signed zeros are one atom, the first in input order
@example(atoms=[(-0.0, 0.25), (2.0, 0.5), (0.0, 0.25)])
def test_empirical_merge_sums_repeated_atoms_in_input_order(atoms):
    weights = np.array([w for _, w in atoms])
    assume(any(x > 0.0 and w > 0.0 for x, w in atoms))
    probs = weights / weights.sum()
    # a law whose mean underflows to 0 (0.5 * 5e-324) is rejected, not merged
    assume(any(x * p > 0.0 for (x, _), p in zip(atoms, probs.tolist())))
    total = float(probs.sum())
    merged = {}
    for (x, _), p in zip(atoms, probs.tolist()):
        merged[x] = merged[x] + p / total if x in merged else p / total
    dist = Empirical(tuple(x for x, _ in atoms), tuple(probs))
    # repr tells the bits apart, -0.0 from 0.0 too
    assert repr(dist.values) == repr(tuple(sorted(merged)))
    assert repr(dist.probabilities) == repr(tuple(merged[x] for x in sorted(merged)))
    assert all(type(x) is float for x in dist.values + dist.probabilities)


@given(strategies.large_empiricals())
@example(Empirical((-0.0, 2.0, 0.0, 2.0), (0.25, 0.25, 0.25, 0.25)))
def test_empirical_atom_arrays_are_those_of_its_tuples(dist):
    # the atom arrays are built from the sorted, merged arrays, not from the
    # tuples; they must hold the same bits as arrays made from the tuples
    probs = np.asarray(dist.probabilities)
    suffix = np.concatenate((np.cumsum(probs[::-1])[::-1], [0.0]))
    suffix[0] = 1.0
    for name, want in (("_vals", np.asarray(dist.values, dtype=float)),
                       ("_cum", np.cumsum(probs)), ("_suffix", suffix)):
        got = getattr(dist, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert dist._points is dist.values


def test_mass_below_zero():
    assert Normal(100.0, 10.0).mass_below_zero() < 1e-20
    assert Normal(10.0, 10.0).mass_below_zero() == pytest.approx(0.15865525393145707, abs=1e-12)
    for dist in ATOMIC + [Exponential(3.0)]:
        assert dist.mass_below_zero() == 0.0


def test_support_max():
    assert Constant(5.0).support_max() == 5.0
    assert TwoPoint(10.0).support_max() == 10.0
    assert Binomial(10, 0.5).support_max() == 10.0
    assert Empirical((2.0, 4.0), (0.5, 0.5)).support_max() == 4.0
    assert math.isinf(Poisson(4.0).support_max())
    assert math.isinf(Normal(100.0, 10.0).support_max())
    assert math.isinf(Exponential(10.0).support_max())
