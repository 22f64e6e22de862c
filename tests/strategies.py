"""Hypothesis strategies shared across the test modules."""

import numpy as np
from hypothesis import strategies as st

from fairalloc.distributions import (
    Binomial,
    Constant,
    Empirical,
    Exponential,
    Normal,
    Poisson,
    TwoPoint,
)

_positive = {"allow_nan": False, "allow_infinity": False}


@st.composite
def empiricals(draw):
    values = draw(
        st.lists(st.floats(0.1, 100.0, **_positive), min_size=1, max_size=6, unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(0.05, 10.0, **_positive),
            min_size=len(values),
            max_size=len(values),
        )
    )
    total = sum(weights)
    return Empirical(tuple(values), tuple(w / total for w in weights))


@st.composite
def large_empiricals(draw):
    """Empirical laws of 1-5,000 atoms, built with numpy from a drawn seed.

    Weights are uniform, equal (for many counts, 10 among them, the merged
    law's cumsum then ends below 1), log-uniform over 1e-300 to 1, or
    Dirichlet(0.05), with up to 90% of them set to zero. Atoms are rounded
    to a drawn number of decimals, so coarse grids repeat values.
    """
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weighting = draw(st.sampled_from(("uniform", "equal", "log_uniform", "dirichlet")))
    if weighting == "uniform":
        weights = rng.random(n)
    elif weighting == "equal":
        weights = np.ones(n)
    elif weighting == "log_uniform":
        weights = 10.0 ** rng.uniform(-300.0, 0.0, n)
    else:
        weights = rng.dirichlet(np.full(n, 0.05))
    weights[rng.random(n) < draw(st.sampled_from((0.0, 0.1, 0.9)))] = 0.0
    values = np.round(rng.uniform(0.0, 1000.0, n), draw(st.integers(0, 6)))
    if not np.any(weights[values > 0.0] > 0.0):
        values[0], weights[0] = 1.0, 1.0
    return Empirical(tuple(values), tuple(weights / weights.sum()))


@st.composite
def normals(draw):
    # keep Pr[C < 0] negligible: these model candidate counts
    sigma = draw(st.floats(0.5, 30.0, **_positive))
    mu = draw(st.floats(6.0 * sigma, 6.0 * sigma + 500.0, **_positive))
    return Normal(mu, sigma)


@st.composite
def heavy_normals(draw):
    # 2% to 48% of the mass below zero, so q(0) is well below 0
    sigma = draw(st.floats(0.5, 30.0, **_positive))
    mu = draw(st.floats(0.05 * sigma, 2.0 * sigma, **_positive))
    return Normal(mu, sigma)


constants = st.floats(0.1, 500.0, **_positive).map(Constant)
two_points = st.floats(1.0, 200.0, **_positive).map(TwoPoint)
binomials = st.builds(
    Binomial, st.integers(1, 400), st.floats(0.01, 0.99, **_positive)
)
poissons = st.floats(0.1, 500.0, **_positive).map(Poisson)
exponentials = st.floats(0.1, 200.0, **_positive).map(Exponential)

discrete_distributions = st.one_of(constants, two_points, binomials, poissons, empiricals())
continuous_distributions = st.one_of(normals(), exponentials)
demand_distributions = st.one_of(discrete_distributions, continuous_distributions)
