"""Demand distribution models.

Each variant describes one group's candidate-count law and exposes the exact
mean, CDF/survival, quantile, seeded sampling, and the truncated first moment
E[min(C, v)] that availability and utilization are built from.

Every variant has strictly positive mean. ``expected_min`` is nondecreasing
and concave in ``v``, bounded by ``min(v, mean)``, with slope ``Pr[C > v]``
at continuity points. ``_expected_min_at`` gives it over an array of levels,
equal to the scalar bit for bit.

Binomial and Poisson share one lattice implementation, ``_Lattice``: one tail
span, mean +- (10 sd + 40) in the support, and knot tables that end at the
budget or at the first zero survival, past which E[min] is flat. Constant,
TwoPoint and Empirical share one atom implementation, ``_Atoms``: the sorted
atoms with their cdf and top-summed survival, from which it answers cdf,
survival, quantile and the support top, and builds knot tables with one knot
per atom up to the budget.

The lattice and Normal formulas read scipy.special through ``special``,
which imports it on first use, so parsing and the other laws never load it.
"""

from __future__ import annotations

import bisect
import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _LazySpecial:
    """scipy.special, imported on the first attribute read, which rebinds ``special`` to it.

    Two threads that race on the first read bind the same module.
    """

    def __getattr__(self, name):
        global special
        import scipy.special

        special = scipy.special
        return getattr(special, name)


special = _LazySpecial()

# Piecewise-linear description of expected_min on [0, cap] for atom-supported
# variants: (knot positions, cdf at knots, survival at knots, E[min] at knots).
KnotTable = tuple[list[float], list[float], list[float], list[float]]


class DistributionError(ValueError):
    """Invalid distribution parameters or operation inputs."""


def _require_positive(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DistributionError(f"{name} must be a positive finite real, got {value!r}")
    return value


class DemandDistribution(ABC):
    """Base class for candidate-count distributions."""

    kind: ClassVar[str]
    # JSON keys of the tagged spec, one per dataclass field, in field order
    spec_keys: ClassVar[tuple]

    @abstractmethod
    def mean(self) -> float:
        """Exact expected number of candidates."""

    @abstractmethod
    def cdf(self, x: float) -> float:
        """Pr[C <= x]; right-continuous for atom-supported variants."""

    @abstractmethod
    def survival(self, x: float) -> float:
        """Pr[C > x]; nonincreasing in x.

        Computed directly, not as 1 - cdf(x), which loses the deep upper tail.
        """

    def quantile(self, p: float) -> float:
        """Smallest x with cdf(x) >= p, for p in (0, 1)."""
        if not 0.0 < p < 1.0:
            raise DistributionError(f"quantile level must be in (0, 1), got {p!r}")
        return self._quantile(p)

    def expected_min(self, v: float) -> float:
        """E[min(C, v)] for v >= 0."""
        v = float(v)
        if not math.isfinite(v) or v < 0.0:
            raise DistributionError(f"resource level must be a finite nonnegative real, got {v!r}")
        return self._expected_min(v)

    @abstractmethod
    def _quantile(self, p: float) -> float: ...

    @abstractmethod
    def _expected_min(self, v: float) -> float: ...

    def _expected_min_at(self, vs):
        """_expected_min at each entry of a float array of valid levels, bit for bit.

        This default maps the scalar form over the array; atom and lattice
        laws override it with one numpy pass.
        """
        return np.array([self._expected_min(v) for v in vs.tolist()])

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw from the distribution; a float when size is None, else an array.

        A sized draw returns a fresh array that the caller owns and may
        overwrite.

        Empirical, Binomial and Poisson draws invert one uniform each through
        a guide table (``_GuideTable``), most of them with one gather and the
        rest with one comparison or a search. Empirical draws, and the
        generator's state after them, equal ``Generator.choice(values, size,
        p=probabilities)`` for the same generator state. Binomial and Poisson
        tables come from their pmf ratios, not from the cdf formulas that
        Monte Carlo checks; a law whose table would pass ``_TABLE_CAP`` points draws
        from numpy's own sampler instead.
        """

    @abstractmethod
    def support_max(self) -> float:
        """Supremum of the support (may be inf)."""

    def mass_below_zero(self) -> float:
        """Pr[C < 0]; nonzero only for models that put mass on negatives."""
        return 0.0

    def shortfall_bound(self, v: float) -> float:
        """An upper bound on the root-mean-square shortfall v - C of a draw C < v.

        v for laws on C >= 0; models with mass below zero override it.
        """
        return v

    def expected_min_knots(self, cap: float) -> Optional[KnotTable]:
        """Exact piecewise-linear knots of expected_min on [0, cap].

        Returns None for variants whose expected_min is smooth; optimizers
        then fall back to the closed-form methods.
        """
        return None

    def to_spec(self) -> dict:
        """JSON-ready tagged description, inverse of scenario parsing."""
        spec = {"kind": self.kind}
        for key, field in zip(self.spec_keys, fields(self)):
            value = getattr(self, field.name)
            spec[key] = list(value) if isinstance(value, tuple) else value
        return spec


class _Atoms(DemandDistribution):
    """A law on finitely many atoms, from three arrays it sets at construction.

    ``_vals`` holds the sorted atoms, ``_points`` the same atoms as a tuple of
    floats, ``_cum`` the cdf at each, and ``_suffix[i]`` = Pr[C > _vals[i-1]],
    with 1 first and 0 last. A law sums its suffix from the top, so tail mass
    far below the 1e-16 spacing of 1 - cdf keeps its value. A law gives
    ``mean``, ``_expected_min``, its array form ``_expected_min_at`` and
    ``sample``; the rest is written once, here.
    """

    def _set_atoms(self, points, cum, suffix, vals=None):
        # knot tables take their positions from points, so a table shares
        # the law's float objects rather than holding a copy of each atom;
        # vals is the same atoms as a float array, where the caller has one
        object.__setattr__(self, "_points", points)
        for name, column in (("_vals", points if vals is None else vals), ("_cum", cum),
                             ("_suffix", suffix)):
            object.__setattr__(self, name, np.asarray(column, dtype=float))

    def cdf(self, x: float) -> float:
        # NaN compares false, so bisect puts it last, as np.searchsorted does
        idx = bisect.bisect_right(self._points, x)
        return 0.0 if idx == 0 else float(self._cum[idx - 1])

    def survival(self, x: float) -> float:
        return float(self._suffix[bisect.bisect_right(self._points, x)])

    def _quantile(self, p: float) -> float:
        idx = int(np.searchsorted(self._cum, p, side="left"))
        idx = min(idx, self._vals.size - 1)
        return float(self._vals[idx])

    def support_max(self) -> float:
        return float(self._vals[-1])

    def expected_min_knots(self, cap):
        # a knot at 0 and at each atom up to the cap; the curve is linear past the last
        lo = int(self._vals[0] == 0.0)  # an atom at 0 is the knot at 0
        hi = int(np.searchsorted(self._vals, cap, side="right"))
        xs = [0.0, *self._points[lo:hi]]
        cdfs = ([] if lo else [0.0]) + self._cum[:hi].tolist()
        sfs = self._suffix[lo:hi + 1].tolist()
        ems = self._expected_min_at(np.concatenate(([0.0], self._vals[lo:hi]))).tolist()
        return (xs, cdfs, sfs, ems)


@dataclass(frozen=True)
class Constant(_Atoms):
    """Deterministic demand of exactly ``c`` candidates."""

    c: float
    kind: ClassVar[str] = "constant"
    spec_keys: ClassVar[tuple] = ("c",)

    def __post_init__(self):
        c = _require_positive(self.c, "constant c")
        object.__setattr__(self, "c", c)
        self._set_atoms((c,), [1.0], [1.0, 0.0])

    def mean(self) -> float:
        return self.c

    def _expected_min(self, v: float) -> float:
        return self.c if v >= self.c else v

    def _expected_min_at(self, vs):
        return np.minimum(vs, self.c)

    def sample(self, rng, size=None):
        if size is None:
            return self.c
        return np.full(size, self.c)


@dataclass(frozen=True)
class TwoPoint(_Atoms):
    """Mass (k-1)/k at 0 and 1/k at k; the mean is exactly 1 for any k >= 1.

    The canonical heavy-lower-tail demand: Pr[C < E[C]] = 1 - 1/k, so no
    useful lower-deviation certificate exists even though the mean is fixed.
    """

    k: float
    kind: ClassVar[str] = "two_point"
    spec_keys: ClassVar[tuple] = ("k",)

    def __post_init__(self):
        k = _require_positive(self.k, "two_point k")
        if k < 1.0:
            raise DistributionError(f"two_point k must be >= 1 (mass (k-1)/k at 0), got {k!r}")
        object.__setattr__(self, "k", k)
        self._set_atoms((0.0, k), [(k - 1.0) / k, 1.0], [1.0, 1.0 / k, 0.0])

    def mean(self) -> float:
        return 1.0

    def _expected_min(self, v: float) -> float:
        return min(v, self.k) / self.k

    def _expected_min_at(self, vs):
        return np.minimum(vs, self.k) / self.k

    def sample(self, rng, size=None):
        if size is None:
            return self.k if rng.random() * self.k < 1.0 else 0.0
        return np.where(rng.random(size) * self.k < 1.0, self.k, 0.0)


class _GuideTable:
    """Inversion sampling over a finite law by a cdf with a guide table.

    ``cumulative`` holds nondecreasing cumulative weights, normalized here so
    the last cdf point is 1 exactly, and ``values`` the point at each of
    them. A draw is the value at the smallest k with cdf[k] > u for one
    uniform u, as in ``Generator.choice``. The bucket edges b / 2**j are
    exact doubles, so for u in bucket b = floor(u * 2**j) with no cdf point
    strictly inside, that k is the count of cdf points <= b / 2**j, and
    guide[b] holds its value (Chen & Asau, AIIE Trans. 1974; Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. III): such a draw
    costs one gather. Every table value is finite, so guide[b] is NaN for
    the other buckets. In a bucket with exactly one point inside, at index
    single[b], the points before it are <= u and the one after it is > u,
    so k is single[b] + (u >= cdf[single[b]]): one comparison. Only a
    bucket with several points inside (single[b] = -1) needs a search. With
    at least 16 buckets per point, at most one draw in 16 lands in a bucket
    with a point inside.
    """

    def __init__(self, cumulative, values):
        self.cdf = cumulative / cumulative[-1]
        self.values = values
        buckets = 1 << (self.cdf.size.bit_length() + 4)
        # scaling by a power of two is exact, so a point lies in bucket
        # floor(scaled), and on an edge where scaled is whole; it is
        # <= b / buckets from bucket ceil(scaled) on
        scaled = self.cdf * buckets
        low = np.floor(scaled)
        on_edge = scaled == low
        low = low.astype(np.intp)
        first = np.cumsum(np.bincount(low + ~on_edge, minlength=buckets + 1)[:buckets])
        inside = np.bincount(low[~on_edge], minlength=buckets)
        self.guide = values[first]
        self.guide[inside > 0] = np.nan
        self.single = np.where(inside == 1, first, -1)

    def sample(self, rng, size):
        if size is None:
            return float(self.values[self.cdf.searchsorted(rng.random(), side="right")])
        u = rng.random(size)
        bucket = (u * self.guide.size).astype(np.intp)
        draws = self.guide.take(bucket)
        hard = np.flatnonzero(np.isnan(draws))
        k = self.single[bucket[hard]]
        u = u[hard]
        many = np.flatnonzero(k < 0)
        k[many] = self.cdf.searchsorted(u[many], side="right")
        # a searched k already has cdf[k] > u, so the step adds 0 to it
        k += u >= self.cdf[k]
        draws[hard] = self.values[k]
        return draws


# the most points a lattice law tabulates: both its knot tables and its
# sampling table give up past it
_TABLE_CAP = 1 << 20


class _Lattice(DemandDistribution):
    """A law on the integers 0..support_max(), from a family's vectorized hooks.

    A family gives ``_cdf_at(k)``, ``_sf_at(k)`` and ``_size_biased_cdf_at(k,
    cdf=None)`` at integers k, its quantile guess ``_guess(p)``, its standard
    deviation ``_sd()``, ``_log_pmf_ratio(k)`` = log pmf(k + 1) - log pmf(k),
    and ``_numpy_sample(rng, size)``; the rest is written once, here.
    """

    def cdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        if x >= self.support_max():
            return 1.0
        return float(self._cdf_at(math.floor(x)))

    def survival(self, x: float) -> float:
        if x < 0.0:
            return 1.0
        if x >= self.support_max():
            return 0.0
        return float(self._sf_at(math.floor(x)))

    def _span(self) -> tuple[int, int]:
        """(lo, hi): the integers within 10 sd + 40 of the mean, in the support.

        By Bernstein's inequality each tail past it holds less than e**-50,
        far below 2**-53, the spacing of the uniforms, so it covers every
        draw. The knot-table and quantile searches start at its top.
        """
        spread = 10.0 * self._sd() + 40.0
        mean = self.mean()
        return max(0, math.floor(mean - spread)), int(min(self.support_max(), math.ceil(mean + spread)))

    def _tail_point(self, done) -> int:
        """The span's top, doubled until done(k) holds or k is the support's top."""
        k = self._span()[1]
        while k < self.support_max() and not done(k):
            # stop once at the cap, so no table that fits is passed over
            step = 2 * k if k >= _TABLE_CAP else min(2 * k, _TABLE_CAP)
            k = int(min(step, self.support_max()))
        return k

    def _quantile(self, p: float) -> float:
        if self._cdf_at(0) >= p:
            return 0.0
        guess = self._guess(p)
        if not math.isfinite(guess):
            guess = self.mean()
        upper = self._tail_point(lambda k: self._cdf_at(k) >= p)
        m = min(max(0, math.ceil(guess - 1e-9)), upper)
        while m < upper and self._cdf_at(m) < p:
            m += 1
        while m > 0 and self._cdf_at(m - 1) >= p:
            m -= 1
        return float(m)

    def _expected_min(self, v: float) -> float:
        # sum_{x<=m} x pmf(x) = mean Pr[X* - 1 <= m - 1] for the size-biased
        # law X*, so the truncated moment needs no explicit pmf summation.
        if v >= self.support_max():
            return self.mean()
        m = math.floor(v)
        partial = self.mean() * float(self._size_biased_cdf_at(m - 1)) if m >= 1 else 0.0
        return partial + v * float(self._sf_at(m))

    def _expected_min_at(self, vs):
        # the hooks run once per distinct floor(v), which a fine grid shares
        ms, at = np.unique(np.floor(vs), return_inverse=True)
        partial = np.where(ms >= 1.0, self.mean() * self._size_biased_cdf_at(np.maximum(ms - 1.0, 0.0)), 0.0)
        return np.where(vs >= self.support_max(), self.mean(), partial[at] + vs * self._sf_at(ms)[at])

    def expected_min_knots(self, cap):
        # ends at the cap or at the first zero survival, past which it is flat
        end = self._tail_point(lambda k: k >= cap or self._sf_at(k) == 0.0)
        top = min(math.ceil(cap), end)
        if top > _TABLE_CAP:
            return None
        ks = np.arange(top + 1, dtype=float)
        sfs = self._sf_at(ks)
        zeros = np.flatnonzero(sfs == 0.0)
        if zeros.size:
            ks, sfs = ks[: zeros[0] + 1], sfs[: zeros[0] + 1]
        cdfs = self._cdf_at(ks)
        below = np.zeros(ks.size)
        below[1:] = self._size_biased_cdf_at(ks[:-1], cdfs[:-1])
        ems = self.mean() * below + ks * sfs
        return (ks.tolist(), cdfs.tolist(), sfs.tolist(), ems.tolist())

    def _lattice(self):
        """(points, pmf) over the span; None past ``_TABLE_CAP`` points.

        The log weights are summed outward from the mean: the largest is
        about 0, so nothing like e**-lambda, which underflows for lambda >
        745, is ever formed, and the rounding of the sums stays off the bulk
        of the law.
        """
        lo, hi = self._span()
        if hi - lo >= _TABLE_CAP:
            return None
        ks = np.arange(lo, hi + 1, dtype=float)
        steps = self._log_pmf_ratio(ks[:-1])
        start = min(max(round(self.mean()), lo), hi) - lo
        log_w = np.zeros(ks.size)
        log_w[start + 1:] = np.cumsum(steps[start:])
        log_w[:start] = -np.cumsum(steps[:start][::-1])[::-1]
        weights = np.exp(log_w)
        return ks, weights / weights.sum()

    @functools.cached_property
    def _table(self) -> Optional[_GuideTable]:
        lattice = self._lattice()
        return None if lattice is None else _GuideTable(np.cumsum(lattice[1]), lattice[0])

    def sample(self, rng, size=None):
        if self._table is not None:
            return self._table.sample(rng, size)
        draws = self._numpy_sample(rng, size)
        return float(draws) if size is None else draws.astype(float)


@dataclass(frozen=True)
class Binomial(_Lattice):
    """Number of candidates among n independent members, each active w.p. p."""

    n: int
    p: float
    kind: ClassVar[str] = "binomial"
    spec_keys: ClassVar[tuple] = ("n", "p")

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise DistributionError(f"binomial n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise DistributionError(f"binomial n must be >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        p = float(self.p)
        if not 0.0 < p < 1.0:
            raise DistributionError(f"binomial p must be in (0, 1), got {p!r}")
        object.__setattr__(self, "p", p)

    def mean(self) -> float:
        return self.n * self.p

    def support_max(self) -> float:
        return float(self.n)

    def _cdf_at(self, k):
        return special.bdtr(k, self.n, self.p)

    def _sf_at(self, k):
        return special.bdtrc(k, self.n, self.p)

    def _size_biased_cdf_at(self, k, cdf=None):
        # x pmf(x) / (n p) is the pmf of 1 + Bin(n - 1, p)
        return special.bdtr(k, self.n - 1, self.p)

    def _guess(self, p):
        return special.bdtrik(p, self.n, self.p)

    def _sd(self):
        return math.sqrt(self.mean() * (1.0 - self.p))

    def _log_pmf_ratio(self, k):
        return np.log((self.n - k) / (k + 1.0) * (self.p / (1.0 - self.p)))

    def _numpy_sample(self, rng, size):
        return rng.binomial(self.n, self.p, size)


@dataclass(frozen=True)
class Poisson(_Lattice):
    """Poisson candidate counts with rate ``lam``."""

    lam: float
    kind: ClassVar[str] = "poisson"
    spec_keys: ClassVar[tuple] = ("lambda",)

    def __post_init__(self):
        object.__setattr__(self, "lam", _require_positive(self.lam, "poisson lambda"))

    def mean(self) -> float:
        return self.lam

    def support_max(self) -> float:
        return math.inf

    def _cdf_at(self, k):
        return special.pdtr(k, self.lam)

    def _sf_at(self, k):
        return special.pdtrc(k, self.lam)

    def _size_biased_cdf_at(self, k, cdf=None):
        # x pmf(x) / lam is the pmf of 1 + Poi(lam): the law's own cdf, which
        # a knot table passes in from its cdf column
        return special.pdtr(k, self.lam) if cdf is None else cdf

    def _guess(self, p):
        return special.pdtrik(p, self.lam)

    def _sd(self):
        return math.sqrt(self.lam)

    def _log_pmf_ratio(self, k):
        return np.log(self.lam / (k + 1.0))

    def _numpy_sample(self, rng, size):
        return rng.poisson(self.lam, size)


@dataclass(frozen=True)
class Normal(DemandDistribution):
    """Gaussian demand model.

    The support is the whole real line; formulas are evaluated untruncated.
    When Pr[C < 0] is non-negligible the model is being misused for counts,
    which ``mass_below_zero`` lets report layers flag.
    """

    mu: float
    sigma: float
    kind: ClassVar[str] = "normal"
    spec_keys: ClassVar[tuple] = ("mu", "sigma")

    def __post_init__(self):
        object.__setattr__(self, "mu", _require_positive(self.mu, "normal mu"))
        object.__setattr__(self, "sigma", _require_positive(self.sigma, "normal sigma"))

    def mean(self) -> float:
        return self.mu

    def cdf(self, x: float) -> float:
        return 0.5 * math.erfc((self.mu - x) / (self.sigma * _SQRT2))

    def survival(self, x: float) -> float:
        return 0.5 * math.erfc((x - self.mu) / (self.sigma * _SQRT2))

    def _quantile(self, p: float) -> float:
        return self.mu + self.sigma * float(special.ndtri(p))

    def _expected_min(self, v: float) -> float:
        z = (self.mu - v) / self.sigma
        upper_cdf = 0.5 * math.erfc(-z / _SQRT2)
        density = math.exp(-0.5 * z * z) * _INV_SQRT_2PI
        return self.mu - (self.mu - v) * upper_cdf - self.sigma * density

    def sample(self, rng, size=None):
        draws = rng.normal(self.mu, self.sigma, size)
        return float(draws) if size is None else draws

    def support_max(self) -> float:
        return math.inf

    def mass_below_zero(self) -> float:
        return 0.5 * math.erfc(self.mu / (self.sigma * _SQRT2))

    def shortfall_bound(self, v: float) -> float:
        # the exact root-mean-square, E[(v - C)^2 | C < v] = sigma^2 (t^2 + 1 +
        # t phi(t) / Phi(t)) at t = (v - mu) / sigma, where draws below 0 push
        # it past v, the bound of laws on C >= 0
        t = (v - self.mu) / self.sigma
        ratio = math.exp(-0.5 * t * t - float(special.log_ndtr(t))) * _INV_SQRT_2PI
        return max(v, self.sigma * math.sqrt(max(t * t + 1.0 + t * ratio, 0.0)))


@dataclass(frozen=True)
class Exponential(DemandDistribution):
    """Exponential demand parameterized by its mean."""

    mean_value: float
    kind: ClassVar[str] = "exponential"
    spec_keys: ClassVar[tuple] = ("mean",)

    def __post_init__(self):
        object.__setattr__(self, "mean_value", _require_positive(self.mean_value, "exponential mean"))

    def mean(self) -> float:
        return self.mean_value

    def cdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        return -math.expm1(-x / self.mean_value)

    def survival(self, x: float) -> float:
        if x < 0.0:
            return 1.0
        return math.exp(-x / self.mean_value)

    def _quantile(self, p: float) -> float:
        return -self.mean_value * math.log1p(-p)

    def _expected_min(self, v: float) -> float:
        return -self.mean_value * math.expm1(-v / self.mean_value)

    def sample(self, rng, size=None):
        draws = rng.exponential(self.mean_value, size)
        return float(draws) if size is None else draws

    def support_max(self) -> float:
        return math.inf


def _prefix_sums(terms):
    """[0, t0, t0 + t1, ..., sum(terms)], each sum as if added in twice the precision, then rounded.

    np.cumsum adds left to right; TwoSum recovers the rounding error of each
    of its additions exactly, and the running sum of those errors corrects
    each prefix: Sum2 of Ogita, Rump & Oishi, "Accurate sum and dot
    product", SIAM J. Sci. Comput. 2005, applied to every prefix at once.
    """
    sums = np.cumsum(terms)
    before, after = sums[:-1], sums[1:]
    virtual = after - before
    errors = (before - (after - virtual)) + (terms[1:] - virtual)
    out = np.zeros(terms.size + 1)
    out[1:] = sums
    out[2:] += np.cumsum(errors)
    return out


@dataclass(frozen=True)
class Empirical(_Atoms):
    """Finite distribution over nonnegative atoms with given probabilities.

    Atoms are sorted and duplicates merged at construction; probabilities must
    sum to 1 within 1e-12 and are renormalized exactly afterwards.

    E[min(C, v)] = _below[i] + v _above[i], where i atoms are <= v,
    _below[i] sums x p over the atoms below i and _above[i] sums p over the
    rest. Both are compensated prefix sums, and the mean is _below's total,
    so E[min] reaches the mean exactly at the top atom.
    """

    values: tuple
    probabilities: tuple
    kind: ClassVar[str] = "empirical"
    spec_keys: ClassVar[tuple] = ("values", "probabilities")

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        if vals.size == 0:
            raise DistributionError("empirical values must be nonempty")
        if vals.shape != probs.shape:
            raise DistributionError("empirical values and probabilities must have equal length")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise DistributionError("empirical values must be finite and >= 0")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise DistributionError("empirical probabilities must be finite and >= 0")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise DistributionError(f"empirical probabilities must sum to 1 within 1e-12, got {total!r}")
        order = np.argsort(vals, kind="stable")
        vals, probs = vals[order], probs[order] / total
        # merge each run of equal atoms into its first: bincount adds a run's
        # weights left to right, in input order
        starts = np.concatenate(([True], vals[1:] != vals[:-1]))
        probs = np.bincount(np.cumsum(starts) - 1, weights=probs)
        vals = vals[starts]
        object.__setattr__(self, "values", tuple(vals.tolist()))
        object.__setattr__(self, "probabilities", tuple(probs.tolist()))
        suffix = np.concatenate((np.cumsum(probs[::-1])[::-1], [0.0]))
        suffix[0] = 1.0
        self._set_atoms(self.values, np.cumsum(probs), suffix, vals)
        below = _prefix_sums(self._vals * probs)
        mean = float(below[-1])
        if mean <= 0.0:
            raise DistributionError("empirical distribution must have positive mean")
        object.__setattr__(self, "_below", below)
        object.__setattr__(self, "_above", _prefix_sums(probs[::-1])[::-1])
        object.__setattr__(self, "_mean", mean)

    def mean(self) -> float:
        return self._mean

    def _expected_min(self, v: float) -> float:
        i = int(self._vals.searchsorted(v, side="right"))
        return float(self._below[i]) + v * float(self._above[i])

    def _expected_min_at(self, vs):
        i = self._vals.searchsorted(vs, side="right")
        return self._below[i] + vs * self._above[i]

    @functools.cached_property
    def _table(self) -> _GuideTable:
        """Generator.choice's cdf with a guide table, built on the first draw."""
        return _GuideTable(self._cum, self._vals)

    def sample(self, rng, size=None):
        return self._table.sample(rng, size)


# kind tag -> family class, for parsing tagged specs
FAMILIES = {
    cls.kind: cls for cls in (Constant, TwoPoint, Binomial, Poisson, Normal, Exponential, Empirical)
}
