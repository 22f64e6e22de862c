"""Demand distribution models.

Each variant describes one group's candidate-count law and exposes the exact
mean, CDF/survival, quantile, seeded sampling, and the truncated first moment
E[min(C, v)] that availability and utilization are built from.

Every variant has strictly positive mean. ``expected_min`` is nondecreasing
and concave in ``v``, bounded by ``min(v, mean)``, with slope ``Pr[C > v]``
at continuity points.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

import numpy as np
from scipy.special import bdtr, bdtrc, bdtrik, ndtri, pdtr, pdtrc, pdtrik

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

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

    def survival(self, x: float) -> float:
        """Pr[C > x]; nonincreasing in x."""
        return 1.0 - self.cdf(x)

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

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw from the distribution; a float when size is None, else an array.

        Empirical draws, and the generator's state after them, equal
        ``Generator.choice(values, size, p=probabilities)`` for the same
        generator state.
        """

    @abstractmethod
    def support_max(self) -> float:
        """Supremum of the support (may be inf)."""

    def mass_below_zero(self) -> float:
        """Pr[C < 0]; nonzero only for models that put mass on negatives."""
        return 0.0

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


@dataclass(frozen=True)
class Constant(DemandDistribution):
    """Deterministic demand of exactly ``c`` candidates."""

    c: float
    kind: ClassVar[str] = "constant"
    spec_keys: ClassVar[tuple] = ("c",)

    def __post_init__(self):
        object.__setattr__(self, "c", _require_positive(self.c, "constant c"))

    def mean(self) -> float:
        return self.c

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.c else 0.0

    def survival(self, x: float) -> float:
        return 0.0 if x >= self.c else 1.0

    def _quantile(self, p: float) -> float:
        return self.c

    def _expected_min(self, v: float) -> float:
        return self.c if v >= self.c else v

    def sample(self, rng, size=None):
        if size is None:
            return self.c
        return np.full(size, self.c)

    def support_max(self) -> float:
        return self.c

    def expected_min_knots(self, cap):
        top = min(self.c, cap)
        at_or_past = self.c <= cap
        return (
            [0.0, top],
            [0.0, 1.0 if at_or_past else 0.0],
            [1.0, 0.0 if at_or_past else 1.0],
            [0.0, top],
        )


@dataclass(frozen=True)
class TwoPoint(DemandDistribution):
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

    def mean(self) -> float:
        return 1.0

    def cdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        if x < self.k:
            return (self.k - 1.0) / self.k
        return 1.0

    def survival(self, x: float) -> float:
        if x < 0.0:
            return 1.0
        if x < self.k:
            return 1.0 / self.k
        return 0.0

    def _quantile(self, p: float) -> float:
        return 0.0 if p <= (self.k - 1.0) / self.k else self.k

    def _expected_min(self, v: float) -> float:
        return min(v, self.k) / self.k

    def sample(self, rng, size=None):
        if size is None:
            return self.k if rng.random() * self.k < 1.0 else 0.0
        return np.where(rng.random(size) * self.k < 1.0, self.k, 0.0)

    def support_max(self) -> float:
        return self.k

    def expected_min_knots(self, cap):
        if self.k <= cap:
            return (
                [0.0, self.k],
                [(self.k - 1.0) / self.k, 1.0],
                [1.0 / self.k, 0.0],
                [0.0, 1.0],
            )
        return (
            [0.0, cap],
            [(self.k - 1.0) / self.k, (self.k - 1.0) / self.k],
            [1.0 / self.k, 1.0 / self.k],
            [0.0, cap / self.k],
        )


def _smallest_point_with_cdf_at_least(p, guess, cdf_at, upper):
    """Adjust an approximate integer quantile to the smallest m with cdf(m) >= p."""
    m = min(max(0, guess), upper)
    while m < upper and cdf_at(m) < p:
        m += 1
    while m > 0 and cdf_at(m - 1) >= p:
        m -= 1
    return float(m)


@dataclass(frozen=True)
class Binomial(DemandDistribution):
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

    def cdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        if x >= self.n:
            return 1.0
        return float(bdtr(math.floor(x), self.n, self.p))

    def survival(self, x: float) -> float:
        if x < 0.0:
            return 1.0
        if x >= self.n:
            return 0.0
        return float(bdtrc(math.floor(x), self.n, self.p))

    def _quantile(self, p: float) -> float:
        if bdtr(0.0, self.n, self.p) >= p:
            return 0.0
        guess = bdtrik(p, self.n, self.p)
        if not math.isfinite(guess):
            guess = self.mean()
        return _smallest_point_with_cdf_at_least(
            p, int(math.ceil(guess - 1e-9)), lambda m: bdtr(m, self.n, self.p), self.n
        )

    def _expected_min(self, v: float) -> float:
        # sum_{x<=m} x pmf(x) = n p Pr[Bin(n-1, p) <= m-1], so the truncated
        # moment needs no explicit pmf summation.
        if v >= self.n:
            return self.mean()
        m = math.floor(v)
        partial = self.mean() * float(bdtr(m - 1, self.n - 1, self.p)) if m >= 1 else 0.0
        return partial + v * float(bdtrc(m, self.n, self.p))

    def sample(self, rng, size=None):
        draws = rng.binomial(self.n, self.p, size)
        return float(draws) if size is None else draws.astype(float)

    def support_max(self) -> float:
        return float(self.n)

    def expected_min_knots(self, cap):
        top = min(self.n, math.ceil(cap))
        if top > 1 << 20:
            return None
        ks = np.arange(top + 1, dtype=float)
        cdfs = bdtr(ks, self.n, self.p)
        sfs = bdtrc(ks, self.n, self.p)
        below = np.zeros(top + 1)
        below[1:] = bdtr(ks[:-1], self.n - 1, self.p)
        ems = self.mean() * below + ks * sfs
        return (ks.tolist(), cdfs.tolist(), sfs.tolist(), ems.tolist())


@dataclass(frozen=True)
class Poisson(DemandDistribution):
    """Poisson candidate counts with rate ``lam``."""

    lam: float
    kind: ClassVar[str] = "poisson"
    spec_keys: ClassVar[tuple] = ("lambda",)

    def __post_init__(self):
        object.__setattr__(self, "lam", _require_positive(self.lam, "poisson lambda"))

    def mean(self) -> float:
        return self.lam

    def cdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        return float(pdtr(math.floor(x), self.lam))

    def survival(self, x: float) -> float:
        if x < 0.0:
            return 1.0
        return float(pdtrc(math.floor(x), self.lam))

    def _quantile(self, p: float) -> float:
        if pdtr(0.0, self.lam) >= p:
            return 0.0
        guess = pdtrik(p, self.lam)
        if not math.isfinite(guess):
            guess = self.lam
        upper = self._tail_guess()
        while pdtr(upper, self.lam) < p:
            upper *= 2
        return _smallest_point_with_cdf_at_least(
            p, int(math.ceil(guess - 1e-9)), lambda m: pdtr(m, self.lam), upper
        )

    def _expected_min(self, v: float) -> float:
        # sum_{x<=m} x pmf(x) = lam Pr[Poi(lam) <= m-1].
        m = math.floor(v)
        partial = self.lam * float(pdtr(m - 1, self.lam)) if m >= 1 else 0.0
        return partial + v * float(pdtrc(m, self.lam))

    def sample(self, rng, size=None):
        draws = rng.poisson(self.lam, size)
        return float(draws) if size is None else draws.astype(float)

    def support_max(self) -> float:
        return math.inf

    def _tail_guess(self) -> int:
        """An integer in the law's far upper tail, where searches start."""
        return int(self.lam + 40.0 * math.sqrt(self.lam) + 40.0)

    def expected_min_knots(self, cap):
        # ends at the cap or at the first zero survival, past which it is flat
        end = self._tail_guess()
        while end < cap and pdtrc(end, self.lam) > 0.0:
            end *= 2
        top = min(math.ceil(cap), end)
        if top > 1 << 20:
            return None
        ks = np.arange(top + 1, dtype=float)
        sfs = pdtrc(ks, self.lam)
        zeros = np.flatnonzero(sfs == 0.0)
        if zeros.size:
            ks, sfs = ks[: zeros[0] + 1], sfs[: zeros[0] + 1]
        cdfs = pdtr(ks, self.lam)
        below = np.zeros(ks.size)
        below[1:] = cdfs[:-1]
        ems = self.lam * below + ks * sfs
        return (ks.tolist(), cdfs.tolist(), sfs.tolist(), ems.tolist())


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
        return self.mu + self.sigma * float(ndtri(p))

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


@dataclass(frozen=True)
class Empirical(DemandDistribution):
    """Finite distribution over nonnegative atoms with given probabilities.

    Atoms are sorted and duplicates merged at construction; probabilities must
    sum to 1 within 1e-12 and are renormalized exactly afterwards.
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
        # merge duplicates left to right over Python floats: the same sums
        # as over numpy scalars, in less time
        sorted_vals, sorted_probs = vals[order].tolist(), (probs[order] / total).tolist()
        keep_vals, keep_probs = sorted_vals[:1], sorted_probs[:1]
        for x, w in zip(sorted_vals[1:], sorted_probs[1:]):
            if x == keep_vals[-1]:
                keep_probs[-1] += w
            else:
                keep_vals.append(x)
                keep_probs.append(w)
        vals = np.asarray(keep_vals)
        probs = np.asarray(keep_probs)
        mean = float(vals @ probs)
        if mean <= 0.0:
            raise DistributionError("empirical distribution must have positive mean")
        object.__setattr__(self, "values", tuple(keep_vals))
        object.__setattr__(self, "probabilities", tuple(keep_probs))
        object.__setattr__(self, "_vals", vals)
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_cum", np.cumsum(probs))
        # suffix[i] = Pr[C > values[i-1]], summed from the top so tail mass
        # far below the 1e-16 spacing of 1 - cdf keeps its value
        suffix = np.concatenate((np.cumsum(probs[::-1])[::-1], [0.0]))
        suffix[0] = 1.0
        object.__setattr__(self, "_suffix", suffix)
        object.__setattr__(self, "_mean", mean)

    def mean(self) -> float:
        return self._mean

    def cdf(self, x: float) -> float:
        idx = int(np.searchsorted(self._vals, x, side="right"))
        return 0.0 if idx == 0 else float(self._cum[idx - 1])

    def survival(self, x: float) -> float:
        idx = int(np.searchsorted(self._vals, x, side="right"))
        return float(self._suffix[idx])

    def _quantile(self, p: float) -> float:
        idx = int(np.searchsorted(self._cum, p, side="left"))
        idx = min(idx, len(self.values) - 1)
        return float(self._vals[idx])

    def _expected_min(self, v: float) -> float:
        return float(np.minimum(self._vals, v) @ self._probs)

    def _guide_table(self):
        """Generator.choice's cdf with a guide table over 2**k equal buckets.

        guide[b] counts the cdf points <= b / 2**k, and split[b] marks the
        buckets with a cdf point strictly inside. The bucket edges are exact
        doubles, so for u in an unsplit bucket b = floor(u * 2**k) the count
        of cdf points <= u is guide[b] exactly (Chen & Asau, AIIE Trans.
        1974; Devroye, Non-Uniform Random Variate Generation, 1986, ch. III).
        With at least 16 buckets per atom, at most one draw in 16 lands in a
        split bucket and needs a search. Built on the first draw, not at
        parse time.
        """
        table = self.__dict__.get("_table")
        if table is None:
            cdf = self._cum / self._cum[-1]
            buckets = 1 << (cdf.size.bit_length() + 4)
            edges = np.arange(buckets + 1) / buckets
            guide = cdf.searchsorted(edges[:-1], side="right")
            split = cdf.searchsorted(edges[1:], side="left") > guide
            table = (cdf, guide, split)
            object.__setattr__(self, "_table", table)
        return table

    def sample(self, rng, size=None):
        cdf, guide, split = self._guide_table()
        if size is None:
            return float(self._vals[cdf.searchsorted(rng.random(), side="right")])
        u = rng.random(size)
        bucket = (u * guide.size).astype(np.intp)
        idx = guide[bucket]
        hard = np.flatnonzero(split[bucket])
        idx[hard] = cdf.searchsorted(u[hard], side="right")
        return self._vals[idx]

    def support_max(self) -> float:
        return float(self._vals[-1])

    def expected_min_knots(self, cap):
        lo = int(self._vals[0] == 0.0)  # an atom at 0 is the knot at 0
        hi = int(np.searchsorted(self._vals, cap, side="right"))
        xs = [0.0] + list(self.values[lo:hi])
        cdfs = ([] if lo else [0.0]) + self._cum[:hi].tolist()
        sfs = self._suffix[lo:hi + 1].tolist()
        ems = [self._expected_min(x) for x in xs]
        return (xs, cdfs, sfs, ems)


# kind tag -> family class, for parsing tagged specs
FAMILIES = {
    cls.kind: cls for cls in (Constant, TwoPoint, Binomial, Poisson, Normal, Exponential, Empirical)
}
