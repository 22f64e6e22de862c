"""Lower-tail concentration certificates and the guarantees they imply.

A distribution satisfies an (epsilon, delta)-lower deviation inequality when
Pr[C <= (1-epsilon) E[C]] <= delta. Certificates are computed either exactly
from the CDF or from closed-form Chernoff-style bounds for the binomial,
normal, and Poisson families. From a certificate follow bounds on the
fairness and utilization of the mean-weighted allocation and on the price
of fairness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from .distributions import DemandDistribution

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import Scenario

EXACT_CDF = "exact_cdf"
CHERNOFF_METHODS = ("chernoff_binomial", "chernoff_normal", "chernoff_poisson")
METHODS = (EXACT_CDF,) + CHERNOFF_METHODS

_CHERNOFF_FAMILY = {
    "chernoff_binomial": "binomial",
    "chernoff_normal": "normal",
    "chernoff_poisson": "poisson",
}


class CertificateError(ValueError):
    """Unsupported family, method, or parameter for a tail certificate."""


def bennett_h(x: float) -> float:
    """The Bennett tail shape h(x) = 2((1+x)ln(1+x) - x) / x^2, h(0) = 1."""
    if x <= -1.0:
        raise CertificateError(f"h(x) requires x > -1, got {x!r}")
    if abs(x) < 1e-8:
        # series: h(x) = 1 - x/3 + O(x^2); avoids 0/0 at the origin
        return 1.0 - x / 3.0
    return 2.0 * ((1.0 + x) * math.log1p(x) - x) / (x * x)


def check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise CertificateError(f"epsilon must be in (0, 1), got {epsilon!r}")
    return epsilon


def check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise CertificateError(f"delta must be in (0, 1), got {delta!r}")
    return delta


def _snap_to_integer(x: float) -> float:
    # (1-eps)*mean lands on an integer for the natural test grids; keep the
    # atom included instead of losing it to float dust under floor(). The
    # window is relative, so a threshold below 1 never snaps to 0.
    r = round(x)
    if abs(x - r) <= 1e-9 * abs(x):
        return float(r)
    return x


def exact_lower_deviation(dist: DemandDistribution, epsilon: float) -> float:
    """Exact delta* = Pr[C <= (1-epsilon) E[C]], the tightest certificate."""
    epsilon = check_epsilon(epsilon)
    threshold = _snap_to_integer((1.0 - epsilon) * dist.mean())
    return dist.cdf(threshold)


def chernoff_delta(dist: DemandDistribution, epsilon: float) -> float:
    """Closed-form lower-tail bound for binomial, normal, or Poisson demand.

    Always an upper bound on ``exact_lower_deviation`` for the same inputs.
    """
    epsilon = check_epsilon(epsilon)
    kind = dist.kind
    if kind == "binomial":
        return math.exp(-dist.mean() * epsilon * epsilon / 2.0)
    if kind == "normal":
        ratio = dist.mu / dist.sigma
        return math.exp(-epsilon * epsilon * ratio * ratio / 2.0)
    if kind == "poisson":
        return math.exp(-(epsilon * epsilon * dist.lam / 2.0) * bennett_h(-epsilon))
    raise CertificateError(
        f"no Chernoff bound for kind {kind!r}; supported families are binomial, normal, poisson"
    )


def min_parameter_threshold(
    family: str,
    epsilon: float,
    delta: float,
    *,
    p: Optional[float] = None,
    sigma: Optional[float] = None,
) -> float:
    """Smallest family parameter for which the Chernoff bound certifies (epsilon, delta).

    binomial -> minimum n given p (rounded up to an integer);
    normal   -> minimum mu given sigma;
    poisson  -> minimum lambda.
    """
    epsilon = check_epsilon(epsilon)
    delta = check_delta(delta)
    log_inv = math.log(1.0 / delta)
    if family == "binomial":
        if p is None or not 0.0 < p < 1.0:
            raise CertificateError(f"binomial threshold needs p in (0, 1), got {p!r}")
        raw = (2.0 / (epsilon * epsilon * p)) * log_inv
        return int(math.ceil(_snap_to_integer(raw)))
    if family == "normal":
        if sigma is None or sigma <= 0.0:
            raise CertificateError(f"normal threshold needs sigma > 0, got {sigma!r}")
        return math.sqrt((2.0 * sigma * sigma / (epsilon * epsilon)) * log_inv)
    if family == "poisson":
        return (2.0 / (epsilon * epsilon * bennett_h(-epsilon))) * log_inv
    raise CertificateError(
        f"unknown family {family!r}; expected binomial, normal, or poisson"
    )


def chernoff_threshold(dist: DemandDistribution, epsilon: float, delta: float) -> Optional[float]:
    """``min_parameter_threshold`` for the family of ``dist`` at its other parameter.

    None for kinds that have no Chernoff bound.
    """
    kind = dist.kind
    if kind == "binomial":
        return min_parameter_threshold(kind, epsilon, delta, p=dist.p)
    if kind == "normal":
        return min_parameter_threshold(kind, epsilon, delta, sigma=dist.sigma)
    if kind == "poisson":
        return min_parameter_threshold(kind, epsilon, delta)
    return None


@dataclass(frozen=True)
class TailCertificate:
    """Statement that every group satisfies Pr[C <= (1-epsilon) mu] <= delta.

    ``delta`` is the maximum of the per-group deltas. Exact certificates on
    bounded-below demand (e.g. constants) legitimately yield delta = 0.
    """

    epsilon: float
    delta: float
    method: str
    per_group_deltas: tuple

    def __post_init__(self):
        check_epsilon(self.epsilon)
        if not 0.0 <= self.delta < 1.0:
            raise CertificateError(f"delta must be in [0, 1), got {self.delta!r}")
        if self.method not in METHODS:
            raise CertificateError(f"unknown method {self.method!r}; expected one of {METHODS}")
        object.__setattr__(self, "per_group_deltas", tuple(float(d) for d in self.per_group_deltas))
        if self.per_group_deltas and self.delta != max(self.per_group_deltas):
            raise CertificateError("delta must equal the maximum per-group delta")

    def to_dict(self) -> dict:
        return asdict(self)


def scenario_certificate(
    scenario: "Scenario", epsilon: float, method: str = EXACT_CDF
) -> TailCertificate:
    """Per-group deltas plus their maximum, for a whole scenario."""
    epsilon = check_epsilon(epsilon)
    if method not in METHODS:
        raise CertificateError(f"unknown method {method!r}; expected one of {METHODS}")
    deltas = []
    for group in scenario.groups:
        if method == EXACT_CDF:
            deltas.append(exact_lower_deviation(group.dist, epsilon))
        else:
            family = _CHERNOFF_FAMILY[method]
            if group.dist.kind != family:
                raise CertificateError(
                    f"method {method!r} requires every group to be {family}, "
                    f"but group {group.name!r} is {group.dist.kind}"
                )
            deltas.append(chernoff_delta(group.dist, epsilon))
        if deltas[-1] >= 1.0:
            raise CertificateError(
                f"group {group.name!r} has a lower-deviation delta that rounds to 1 at "
                f"epsilon={epsilon!r}, which certifies nothing"
            )
    return TailCertificate(
        epsilon=epsilon, delta=max(deltas), method=method, per_group_deltas=tuple(deltas)
    )


@dataclass(frozen=True)
class TheoreticalBounds:
    """Guarantees for the mean-weighted allocation under an (eps, delta) certificate.

    Low-resource fields apply only when R <= (1-eps) Z and are None otherwise;
    PoF bounds are None whenever their preconditions fail rather than being
    extrapolated.
    """

    epsilon: float
    delta: float
    fairness_bound: float                       # eps + delta - eps*delta
    fairness_bound_low_resource: Optional[float]      # (1-eps) delta
    utilization_fraction: float                 # 1 - eps - delta, of min(R, Z)
    utilization_fraction_low_resource: Optional[float]  # 1 - delta, of R
    pof_bound: Optional[float]                  # 1 / (1 - alpha)
    pof_bound_small: Optional[float]            # 1 + 2 alpha, needs eps+delta <= 1/2
    low_resource: bool

    def to_dict(self) -> dict:
        return asdict(self)


def theoretical_bounds(
    cert: TailCertificate, scenario: "Scenario", alpha: Optional[float] = None
) -> TheoreticalBounds:
    """Evaluate every bound the certificate supports for this scenario."""
    eps, delta = cert.epsilon, cert.delta
    low_resource = scenario.resource <= (1.0 - eps) * scenario.total_mean
    pof_bound = None
    pof_bound_small = None
    if alpha is not None and eps + delta <= alpha < 1.0 and eps + delta < 1.0:
        pof_bound = 1.0 / (1.0 - alpha)
        if eps + delta <= 0.5:
            pof_bound_small = 1.0 + 2.0 * alpha
    return TheoreticalBounds(
        epsilon=eps,
        delta=delta,
        fairness_bound=eps + delta - eps * delta,
        fairness_bound_low_resource=(1.0 - eps) * delta if low_resource else None,
        utilization_fraction=1.0 - eps - delta,
        utilization_fraction_low_resource=1.0 - delta if low_resource else None,
        pof_bound=pof_bound,
        pof_bound_small=pof_bound_small,
        low_resource=low_resource,
    )
