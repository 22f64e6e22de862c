"""Availability, utilization, and fairness metrics.

availability q(v, C) = E[min(C, v)] / E[C] is the expected served fraction of
a group's demand; utilization U sums E[min(C_i, v_i)] over groups; fairness Q
is the largest pairwise availability gap, and an allocation is alpha-fair
when Q <= alpha.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

from . import certificates
from .distributions import DemandDistribution

# The tolerances that judge a result, each in the unit it bounds.
BUDGET_TOL = 1e-9  # resource, times R: an allocation sums to R within this
RESOURCE_TOL = 1e-9  # resource, times min(R, 1): the water-fill's stop, box and utilization slack
Q_TOL = 1e-12  # availability: a gap this close to 0 or to its bound meets it
Q_CLAMP = 1e-9  # availability: overshoot of [0, 1] that is clamped as rounding
Q_CONTRACT = 1e-6  # availability: alpha_fair_optimal's result has Q <= alpha + this
Q_RETRY = 2e-9  # availability: the band widening of the floor sweep's retry
FLOOR_TOL = 1e-9  # availability floor: ell_min past ell_max by this is rounding
U_ROUNDING = 64.0 * sys.float_info.epsilon  # utilization, relative: rounding of U and its slope
NEGATIVE_MASS = 1e-6  # probability: Pr[C < 0] above this draws a warning


def resource_tol(budget: float) -> float:
    """RESOURCE_TOL in resource units: relative to R, and to min(R, 1) below R = 1."""
    return RESOURCE_TOL * min(budget, 1.0)


@dataclass(frozen=True)
class Group:
    name: str
    dist: DemandDistribution


@dataclass(frozen=True)
class Scenario:
    """Total resource plus the demand law of each group."""

    resource: float
    groups: tuple

    def __post_init__(self):
        resource = float(self.resource)
        if not math.isfinite(resource) or resource < 0.0:
            raise ValueError(f"resource must be a finite nonnegative real, got {resource!r}")
        groups = tuple(self.groups)
        if not groups:
            raise ValueError("scenario needs at least one group")
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise ValueError(f"group names must be unique, got {names}")
        object.__setattr__(self, "resource", resource)
        object.__setattr__(self, "groups", groups)

    @property
    def size(self) -> int:
        return len(self.groups)

    @property
    def means(self) -> tuple:
        return tuple(g.dist.mean() for g in self.groups)

    @property
    def total_mean(self) -> float:
        """Total expected demand Z; min(R, Z) caps achievable utilization."""
        return sum(self.means)

    @property
    def names(self) -> tuple:
        return tuple(g.name for g in self.groups)


@dataclass(frozen=True)
class Allocation:
    """Per-group resource amounts; must sum to the scenario's resource.

    Every entry must be finite and >= 0. A negative entry is rejected, however
    small: there is no clamping, since "small" would need the budget R.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        for v in vals:
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"allocation entries must be finite and >= 0, got {v!r}")
        object.__setattr__(self, "values", vals)

    @property
    def total(self) -> float:
        return sum(self.values)


def check_allocation(scenario: Scenario, alloc: Allocation) -> None:
    """Reject size mismatches and sums more than BUDGET_TOL R away from R."""
    if len(alloc.values) != scenario.size:
        raise ValueError(
            f"allocation has {len(alloc.values)} entries for {scenario.size} groups"
        )
    budget = scenario.resource
    if abs(alloc.total - budget) > BUDGET_TOL * budget:
        raise ValueError(
            f"allocation sums to {alloc.total!r}, expected {budget!r}"
        )


def availability(dist: DemandDistribution, v: float) -> float:
    """Expected served fraction of demand, E[min(C, v)] / E[C].

    Clamped into [0, 1] only against <= Q_CLAMP numerical overshoot; genuinely
    out-of-range values (a normal model with heavy negative mass) pass
    through so the misuse stays visible.
    """
    return clamp_availability(dist.expected_min(v) / dist.mean())


def clamp_availability(value: float) -> float:
    """An availability computed elsewhere, clamped as ``availability`` clamps it."""
    if -Q_CLAMP <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + Q_CLAMP:
        return 1.0
    return value


def utilization(scenario: Scenario, alloc: Allocation) -> float:
    """Total expected amount of resource consumed."""
    check_allocation(scenario, alloc)
    return sum(g.dist.expected_min(v) for g, v in zip(scenario.groups, alloc.values))


def group_availabilities(scenario: Scenario, alloc: Allocation) -> list:
    check_allocation(scenario, alloc)
    return [availability(g.dist, v) for g, v in zip(scenario.groups, alloc.values)]


def fairness(scenario: Scenario, alloc: Allocation) -> float:
    """Largest pairwise availability gap, max_i q_i - min_i q_i."""
    return _gap(group_availabilities(scenario, alloc))


def _gap(qs) -> float:
    """max(qs) - min(qs), read as 0 below Q_TOL."""
    gap = max(qs) - min(qs)
    return 0.0 if gap < Q_TOL else gap


def check_alpha(alpha) -> float:
    """alpha as a float; ValueError unless it is finite and >= 0."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    return alpha


def is_alpha_fair(scenario: Scenario, alloc: Allocation, alpha: float) -> bool:
    alpha = check_alpha(alpha)
    return fairness(scenario, alloc) <= alpha + Q_TOL


def negative_mass_warnings(scenario: Scenario) -> list:
    """One warning per group whose model puts visible probability below zero."""
    warnings = []
    for g in scenario.groups:
        mass = g.dist.mass_below_zero()
        if mass > NEGATIVE_MASS:
            warnings.append(
                f"group {g.name!r}: Pr[C < 0] = {mass:.3g}; "
                "count model places visible mass on negative demand"
            )
    return warnings


@dataclass(frozen=True)
class GroupReport:
    name: str
    allocation: float
    availability: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundCheck:
    """Certificate-derived bounds compared against the evaluated allocation.

    The fairness/utilization guarantees are statements about the mean-weighted
    allocation; for any other allocation the comparisons are informational.
    """

    epsilon: float
    delta: float
    method: str
    fairness_bound: float
    fairness_bound_low_resource: Optional[float]
    utilization_bound: float
    utilization_bound_low_resource: Optional[float]
    pof_bound: Optional[float]
    pof_bound_small: Optional[float]
    fairness_ok: bool
    fairness_low_resource_ok: Optional[bool]
    utilization_ok: bool
    utilization_low_resource_ok: Optional[bool]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvaluationReport:
    resource: float
    total_mean: float
    groups: tuple
    utilization: float
    fairness: float
    bounds: Optional[BoundCheck]
    warnings: tuple

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv_rows(self) -> list:
        """One flat row per group; scenario-level columns repeat on each row."""
        rows = []
        for g in self.groups:
            row = {
                "group": g.name,
                "v": g.allocation,
                "q": g.availability,
                "utilization": self.utilization,
                "fairness": self.fairness,
            }
            if self.bounds is not None:
                row.update(
                    {
                        "epsilon": self.bounds.epsilon,
                        "delta": self.bounds.delta,
                        "fairness_bound": self.bounds.fairness_bound,
                        "utilization_bound": self.bounds.utilization_bound,
                        "fairness_ok": self.bounds.fairness_ok,
                        "utilization_ok": self.bounds.utilization_ok,
                    }
                )
            rows.append(row)
        return rows


def evaluate(
    scenario: Scenario,
    alloc: Allocation,
    *,
    epsilon: Optional[float] = None,
    method: str = certificates.EXACT_CDF,
    alpha: Optional[float] = None,
) -> EvaluationReport:
    """Score an allocation; with an epsilon, compare against certificate bounds."""
    if alpha is not None:
        alpha = check_alpha(alpha)
    qs = group_availabilities(scenario, alloc)
    total = utilization(scenario, alloc)
    gap = _gap(qs)
    bounds = None
    if epsilon is not None:
        cert = certificates.scenario_certificate(scenario, epsilon, method)
        tb = certificates.theoretical_bounds(cert, scenario, alpha)
        budget = scenario.resource
        slack = resource_tol(budget)
        cap = min(budget, scenario.total_mean)
        util_bound = tb.utilization_fraction * cap
        util_bound_low = (
            tb.utilization_fraction_low_resource * budget
            if tb.utilization_fraction_low_resource is not None
            else None
        )
        bounds = BoundCheck(
            epsilon=tb.epsilon,
            delta=tb.delta,
            method=cert.method,
            fairness_bound=tb.fairness_bound,
            fairness_bound_low_resource=tb.fairness_bound_low_resource,
            utilization_bound=util_bound,
            utilization_bound_low_resource=util_bound_low,
            pof_bound=tb.pof_bound,
            pof_bound_small=tb.pof_bound_small,
            fairness_ok=gap <= tb.fairness_bound + Q_TOL,
            fairness_low_resource_ok=(
                gap <= tb.fairness_bound_low_resource + Q_TOL
                if tb.fairness_bound_low_resource is not None
                else None
            ),
            utilization_ok=total >= util_bound - slack,
            utilization_low_resource_ok=(
                total >= util_bound_low - slack if util_bound_low is not None else None
            ),
        )
    group_reports = tuple(
        GroupReport(name=g.name, allocation=v, availability=q)
        for g, v, q in zip(scenario.groups, alloc.values, qs)
    )
    return EvaluationReport(
        resource=scenario.resource,
        total_mean=scenario.total_mean,
        groups=group_reports,
        utilization=total,
        fairness=gap,
        bounds=bounds,
        warnings=tuple(negative_mass_warnings(scenario)),
    )
