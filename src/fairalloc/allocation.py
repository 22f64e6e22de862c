"""Allocation rules and optimizers.

``mean_weighted`` splits the resource proportionally to expected demand.
``max_utilization`` solves the unconstrained concave maximum of total
expected consumption by water-filling: it equalizes the marginal value
Pr[C_i > v_i] across groups. ``alpha_fair_optimal`` searches an
availability floor, converts the fairness band into per-group box
constraints, and water-fills inside the boxes. ``pof`` is the ratio of the
two optima.

All optimizers are deterministic: step-discontinuity residuals are assigned
greedily by ascending group index, and the floor search moves by the sign of
a slope, which has no ties.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

from . import certificates, metrics
from .distributions import DemandDistribution
from .metrics import Allocation, Scenario

BISECTION_STEPS = 60  # Newton steps per crossing before it only halves


class OptimizerError(RuntimeError):
    """Optimizer failed to produce a valid allocation."""


class ConvergenceError(OptimizerError):
    """Bisection or sweep did not reach the required tolerance."""


class InfeasibleError(OptimizerError):
    """No allocation satisfies the requested constraints."""


@dataclass(frozen=True)
class PofResult:
    """Price of fairness at a given alpha, with the certified bounds attached.

    Both bounds come from ``certificates.theoretical_bounds`` and are None
    without a certificate or when the certificate does not support them.
    """

    alpha: float
    unconstrained_utilization: float
    constrained_utilization: float
    pof: float
    bound_1_over_1_minus_alpha: Optional[float]
    bound_1_plus_2alpha: Optional[float]
    certificate: Optional[certificates.TailCertificate]
    max_utilization_allocation: Allocation
    alpha_fair_allocation: Allocation

    def to_row(self) -> dict:
        """The six scalar fields: the CSV row of a pof report."""
        return {
            "alpha": self.alpha,
            "unconstrained_utilization": self.unconstrained_utilization,
            "constrained_utilization": self.constrained_utilization,
            "pof": self.pof,
            "bound_1_over_1_minus_alpha": self.bound_1_over_1_minus_alpha,
            "bound_1_plus_2alpha": self.bound_1_plus_2alpha,
        }

    def to_dict(self) -> dict:
        return {
            **self.to_row(),
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "max_utilization_allocation": list(self.max_utilization_allocation.values),
            "alpha_fair_allocation": list(self.alpha_fair_allocation.values),
        }


def mean_weighted(scenario: Scenario) -> Allocation:
    """v_i = R mu_i / Z: every group gets the same v_i / mu_i ratio R / Z."""
    return Allocation(tuple(_mean_shares(scenario.resource, scenario)))


def _mean_shares(amount: float, scenario: Scenario) -> list:
    """amount mu_i / Z for each group, computed as (amount mu_i) / Z.

    amount and Z are first scaled by the one power of two that brings Z into
    [0.5, 1). That is exact unless amount / Z is below the least normal
    double, so the bits are those of the plain product wherever it stays in
    range, and the product no longer overflows or underflows at extreme units
    of demand.
    """
    z = scenario.total_mean
    exp = math.frexp(z)[1]
    a, z = math.ldexp(amount, -exp), math.ldexp(z, -exp)
    return [a * m / z for m in scenario.means]


def _reached(f, strict):
    """Whether a gap f has reached its crossing: f > 0 if strict, else f >= 0."""
    return f > 0.0 or (f == 0.0 and not strict)


def _crossing(gap, slope, strict, a, b, x, fx):
    """The final bracket (a, b) around the crossing of an increasing gap through 0.

    The gap counts as reached where it is > 0 (strict) or >= 0. Callers keep
    it unreached at a and reached at b, and start from x, one of the two,
    with fx = gap(x). The first BISECTION_STEPS steps follow the tangent at
    x, with slope(x) any slope of the gap there; the callers say which side
    of the crossing it lands on. A step that rounds onto x probes the
    adjacent double towards the other end instead. A step that leaves the
    bracket, or that has no finite positive slope, halves the bracket
    instead, and so does every later step, as rtsafe does (Press et al.,
    Numerical Recipes, section 9.4). Stops once no double lies between the
    ends. Each halving halves the bracket and doubles lie at least 2**-1074
    apart, so that takes at most about BISECTION_STEPS + 1,075 + log2(b - a)
    steps.
    """
    for step in itertools.count():
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        d = slope(x) if step < BISECTION_STEPS else math.nan
        y = x - fx / d if 0.0 < d < math.inf else math.nan
        if y == x:
            y = math.nextafter(x, b if x == a else a)
        if not a < y < b:
            y = m
        x, fx = y, gap(y)
        if _reached(fx, strict):
            b = x
        else:
            a = x
    return a, b


class _Curve:
    """Fast exact evaluator of one group's E[min(C, v)] on [0, cap].

    Subclasses give em, cdf, sf (the survival right of v), _stretch (the
    quantile at a cdf level s with the stretch of levels it holds on) and
    the box inverses' searches _lowest and _highest; _curve picks the
    subclass.
    """

    def __init__(self, dist: DemandDistribution, cap: float):
        self.dist = dist
        self.cap = float(cap)
        self.mu = dist.mean()
        # negative for a normal model with mass below zero
        self.em0 = self.em(0.0)
        self.em_cap = self.em(self.cap)

    def inverse_slope(self, v: float) -> float:
        """Slope dv/dq of the box inverses at v: mu over sf(v), inf where that is 0."""
        sf = self.sf(v)
        return self.mu / sf if sf > 0.0 else math.inf

    def box_fill(self, lo: float, hi: float):
        """fill(s) = (v, a, b) for 0 < s < 1: the water level v at cdf level s,
        clipped into [lo, hi], and the stretch (a, b] of levels around s on
        which it is constant.

        The cdf levels of the two box ends are read once here, not on every
        water-fill step. Searching the cdf level rather than the survival
        level keeps deep lower-tail levels representable (1 - s underflows to
        1 there).
        """
        cdf_lo, cdf_hi = self.cdf(lo), self.cdf(hi)
        stretch = self._stretch

        def fill(s: float):
            if cdf_hi < s:
                return hi, cdf_hi, 1.0
            if cdf_lo >= s:
                return lo, 0.0, cdf_lo
            v, a, b = stretch(s)
            return min(hi, max(lo, v)), a, b

        return fill

    def lowest_v_with_q_at_least(self, target: float) -> float:
        """Smallest v in [0, cap] with q(v) >= target, or inf if unreachable."""
        t = target * self.mu
        return 0.0 if self.em0 >= t else self._lowest(t)

    def highest_v_with_q_at_most(self, target: float) -> float:
        """Largest v in [0, cap] with q(v) <= target, or -inf if q(0) > target."""
        t = target * self.mu
        if self.em0 > t:
            return -math.inf
        if self.em_cap <= t:
            return self.cap
        return self._highest(t)


class _KnotCurve(_Curve):
    """The curve of a law with a knot table (the atom laws, Binomial and
    Poisson): every lookup and box inverse is a bisect plus one linear step.
    The table stays in Python lists, on which a scalar bisect is several
    times faster than on a numpy array.
    """

    def __init__(self, dist: DemandDistribution, cap: float, table):
        self.xs, self.cdfs, self.sfs, self.ems = table
        super().__init__(dist, cap)

    def em(self, v: float) -> float:
        idx = bisect.bisect_right(self.xs, v) - 1
        return 0.0 if idx < 0 else self.ems[idx] + (v - self.xs[idx]) * self.sfs[idx]

    def cdf(self, v: float) -> float:
        idx = bisect.bisect_right(self.xs, v) - 1
        return 0.0 if idx < 0 else self.cdfs[idx]

    def sf(self, v: float) -> float:
        return self.sfs[bisect.bisect_right(self.xs, v) - 1]

    def _stretch(self, s: float):
        # box_fill asks only for cdf(lo) < s <= cdf(hi), with 0 <= lo and
        # cdfs[0] = cdf(0), so the knot lies past the first and in the table
        cdfs = self.cdfs
        idx = bisect.bisect_left(cdfs, s)
        return self.xs[idx], cdfs[idx - 1], cdfs[idx]

    def _lowest(self, t: float) -> float:
        ems = self.ems
        idx = bisect.bisect_left(ems, t)  # >= 1, since ems[0] = em0 < t
        if idx >= len(ems):
            sf = self.sfs[-1]
            if sf <= 0.0:
                return math.inf
            v = self.xs[-1] + (t - ems[-1]) / sf
        else:
            sf = self.sfs[idx - 1]
            if sf <= 0.0:
                return self.xs[idx]
            # clamp into the segment: a denormal slope makes the division
            # overshoot even though the right knot already satisfies em >= t
            v = min(self.xs[idx - 1] + (t - ems[idx - 1]) / sf, self.xs[idx])
        if v > self.cap:
            if self.em_cap >= t - metrics.Q_TOL * t:  # t is a floor times mu
                return self.cap
            return math.inf
        return v

    def _highest(self, t: float) -> float:
        idx = bisect.bisect_right(self.ems, t) - 1  # >= 0, since ems[0] = em0 <= t
        sf = self.sfs[idx]
        if sf <= 0.0:
            return self.cap
        v = self.xs[idx] + (t - self.ems[idx]) / sf
        if idx + 1 < len(self.xs):
            v = min(v, self.xs[idx + 1])  # same denormal-slope overshoot guard
        return min(self.cap, v)


class _SmoothCurve(_Curve):
    """A smooth law's curve from its closed forms, with Newton box inverses."""

    def __init__(self, dist: DemandDistribution, cap: float):
        self.em, self.cdf, self.sf = dist._expected_min, dist.cdf, dist.survival
        self._last = [0.0, 0.0]  # the last low (index 0) and high (index 1) crossing
        super().__init__(dist, cap)

    def _stretch(self, s: float):
        return self.dist._quantile(s), s, s  # a smooth quantile moves with s

    def _newton(self, t: float, strict: bool) -> float:
        """The crossing of em(v) = t on a smooth law: the b end below, the a end if strict.

        The bracket (a, b) in [0, cap] keeps em(a) < t (em(a) <= t if strict)
        and em(b) >= t (em(b) > t if strict); callers have checked both at
        v = 0 and v = cap. _crossing steps with the exact slope survival(v).
        E[min(C, v)] is concave, so its tangent lies above it and a step from
        either end lands at or left of the crossing, up to rounding: from a
        the steps climb towards it, and an end that rounding put past it
        steps back to its left.

        The search starts from the crossing this curve last returned for
        the same strict, checked with one em call: it replaces 0 as the left
        end when the gap there is unreached, and cap as the right end when
        it is reached. The floor search moves its targets in small steps,
        so that point usually lies close to the new crossing.
        """
        em = self.dist._expected_min

        def gap(v):
            return em(v) - t

        a, b = 0.0, self.cap
        x, fx = a, self.em0 - t
        last = self._last[strict]
        if a < last < b:
            f = gap(last)
            if _reached(f, strict):
                b, x, fx = last, last, f
            else:
                a, x, fx = last, last, f
        v = _crossing(gap, self.dist.survival, strict, a, b, x, fx)[0 if strict else 1]
        self._last[strict] = v
        return v

    def _lowest(self, t: float) -> float:
        return math.inf if self.em_cap < t else self._newton(t, False)

    def _highest(self, t: float) -> float:
        return self._newton(t, True)


def _curve(dist: DemandDistribution, cap: float) -> _Curve:
    """One group's curve on [0, cap]: knots where the law has a table, else smooth."""
    table = dist.expected_min_knots(float(cap))
    return _SmoothCurve(dist, cap) if table is None else _KnotCurve(dist, cap, table)


def _water_fill(curves, budget, lo, hi):
    """Maximize sum of E[min(C_i, v_i)] s.t. sum v = budget, lo <= v <= hi.

    Searches a common cdf level s in [0, 1] until the fills sum to the budget
    within tol = metrics.resource_tol(budget), or until no double lies
    between the bracket's ends. Any residual sitting on a survival step is
    assigned greedily by ascending group index (utilization-equivalent on
    the flat segment). The dust of fills that meet the budget within tol
    goes first to the groups whose fill moves with s, and stays inside the
    boxes where it can.

    Each probe is the bracket's midpoint, and gives every fill with the
    stretch (a, b] of levels around it on which that fill is constant:
    between adjacent knot cdf levels, past the cdf level of a box end, or s
    alone for a smooth fill inside its box. The bracket's end then moves to
    the edge of the shared stretch, as in water-filling over piecewise-
    constant fills (Palomar & Fonollosa, IEEE TSP 2005): a probe below the
    budget moves s_lo up to the least stretch end, and one above it moves
    s_hi down to the double past the greatest stretch start. So each probe
    at least halves the bracket, and since doubles in [0, 1] lie at least
    2**-1074 apart, the loop ends within about 1,075 probes. The level 1 is
    never probed: it fills hi, whose sum is checked against the budget once
    the bracket is final.

    Returns (v, price): the allocation and the budget price 1 - s, with s the
    midpoint of the final bracket. Fills that meet the budget only within tol
    are priced at the end of their shared stretch where they cross it: its
    start above the budget, its end below.
    """
    tol = metrics.resource_tol(budget)
    feas_tol = metrics.BUDGET_TOL * budget
    sum_lo, sum_hi = sum(lo), sum(hi)
    if sum_lo > budget + feas_tol or sum_hi < budget - feas_tol:
        raise InfeasibleError(
            f"box constraints cannot meet the budget: sum lo {sum_lo!r}, "
            f"sum hi {sum_hi!r}, budget {budget!r}"
        )
    fills = [c.box_fill(a, b) for c, a, b in zip(curves, lo, hi)]
    s_lo, s_hi = 0.0, 1.0
    v_low, v_high = lo, hi  # the fills at s_lo and s_hi
    moving = []  # the groups whose fill moves with s where the fills met the budget
    while True:
        s_mid = 0.5 * (s_lo + s_hi)
        if s_mid == s_lo or s_mid == s_hi:
            if s_hi == 1.0 and sum_hi <= budget + tol:
                v_low = hi
            break
        v_mid, starts, ends = zip(*[fill(s_mid) for fill in fills])
        total = sum(v_mid)
        if abs(total - budget) <= tol:
            v_low = v_mid
            moving = [i for i, (a, b) in enumerate(zip(starts, ends)) if a == b]
            if total != budget:
                level = max(starts) if total > budget else min(ends)
                if level != s_mid:
                    s_lo, s_hi = level, math.nextafter(level, 1.0)
            break
        if total < budget:
            s_lo, v_low = min(math.nextafter(1.0, 0.0), *ends), v_mid
        else:
            s_hi, v_high = min(s_mid, math.nextafter(max(starts), 1.0)), v_mid
    v = list(v_low)
    # the groups whose fill moves with s first, since their marginal is the price
    order = [*moving, *range(len(v))]
    residual = budget - sum(v)
    if residual > 0.0:
        for i in order:
            head = v_high[i] - v[i]
            if head <= 0.0:
                continue
            add = min(residual, head)
            v[i] += add
            residual -= add
            if residual <= 0.0:
                break
    remaining = budget - sum(v)
    # signed dust: spread in that order, inside the boxes first, then allowing
    # a box overstep of tol but never a negative allocation
    for slack in (0.0, tol):
        for i in order:
            if remaining == 0.0:
                break
            moved = min(max(v[i] + remaining, max(lo[i] - slack, 0.0)), hi[i] + slack)
            remaining -= moved - v[i]
            v[i] = moved
    if abs(sum(v) - budget) > feas_tol:
        raise ConvergenceError(
            f"water-filling missed the budget by {sum(v) - budget!r}"
        )
    return v, 1.0 - 0.5 * (s_lo + s_hi)


def _prologue(scenario: Scenario):
    """Shared start of both optimizers: (shortcut allocation, None) or (None, curves).

    A zero budget and a budget that covers every group's finite support have
    a direct optimum; otherwise each group gets its curve on [0, budget].
    """
    budget = scenario.resource
    if budget == 0.0:
        return Allocation((0.0,) * scenario.size), None
    sups = [g.dist.support_max() for g in scenario.groups]
    if all(math.isfinite(s) for s in sups) and sum(sups) <= budget:
        # All demand satisfiable: saturate every support, spread the excess in
        # mean proportions. Utilization is flat here; this choice keeps q_i = 1
        # for every group, hence 0-fairness.
        shares = _mean_shares(budget - sum(sups), scenario)
        return Allocation(tuple(s + x for s, x in zip(sups, shares))), None
    return None, [_curve(g.dist, budget) for g in scenario.groups]


def _max_fill(curves, budget) -> Allocation:
    """The unconstrained water-fill of the curves _prologue built."""
    lo = [0.0] * len(curves)
    hi = [min(budget, c.dist.support_max()) for c in curves]
    return Allocation(tuple(_water_fill(curves, budget, lo, hi)[0]))


def max_utilization(scenario: Scenario) -> Allocation:
    """Unconstrained maximizer of total expected consumption (water-filling).

    At the optimum all interior groups with continuous demand share a common
    marginal Pr[C_i > v_i].
    """
    shortcut, curves = _prologue(scenario)
    if shortcut is not None:
        return shortcut
    return _max_fill(curves, scenario.resource)


def alpha_fair_optimal(scenario: Scenario, alpha: float) -> Allocation:
    """Approximately maximize utilization subject to fairness Q <= alpha.

    Searches an availability floor ell over its feasible interval; each floor
    turns the band ell <= q_i <= min(ell + alpha, 1) into box constraints
    (q_i is continuous and nondecreasing in v_i), solved by clamped
    water-filling. The best utilization U*(ell) is concave, so one search
    over the whole interval finds the best floor: a root search on the
    slope of U*, which each floor's water-fill price gives.
    The result satisfies Q <= alpha + 1e-6 and sums to R within 1e-9 R.
    Every tolerance in resource units is relative to R (to min(R, 1) below
    R = 1), so scaling every law and R by one factor scales the allocation
    by it, up to rounding.
    """
    alpha = metrics.check_alpha(alpha)
    shortcut, curves = _prologue(scenario)
    if shortcut is not None:
        return shortcut
    if alpha >= 1.0:
        # Q <= 1 identically, so the constraint is vacuous.
        return _max_fill(curves, scenario.resource)
    return _alpha_fair(scenario, alpha, curves)


def _alpha_fair(scenario: Scenario, alpha: float, curves) -> Allocation:
    # The alpha-fair optimum for alpha < 1 on the curves _prologue built.
    budget = scenario.resource

    # First pass inverts the fairness band exactly. Near availability 1 the
    # inverse dv/dq blows up (survival underflows), so adjacent representable
    # floors can straddle the budget with no floor landing on it; the retry
    # widens each band by Q_RETRY in availability, 500 times inside the
    # Q <= alpha + Q_CONTRACT contract, which restores feasibility there. When
    # both passes fail, the error is the first pass's, at the requested alpha.
    try:
        best_v = _floor_sweep(curves, budget, alpha)
    except InfeasibleError as first:
        try:
            best_v = _floor_sweep(curves, budget, alpha + metrics.Q_RETRY)
        except InfeasibleError:
            raise first from None

    alloc = Allocation(tuple(best_v))
    gap = metrics.fairness(scenario, alloc)
    if gap > alpha + metrics.Q_CONTRACT:
        raise ConvergenceError(
            f"sweep result has fairness {gap!r} exceeding alpha={alpha!r} + 1e-6"
        )
    return alloc


def _low_end_moves(c, ell, v):
    """Whether c's low box end v at floor ell moves with the floor from the right.

    It stays at 0 while ell is below q(0), and an unreachable end is inf.
    """
    return c.em0 <= ell * c.mu and v < math.inf


def _high_end_moves(c, v):
    """Whether c's high box end v moves with its floor: an end at -inf or at the cap stays."""
    return -math.inf < v < c.cap


def _feasible_floors(curves, budget, alpha):
    """(ell_min, ell_max, lows, highs): the floors whose boxes can meet the budget.

    lows(ell) are the least v reaching q = ell and highs(ell) the most v
    keeping q <= ell + alpha (no top once the band reaches 1); a group that
    cannot meet its end of the band has a low end of inf or a high end of
    -inf, so the sums carry the infeasibility. Each floor's ends are
    computed once, and callers must not change the lists. Raises
    InfeasibleError when no floor is feasible.
    """
    @functools.cache
    def lows(ell):
        return [c.lowest_v_with_q_at_least(ell) for c in curves]

    @functools.cache
    def highs(ell):
        band_top = ell + alpha
        if band_top >= 1.0:
            return [budget] * len(curves)
        return [c.highest_v_with_q_at_most(band_top) for c in curves]

    # Strict predicates: the searched interval must contain only floors whose
    # boxes genuinely bracket the budget, else searched floors sit a tolerance
    # outside feasibility and the clamped fill cannot meet the budget. A floor
    # fits while sum(lows) <= budget and reaches once sum(highs) >= budget.
    def lo_gap(ell):
        return sum(lows(ell)) - budget

    def hi_gap(ell):
        return sum(highs(ell)) - budget

    # Slopes of the sums in ell from the right: group i adds dv/dq at its end,
    # unless its end stays put there (at 0 below q_i(0), or at the cap). Only
    # finite ends count; at an infinite gap the Newton step leaves the bracket
    # whatever the slope, and _crossing halves instead.
    def lo_slope(ell):
        return sum(c.inverse_slope(v) for c, v in zip(curves, lows(ell))
                   if _low_end_moves(c, ell, v))

    def hi_slope(ell):
        return sum(c.inverse_slope(v) for c, v in zip(curves, highs(ell)) if _high_end_moves(c, v))

    # The feasible floors form an interval: both sums are nondecreasing in
    # ell. No allocation has an availability below the lowest q_i(0), which
    # is negative when a normal model puts mass below zero. Each end is where
    # a sum crosses the budget. A box end is g_i(ell), with g_i the inverse
    # of q_i, convex since q_i is concave and increasing, and clipping it at
    # 0 keeps it convex, so each sum is convex. Its tangent lies below it: a
    # Newton step from the left of the crossing lands at or right of it, and
    # from then on the steps move down onto it from the right. (A high end
    # clipped at the cap holds the whole budget alone, so that kink lies
    # right of the crossing; a step across it that lands left of the
    # crossing just becomes the bracket's left end.) _crossing takes the
    # steps and halves the bracket they leave.
    q0 = min(c.em0 / c.mu for c in curves)

    def crossing(gap, slope, strict, end):
        if not _reached(gap(1.0), strict):
            return 1.0
        f0 = gap(q0)
        if _reached(f0, strict):
            return q0
        return _crossing(gap, slope, strict, q0, 1.0, q0, f0)[end]

    ell_max = crossing(lo_gap, lo_slope, True, 0)
    ell_min = crossing(hi_gap, hi_slope, False, 1)
    if ell_min > ell_max + metrics.FLOOR_TOL:
        raise InfeasibleError(
            f"no availability floor admits a feasible fairness band for alpha={alpha!r}"
        )
    return min(ell_min, ell_max), ell_max, lows, highs


def _floor_sweep(curves, budget, alpha):
    ell_min, ell_max, lows, highs = _feasible_floors(curves, budget, alpha)
    slack = metrics.resource_tol(budget)  # a box inverted by no more than this is rounding

    best_value, best_v = -math.inf, None
    prices = {}  # water-fill budget price of each feasible scored floor

    def score(ell):
        nonlocal best_value, best_v
        lo, hi = lows(ell), list(highs(ell))
        for i, (low, high) in enumerate(zip(lo, hi)):
            if high < low - slack:
                return -math.inf
            hi[i] = max(high, low)
        try:
            v, prices[ell] = _water_fill(curves, budget, lo, hi)
        except InfeasibleError:
            return -math.inf
        value = sum(c.em(x) for c, x in zip(curves, v))
        if value > best_value:
            best_value, best_v = value, v
        return value

    # The right derivative g of U*(ell) at a scored floor, with its rounding
    # bound. The water-fill met the budget at a cdf level s and returns its
    # budget price lam = 1 - s: every group inside its box has survival lam,
    # or on a knot law lam lies between the survivals left and right of its
    # fill. A box end that binds (a low end with survival S_i below lam, a
    # high end with S_i above it) and moves with ell changes
    # E[min(C_i, v)] - lam v at rate mu_i (1 - lam / S_i). So g is
    # the right derivative of Phi(ell') = lam R + sum_i max over box_i(ell')
    # of E[min(C_i, v)] - lam v, which is concave in ell', lies above U* and
    # touches it at ell (Danskin's theorem): g <= 0 means no floor right of
    # ell does better, and g >= 0 that none left of it does. An infeasible
    # floor lies left of the feasible ones when its high ends cannot reach
    # the budget, else right of them.
    #
    # Where every group sits on a box end at s, ell lies at a kink of U*, or
    # within the fill's tolerance of one, and lam is one of many prices. The
    # kink is the floor where those ends sum to the budget; their sum grows
    # with ell at the rate their inverse slopes add up to, so one Newton step
    # on it from ell estimates the kink. The exact optimum at ell moves one
    # group off its end: left of the kink, where the ends sum below the
    # budget, the low end with the highest survival rises, and right of it
    # the high end with the lowest survival falls. Its survival is the price;
    # at the kink itself any of them is. (The fill itself meets the budget by
    # moving groups in index order, up to its tolerance past their box ends,
    # so its utilization near the kink can rise where U* falls.)
    def slope(ell):
        """(g, its rounding bound, the kink estimate or None) at a scored floor."""
        if ell not in prices:
            return (math.inf if sum(highs(ell)) < budget else -math.inf), 0.0, None
        lam = prices[ell]
        ends = [(c, low, high, c.sf(low), c.sf(high))
                for c, low, high in zip(curves, lows(ell), highs(ell))]
        # (curve, end, its survival, whether it is the low end) of each group
        # whose fill at s sits on a box end, or None for one inside its box
        clipped = [(c, low, sf_low, True) if sf_low <= lam
                   else (c, high, sf_high, False) if sf_high >= lam else None
                   for c, low, high, sf_low, sf_high in ends]
        kink = None
        if None not in clipped:
            total = sum(end for _, end, _, _ in clipped)
            rate = sum(c.inverse_slope(end) for c, end, _, is_low in clipped
                       if (_low_end_moves(c, ell, end) if is_low else _high_end_moves(c, end)))
            if rate > 0.0:
                kink = ell - (total - budget) / rate
            if total < budget:
                lam = max((sf for _, _, sf, is_low in clipped if is_low), default=lam)
            elif total > budget:
                lam = min((sf for _, _, sf, is_low in clipped if not is_low), default=lam)
        g = scale = 0.0
        for c, low, high, sf_low, sf_high in ends:
            if _low_end_moves(c, ell, low):
                if sf_low == 0.0:
                    return -math.inf, 0.0, None
                if sf_low < lam:
                    g += c.mu * (1.0 - lam / sf_low)
                    scale += c.mu * (1.0 + lam / sf_low)
            if _high_end_moves(c, high) and sf_high > lam:
                g += c.mu * (1.0 - lam / sf_high)
                scale += c.mu * (1.0 + lam / sf_high)
        return g, metrics.U_ROUNDING * scale, kink

    # U*(ell), the utilization score(ell) reaches, is concave on the
    # interval. With g_i the inverse of q_i, convex since q_i is concave and
    # nondecreasing, score(ell) equals max sum mu_i q_i s.t. sum g_i(q_i) <= R,
    # ell <= q_i <= ell + alpha (U is nondecreasing in v, and every floor in
    # the interval has sum(highs) >= R, so leftover budget can be spent inside
    # the boxes). That set is jointly convex in (q, ell) and the objective is
    # linear, so U* is concave. The search scores both ends first: a
    # float-degenerate interval can differ in feasibility at its two ends.
    _slope_search(score, slope, ell_min, ell_max)
    if best_v is None:
        raise InfeasibleError(
            f"availability floor sweep found no feasible point in "
            f"[{ell_min!r}, {ell_max!r}] for alpha={alpha!r}"
        )
    return best_v


def _slope_search(score, slope, a, b):
    """Search [a, b] for the best floor by the signs of the slope g of U*.

    slope(ell) gives g at a scored floor, the bound within which rounding
    hides its sign, and an estimate of the floor of a nearby kink or None.
    An end whose g points out of the interval is the best
    floor. Otherwise the bracket keeps g(a) > 0 > g(b), and U* lies below
    both tangents U(a) + g(a)(x - a) and U(b) + g(b)(x - b). Where U(b) - U(a)
    matches a quadratic, (g(a) + g(b))(b - a) / 2, to within 1/32 of
    (g(a) - g(b))(b - a), its spread over the kinks the bracket can hold, a
    step goes to the root of the secant of g; otherwise to where the
    tangents cross, which is the kink if U* is two straight pieces. Such a
    step keeps half the width at which the gain test below stops away from
    each end, so that one landing next to the maximum straddles it with the
    next. When the last floor scored lies at a kink of U*, or within the
    water-fill's tolerance of one, slope(ell) also estimates where the kink
    is, and the step goes there. Every third step in a row that would move
    the same end, and every step where an end's g is infinite, halves the
    bracket instead.

    The tangents' crossing also bounds U* on the bracket: the search stops
    once no floor there can beat the better end by more than the values'
    rounding, once g is 0 within its bound, or once no double lies between
    the ends.
    """
    ua, ub = score(a), score(b)
    ga, bound, kink = slope(a)
    if ga <= bound:
        return
    gb, bound, kink = slope(b)
    if gb >= -bound:
        return
    kept, last = 0, None  # steps in a row that moved the same end, and that end
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return
        x = m
        if math.isfinite(ga - gb):
            w, rise, spread = b - a, ub - ua, ga - gb
            gain = w * ga / spread * -gb
            tol = metrics.U_ROUNDING * max(abs(ua), abs(ub))
            if gain <= tol:
                return
            if kept < 3:
                if kink is not None and a < kink < b:
                    x = kink
                else:
                    if abs(rise - 0.5 * (ga + gb) * w) <= spread * w / 32.0:
                        x = a + ga / spread * w
                    else:
                        x = a + (rise - gb * w) / spread
                    near = 0.5 * w * tol / gain
                    x = min(max(x, a + near), b - near)
                    if not a < x < b:
                        x = m
        u = score(x)
        g, bound, kink = slope(x)
        if abs(g) <= bound:
            return
        moved = g > 0.0
        if moved:
            a, ua, ga = x, u, g
        else:
            b, ub, gb = x, u, g
        kept = kept + 1 if moved == last and kept < 3 else 1
        last = moved


def _optima(scenario: Scenario, alpha: float):
    """(v_max, u_max, v_fair, u_fair): both optima with their utilizations.

    Both solves share one _prologue, so each curve is built once.

    The max-utilization U is never below the alpha-fair one: when the
    water-fill stops an ulp short of the optimum, the alpha-fair allocation,
    feasible without the constraint, is the better one and replaces it.
    """
    alpha = metrics.check_alpha(alpha)
    shortcut, curves = _prologue(scenario)
    if shortcut is not None:
        v_max = v_fair = shortcut
    else:
        v_max = _max_fill(curves, scenario.resource)
        v_fair = v_max if alpha >= 1.0 else _alpha_fair(scenario, alpha, curves)
    u_max = metrics.utilization(scenario, v_max)
    u_fair = metrics.utilization(scenario, v_fair)
    if u_fair > u_max:
        v_max, u_max = v_fair, u_fair
    return v_max, u_max, v_fair, u_fair


def pof(
    scenario: Scenario, alpha: float, certificate: Optional[certificates.TailCertificate] = None
) -> PofResult:
    """Ratio of the unconstrained utilization optimum to the alpha-fair optimum."""
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"pof requires 0 <= alpha < 1, got {alpha!r}")
    v_max, u_max, v_fair, u_fair = _optima(scenario, alpha)
    if u_fair <= 0.0:
        ratio = 1.0 if u_max <= 0.0 else math.inf
    else:
        ratio = u_max / u_fair
    bounds = None
    if certificate is not None:
        bounds = certificates.theoretical_bounds(certificate, scenario, alpha)
    return PofResult(
        alpha=alpha,
        unconstrained_utilization=u_max,
        constrained_utilization=u_fair,
        pof=ratio,
        bound_1_over_1_minus_alpha=bounds.pof_bound if bounds else None,
        bound_1_plus_2alpha=bounds.pof_bound_small if bounds else None,
        certificate=certificate,
        max_utilization_allocation=v_max,
        alpha_fair_allocation=v_fair,
    )
