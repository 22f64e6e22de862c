"""Allocation rules and optimizers.

``mean_weighted`` splits the resource proportionally to expected demand.
``max_utilization`` solves the unconstrained concave maximum of total
expected consumption by water-filling: it equalizes the marginal value
Pr[C_i > v_i] across groups. ``alpha_fair_optimal`` searches an
availability floor, converts the fairness band into per-group box
constraints, and water-fills inside the boxes. ``pof`` is the ratio of the
two optima.

All optimizers are deterministic: step-discontinuity residuals are assigned
greedily by ascending group index, and golden-section ties narrow the floor
bracket towards its lower end.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Optional

from . import certificates, metrics
from .distributions import DemandDistribution
from .metrics import Allocation, Scenario

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

V_TOLERANCE = 1e-9  # water-fill stops once the filled levels sum this close to the budget
BISECTION_STEPS = 60  # water-fill halvings; Newton steps, then at most as many halvings, per crossing


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
    z = scenario.total_mean
    r = scenario.resource
    return Allocation(tuple(r * m / z for m in scenario.means))


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
    instead, and so does every later step. Stops once no double lies
    between the ends, or after 2 * BISECTION_STEPS steps, as rtsafe does
    (Press et al., Numerical Recipes, section 9.4).
    """
    for step in range(2 * BISECTION_STEPS):
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

    Subclasses give em, cdf, sf (the survival right of v), quantile and the
    box inverses' searches _lowest and _highest; _curve picks the subclass.
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
        """The water level at cdf-level s, clipped into [lo, hi], as a function of s.

        The cdf levels of the two box ends are read once here, not on every
        bisection step. Bisecting the cdf level rather than the survival level
        keeps deep lower-tail levels representable (1 - s underflows to 1 there).
        """
        cdf_lo, cdf_hi = self.cdf(lo), self.cdf(hi)
        quantile = self.quantile

        def fill(s: float) -> float:
            if s <= 0.0:
                return lo
            if s >= 1.0:
                return hi
            if cdf_hi < s:
                return hi
            if cdf_lo >= s:
                return lo
            return min(hi, max(lo, quantile(s)))

        return fill

    def lowest_v_with_q_at_least(self, target: float) -> Optional[float]:
        """Smallest v in [0, cap] with q(v) >= target, or None if unreachable."""
        t = target * self.mu
        return 0.0 if self.em0 >= t else self._lowest(t)

    def highest_v_with_q_at_most(self, target: float) -> Optional[float]:
        """Largest v in [0, cap] with q(v) <= target, or None if q(0) > target."""
        t = target * self.mu
        if self.em0 > t:
            return None
        if self.em_cap <= t:
            return self.cap
        return self._highest(t)


class _KnotCurve(_Curve):
    """An atom law's curve from its knot table: every lookup and box inverse is
    a bisect plus one linear step. The table stays in Python lists, on which a
    scalar bisect is several times faster than on a numpy array.
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

    def quantile(self, s: float) -> float:
        idx = bisect.bisect_left(self.cdfs, s)
        return self.xs[idx] if idx < len(self.xs) else self.cap

    def _lowest(self, t: float) -> Optional[float]:
        ems = self.ems
        idx = bisect.bisect_left(ems, t)  # >= 1, since ems[0] = em0 < t
        if idx >= len(ems):
            sf = self.sfs[-1]
            if sf <= 0.0:
                return None
            v = self.xs[-1] + (t - ems[-1]) / sf
        else:
            sf = self.sfs[idx - 1]
            if sf <= 0.0:
                return self.xs[idx]
            # clamp into the segment: a denormal slope makes the division
            # overshoot even though the right knot already satisfies em >= t
            v = min(self.xs[idx - 1] + (t - ems[idx - 1]) / sf, self.xs[idx])
        if v > self.cap:
            if self.em_cap >= t - 1e-12 * max(1.0, t):
                return self.cap
            return None
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
        self.quantile = dist._quantile  # box_fill calls it only for 0 < s < 1
        self._last = [0.0, 0.0]  # the last low (index 0) and high (index 1) crossing
        super().__init__(dist, cap)

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

    def _lowest(self, t: float) -> Optional[float]:
        return None if self.em_cap < t else self._newton(t, False)

    def _highest(self, t: float) -> float:
        return self._newton(t, True)


def _curve(dist: DemandDistribution, cap: float) -> _Curve:
    """One group's curve on [0, cap]: knots where the law has a table, else smooth."""
    table = dist.expected_min_knots(float(cap))
    return _SmoothCurve(dist, cap) if table is None else _KnotCurve(dist, cap, table)


def _one_level_at_most(levels, a, b):
    """Whether the sorted lists hold at most one distinct value in [a, b)."""
    seen = None
    for cdfs in levels:
        i = bisect.bisect_left(cdfs, a)
        j = bisect.bisect_left(cdfs, b, i)
        if i == j:
            continue
        if cdfs[i] != cdfs[j - 1] or seen not in (None, cdfs[i]):
            return False
        seen = cdfs[i]
    return True


def _water_fill(curves, budget, lo, hi, known=(0.0, 1.0)):
    """Maximize sum of E[min(C_i, v_i)] s.t. sum v = budget, lo <= v <= hi.

    Bisects a common cdf level in [0, 1] until the levels sum to the budget
    within V_TOLERANCE, the bracket cannot shrink or BISECTION_STEPS halvings
    have run. When every curve has knots, each fill is constant between
    adjacent knot cdf levels, so the loop also stops once both bracket ends
    have been evaluated (the s = 0 and s = 1 ends are lo and hi, not fills)
    and [s_lo, s_hi) holds at most one distinct level: every later midpoint
    would repeat the allocation at one end, so the result is bit-identical
    to running on. Any residual sitting on a survival step is assigned
    greedily by ascending group index (utilization-equivalent on the flat
    segment).

    known = (known_lo, known_hi) are levels whose branch is already known:
    the fills sum below the budget (by more than V_TOLERANCE) at any level
    in (0, known_lo] and above it at any level in [known_hi, 1). A midpoint
    there takes its branch without evaluating the fills. When the known
    levels are right, each step moves the same end to the same dyadic
    midpoint as with the default (0, 1), which knows nothing. So the stuck
    test, the one-level test and the step count see the same bracket, a
    skipped midpoint could not have met the tolerance test, and the
    allocation, rebuilt from the fills at the final ends, is bit-identical.
    Returns (v, (s_lo, s_hi)): the allocation and the final bracket, whose
    ends carry the same facts for the caller to pass on.
    """
    feas_tol = max(V_TOLERANCE, 1e-9 * max(budget, 1.0))
    sum_lo, sum_hi = sum(lo), sum(hi)
    if sum_lo > budget + feas_tol or sum_hi < budget - feas_tol:
        raise InfeasibleError(
            f"box constraints cannot meet the budget: sum lo {sum_lo!r}, "
            f"sum hi {sum_hi!r}, budget {budget!r}"
        )
    fills = [c.box_fill(a, b) for c, a, b in zip(curves, lo, hi)]
    levels = [c.cdfs for c in curves] if all(isinstance(c, _KnotCurve) for c in curves) else None
    known_lo, known_hi = known
    s_lo, s_hi = 0.0, 1.0
    # the fills at s_lo and s_hi, or None when that end's branch was known
    v_low, v_high = list(lo), list(hi)
    for steps in range(1, BISECTION_STEPS + 1):
        s_mid = 0.5 * (s_lo + s_hi)
        # Once the midpoint rounds to an end, no double lies strictly between
        # the ends: this step re-evaluates that end and every later step would
        # repeat it. The step still runs because the s = 1.0 end (hi) has not
        # been checked against the budget yet.
        stuck = s_mid == s_lo or s_mid == s_hi
        if 0.0 < s_mid <= known_lo:
            s_lo, v_low = s_mid, None
        elif known_hi <= s_mid < 1.0:
            s_hi, v_high = s_mid, None
        else:
            v_mid = [fill(s_mid) for fill in fills]
            total = sum(v_mid)
            if abs(total - budget) <= V_TOLERANCE:
                v_low = v_mid
                break
            if total < budget:
                s_lo, v_low = s_mid, v_mid
            else:
                s_hi, v_high = s_mid, v_mid
        if stuck:
            break
        if (levels is not None and 0.0 < s_lo and s_hi < 1.0
                and _one_level_at_most(levels, s_lo, s_hi)):
            break
    if v_low is None:
        v_low = [fill(s_lo) for fill in fills]
    v = list(v_low)
    residual = budget - sum(v)
    if residual > 0.0:
        if v_high is None:
            v_high = [fill(s_hi) for fill in fills]
        for i in range(len(v)):
            head = v_high[i] - v[i]
            if head <= 0.0:
                continue
            add = min(residual, head)
            v[i] += add
            residual -= add
            if residual <= 0.0:
                break
    remaining = budget - sum(v)
    if remaining != 0.0:
        # signed dust: spread by index, allowing 1e-9 box overstep but never
        # a negative allocation
        for i in range(len(v)):
            if remaining == 0.0:
                break
            moved = min(max(v[i] + remaining, max(lo[i] - 1e-9, 0.0)), hi[i] + 1e-9)
            remaining -= moved - v[i]
            v[i] = moved
    if abs(sum(v) - budget) > feas_tol:
        raise ConvergenceError(
            f"water-filling missed the budget by {sum(v) - budget!r} "
            f"after {steps} bisection steps"
        )
    return v, (s_lo, s_hi)


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
        excess = budget - sum(sups)
        z = scenario.total_mean
        return Allocation(tuple(s + excess * m / z for s, m in zip(sups, scenario.means))), None
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
    water-filling. The best utilization is concave in ell, so one
    golden-section search over the whole interval finds the best floor.
    The result satisfies Q <= alpha + 1e-6 and sums to R within 1e-9 R.
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
    # widens each band by 2e-9 in availability, 500 times inside the
    # Q <= alpha + 1e-6 contract, which restores feasibility there. When
    # both passes fail, the error is the first pass's, at the requested alpha.
    try:
        best_v = _floor_sweep(curves, budget, alpha)
    except InfeasibleError as first:
        try:
            best_v = _floor_sweep(curves, budget, alpha + 2e-9)
        except InfeasibleError:
            raise first from None

    alloc = Allocation(tuple(best_v))
    gap = metrics.fairness(scenario, alloc)
    if gap > alpha + 1e-6:
        raise ConvergenceError(
            f"sweep result has fairness {gap!r} exceeding alpha={alpha!r} + 1e-6"
        )
    return alloc


def _feasible_floors(curves, budget, alpha):
    """(ell_min, ell_max, lows, highs): the floors whose boxes can meet the budget.

    lows(ell) are the least v reaching q = ell and highs(ell) the most v
    keeping q <= ell + alpha (no top once the band reaches 1); None marks a
    group that cannot meet its end of the band. Each floor's ends are
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
        lo = lows(ell)
        return math.inf if None in lo else sum(lo) - budget

    def hi_gap(ell):
        hi = highs(ell)
        return -math.inf if None in hi else sum(hi) - budget

    # Slopes of the sums in ell from the right: group i adds dv/dq at its end,
    # unless its end stays put there (at 0 below q_i(0), or at the cap).
    def lo_slope(ell):
        lo = lows(ell)
        if None in lo:
            return 0.0
        return sum(c.inverse_slope(v) for c, v in zip(curves, lo) if c.em0 <= ell * c.mu)

    def hi_slope(ell):
        hi = highs(ell)
        if None in hi:
            return 0.0
        return sum(c.inverse_slope(v) for c, v in zip(curves, hi) if v < c.cap)

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
    if ell_min > ell_max + 1e-9:
        raise InfeasibleError(
            f"no availability floor admits a feasible fairness band for alpha={alpha!r}"
        )
    return min(ell_min, ell_max), ell_max, lows, highs


def _floor_sweep(curves, budget, alpha):
    ell_min, ell_max, lows, highs = _feasible_floors(curves, budget, alpha)

    def solve(ell, known):
        lo, hi = lows(ell), list(highs(ell))
        if None in lo or None in hi:
            return None
        for i, (low, high) in enumerate(zip(lo, hi)):
            if high < low - 1e-9:
                return None
            hi[i] = max(high, low)
        try:
            v, bracket = _water_fill(curves, budget, lo, hi, known)
        except InfeasibleError:
            return None
        value = sum(c.em(x) for c, x in zip(curves, v))
        return value, v, bracket

    best_value, best_v = -math.inf, None
    brackets = {}  # final water-fill bracket of each feasible scored floor

    # Every box end is nondecreasing in ell, so at each cdf level s the fills'
    # total T_ell(s) is too. A level where a floor left of ell summed above
    # the budget sums above it at ell, and one where a floor right of ell
    # summed below sums below at ell: ell's fill inherits the s_hi of its left
    # neighbour and the s_lo of its right one. The neighbours are compared as
    # doubles, since close to the stop rounding can put a new point outside them,
    # and an inherited bracket that is empty (possible only where rounding
    # breaks the monotonicity) is dropped.
    def score(ell, left=None, right=None):
        nonlocal best_value, best_v
        known_lo, known_hi = 0.0, 1.0
        if left in brackets and left <= ell:
            known_hi = brackets[left][1]
        if right in brackets and right >= ell:
            known_lo = brackets[right][0]
        if known_lo >= known_hi:
            known_lo, known_hi = 0.0, 1.0
        result = solve(ell, (known_lo, known_hi))
        if result is None:
            return -math.inf
        value, v, brackets[ell] = result
        if value > best_value:
            best_value, best_v = value, v
        return value

    # Golden-section search over the whole interval: U*(ell), the utilization
    # solve(ell) reaches, is concave there. With g_i the inverse of q_i, convex
    # since q_i is concave and nondecreasing, solve(ell) equals max sum mu_i q_i
    # s.t. sum g_i(q_i) <= R, ell <= q_i <= ell + alpha (U is nondecreasing in
    # v, and every floor in the interval has sum(highs) >= R, so leftover budget
    # can be spent inside the boxes). That set is jointly convex in (q, ell) and
    # the objective is linear, so U* is concave. Both ends are scored first: a
    # float-degenerate interval can differ in feasibility at its two ends. The
    # stop is an absolute width, as where U* is flat the ties move the bracket
    # towards the dense doubles at 0.
    a, b = ell_min, ell_max
    score(a)
    score(b, a)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = score(c, a, b)
    fd = score(d, c, b)
    while b - a > 1e-15:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = score(c, a, d)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = score(d, c, b)
    if best_v is None:
        raise InfeasibleError(
            f"availability floor sweep found no feasible point in "
            f"[{ell_min!r}, {ell_max!r}] for alpha={alpha!r}"
        )
    return best_v


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
