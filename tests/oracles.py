"""Independent oracles for the test suite.

Everything here recomputes expectations from first principles (explicit pmf
summation, high-precision arithmetic, quadrature) without touching the
library's closed forms, so agreement is meaningful.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import bdtr, bdtrc, pdtr, pdtrc


def binomial_pmf_fractions(n, p_frac):
    """Exact binomial pmf as Fractions; p_frac must be a Fraction."""
    q = 1 - p_frac
    return [
        Fraction(math.comb(n, k)) * p_frac**k * q ** (n - k) for k in range(n + 1)
    ]


def poisson_pmf_array(lam, top):
    """Poisson pmf for 0..top via log-space lgamma (stable for large lam)."""
    ks = np.arange(top + 1)
    logs = -lam + ks * math.log(lam) - np.array([math.lgamma(k + 1.0) for k in ks])
    return np.exp(logs)


def binomial_pmf_array(n, p, top=None):
    top = n if top is None else min(top, n)
    ks = np.arange(top + 1)
    logs = (
        np.array([math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0) for k in ks])
        + ks * math.log(p)
        + (n - ks) * math.log1p(-p)
    )
    return np.exp(logs)


def discrete_atoms(dist):
    """(values, probabilities) arrays covering >= 1 - 1e-13 of any atom-supported law."""
    kind = dist.kind
    if kind == "constant":
        return np.array([dist.c]), np.array([1.0])
    if kind == "two_point":
        return np.array([0.0, dist.k]), np.array([(dist.k - 1.0) / dist.k, 1.0 / dist.k])
    if kind == "empirical":
        return np.array(dist.values), np.array(dist.probabilities)
    if kind == "binomial":
        return np.arange(dist.n + 1, dtype=float), binomial_pmf_array(dist.n, dist.p)
    if kind == "poisson":
        top = int(dist.lam + 12.0 * math.sqrt(dist.lam) + 30.0)
        return np.arange(top + 1, dtype=float), poisson_pmf_array(dist.lam, top)
    raise ValueError(f"{kind} is not atom-supported")


def atom_law_closed_forms(dist, x, p):
    """(cdf(x), survival(x), quantile(p), support top) of a Constant or TwoPoint, piecewise."""
    if dist.kind == "constant":
        c = dist.c
        return (1.0 if x >= c else 0.0, 0.0 if x >= c else 1.0, c, c)
    k = dist.k
    low = (k - 1.0) / k
    cdf = 0.0 if x < 0.0 else low if x < k else 1.0
    sf = 1.0 if x < 0.0 else 1.0 / k if x < k else 0.0
    return (cdf, sf, 0.0 if p <= low else k, k)


def lattice_knots_to_cap(dist, cap):
    """Binomial or Poisson knot table at every integer up to ceil(cap), clipped
    to the support, the way it was tabulated before tables ended at the law's
    tail.

    The same elementwise scipy calls as the library, so a table that ends at
    the tail must be an exact prefix of this one. Below each knot k, sum_{x<k}
    x pmf(x) = mean Pr[X' <= k - 1], with X' ~ Bin(n - 1, p) or Poi(lam).
    """
    if dist.kind == "binomial":
        n, p = dist.n, dist.p
        ks = np.arange(min(math.ceil(cap), n) + 1, dtype=float)
        cdfs, sfs, below = bdtr(ks, n, p), bdtrc(ks, n, p), bdtr(ks - 1.0, n - 1, p)
        mean = n * p
    else:
        lam = mean = dist.lam
        ks = np.arange(math.ceil(cap) + 1, dtype=float)
        cdfs, sfs, below = pdtr(ks, lam), pdtrc(ks, lam), pdtr(ks - 1.0, lam)
    below[0] = 0.0
    ems = mean * below + ks * sfs
    return ks.tolist(), cdfs.tolist(), sfs.tolist(), ems.tolist()


def expected_min_brute(values, probs, v):
    """Direct sum of min(x, v) pmf(x) over the (truncated) support."""
    return float(np.minimum(values, v) @ probs)


def atom_expected_min_exact(dist, v):
    """E[min(C, v)] of a Constant, TwoPoint or Empirical law as an exact Fraction.

    Summed over the law's stored atoms and probabilities, with TwoPoint's
    1/k at k exact rather than rounded. An Empirical law's terms p min(x, v)
    are products of doubles, num / 2**k each, so they are summed as integers
    over the largest 2**k: exact, and far faster than adding Fractions.
    """
    if dist.kind == "constant":
        return Fraction(min(dist.c, v))
    if dist.kind == "two_point":
        return Fraction(min(dist.k, v)) / Fraction(dist.k)
    terms = []
    for x, p in zip(dist.values, dist.probabilities):
        num_x, den_x = min(x, v).as_integer_ratio()
        num_p, den_p = p.as_integer_ratio()
        terms.append((num_x * num_p, (den_x * den_p).bit_length() - 1))
    top = max(k for _, k in terms)
    return Fraction(sum(num << (top - k) for num, k in terms), 1 << top)


def expected_min_quad(dist, v):
    """Quadrature oracle for smooth laws, integrating min(x, v) f(x) dx."""
    if dist.kind == "normal":
        mu, sigma = dist.mu, dist.sigma

        def integrand(x):
            z = (x - mu) / sigma
            return min(x, v) * math.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))

        lo, hi = mu - 12 * sigma, mu + 12 * sigma
    elif dist.kind == "exponential":
        m = dist.mean_value

        def integrand(x):
            return min(x, v) * math.exp(-x / m) / m

        lo, hi = 0.0, m * 40.0
    else:
        raise ValueError(f"{dist.kind} has no quadrature oracle")
    value, _ = quad(integrand, lo, hi, points=[v] if lo < v < hi else None, limit=200)
    return value


def mp_poisson_cdf(lam, k):
    """High-precision Pr[Poisson(lam) <= k] by direct summation."""
    with mp.workdps(50):
        lam_mp = mp.mpf(lam)
        total = mp.mpf(0)
        term = mp.e ** (-lam_mp)
        for x in range(int(k) + 1):
            if x > 0:
                term = term * lam_mp / x
            total += term
        return float(total)


def cdf_brute(values, probs, x):
    return float(probs[values <= x].sum())


def bisect_bracket(pred, a, b, steps):
    """Final bracket (a, b) of halving [a, b] around the point where pred turns true.

    pred(a) must be false and pred(b) true. This is the loop the smooth-law
    box inverses and the floor interval's ends ran before they took Newton
    steps: ``steps`` halvings, or fewer once no double lies strictly between
    the ends.
    """
    for _ in range(steps):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if pred(m):
            b = m
        else:
            a = m
    return a, b


def floor_interval_bisect(curves, budget, alpha, steps):
    """(ell_min, ell_max) of the alpha-fair floor sweep, or None when it is empty.

    Bisects each end over [q0, 1] with ``bisect_bracket``, inverting every
    group's box afresh at each point, as the sweep did before it took Newton
    steps on the sums of the box ends.
    """
    def lows(ell):
        return [c.lowest_v_with_q_at_least(ell) for c in curves]

    def highs(ell):
        band_top = ell + alpha
        if band_top >= 1.0:
            return [budget] * len(curves)
        return [c.highest_v_with_q_at_most(band_top) for c in curves]

    def lo_fits(ell):
        lo = lows(ell)
        return None not in lo and sum(lo) <= budget

    def hi_reaches(ell):
        hi = highs(ell)
        return None not in hi and sum(hi) >= budget

    q0 = min(c.em0 / c.mu for c in curves)
    if lo_fits(1.0):
        ell_max = 1.0
    else:
        ell_max = bisect_bracket(lambda ell: not lo_fits(ell), q0, 1.0, steps)[0]
    if hi_reaches(q0):
        ell_min = q0
    else:
        ell_min = bisect_bracket(hi_reaches, q0, 1.0, steps)[1]
    if ell_min > ell_max + 1e-9:
        return None
    return min(ell_min, ell_max), ell_max


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_search(score, a, b):
    """Golden-section search for the best floor in [a, b] by the scores' values.

    The stop is an absolute width, as where U* is flat the ties move the
    bracket towards the dense doubles at 0.
    """
    score(a)
    score(b)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = score(c)
    fd = score(d)
    while b - a > 1e-15:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = score(d)


def water_fill_full_loop(curves, budget, lo, hi, tol):
    """The clamped water-fill by plain halving, with no jump over a stretch.

    Halves the cdf level from [0, 1] until the fills meet the budget within
    tol or no double lies between the ends, then evaluates that end (hi at
    level 1). Uses each curve's ``box_fill`` for the fill values only, and
    assigns the residual and the dust as the library does for knot fills, in
    index order, so only the moves of the bracket differ from ``_water_fill``
    there.
    Returns (v, (s_lo, s_hi)): the allocation and the final bracket.
    """
    fills = [c.box_fill(a, b) for c, a, b in zip(curves, lo, hi)]
    s_lo, s_hi = 0.0, 1.0
    v_low, v_high = list(lo), list(hi)
    while True:
        s_mid = 0.5 * (s_lo + s_hi)
        stuck = s_mid == s_lo or s_mid == s_hi
        v_mid = list(hi) if s_mid == 1.0 else [fill(s_mid)[0] for fill in fills]
        total = sum(v_mid)
        if abs(total - budget) <= tol:
            v_low = v_mid
            break
        if total < budget:
            s_lo, v_low = s_mid, v_mid
        else:
            s_hi, v_high = s_mid, v_mid
        if stuck:
            break
    v = list(v_low)
    residual = budget - sum(v)
    if residual > 0.0:
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
    for slack in (0.0, tol):
        for i in range(len(v)):
            if remaining == 0.0:
                break
            moved = min(max(v[i] + remaining, max(lo[i] - slack, 0.0)), hi[i] + slack)
            remaining -= moved - v[i]
            v[i] = moved
    return v, (s_lo, s_hi)


def guide_table_by_search(cdf, values):
    """A guide table's ``(guide, single)`` by binary search over its 2**j bucket edges.

    ``first[b]`` counts the cdf points <= b / 2**j and ``inside[b]`` those
    strictly between b / 2**j and (b + 1) / 2**j. guide[b] is the value at
    first[b] where no point is inside, else NaN; single[b] is first[b]
    where exactly one point is inside, else -1.
    """
    buckets = 1 << (cdf.size.bit_length() + 4)
    edges = np.arange(buckets + 1) / buckets
    first = cdf.searchsorted(edges[:-1], side="right")
    inside = cdf.searchsorted(edges[1:], side="left") - first
    guide = np.where(inside > 0, np.nan, values[first])
    return guide, np.where(inside == 1, first, -1)


def mc_report_reference(scenario, values, samples, seed, chunk_size):
    """``estimate_report(...).to_dict()`` by a plain loop over the chunks.

    Group i draws chunk j from the j-th child of the i-th child of
    ``SeedSequence(seed)``, spawned as a tree. Chunk j holds ``chunk_size``
    draws (the last one the rest), and its sum and sum of squares of
    min(C, v) are added to the group's running totals in chunk order.
    ``groups`` is a tuple, as ``dataclasses.asdict`` leaves it.
    """
    chunks = -(-samples // chunk_size)

    def estimate(value, se):
        return {"value": value, "standard_error": se, "samples": samples, "seed": seed}

    groups = []
    group_seeds = np.random.SeedSequence(seed).spawn(len(values))
    for group, v, group_seed in zip(scenario.groups, values, group_seeds):
        total = total_sq = 0.0
        for j, chunk_seed in enumerate(group_seed.spawn(chunks)):
            count = min(chunk_size, samples - j * chunk_size)
            clipped = np.minimum(group.dist.sample(np.random.default_rng(chunk_seed), count), v)
            total += float(clipped.sum())
            total_sq += float((clipped * clipped).sum())
        mean = total / samples
        se = math.sqrt(max(total_sq - samples * mean * mean, 0.0) / (samples - 1) / samples)
        mu = group.dist.mean()
        groups.append({
            "name": group.name,
            "allocation": v,
            "expected_min": estimate(mean, se),
            "availability": estimate(mean / mu, se / mu),
        })
    qs = [g["availability"] for g in groups]
    top = max(qs, key=lambda e: e["value"])
    bottom = min(qs, key=lambda e: e["value"])
    return {
        "groups": tuple(groups),
        "utilization": estimate(
            sum(g["expected_min"]["value"] for g in groups),
            math.sqrt(sum(g["expected_min"]["standard_error"] ** 2 for g in groups)),
        ),
        "fairness": estimate(
            top["value"] - bottom["value"],
            math.hypot(top["standard_error"], bottom["standard_error"]),
        ),
        "samples": samples,
        "seed": seed,
    }


def csv_cell(value) -> str:
    """One CSV cell: 17 significant digits for floats, true/false, empty for None,
    and RFC 4180 quotes (inner quotes doubled) around text holding , " CR or LF."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv_rowwise(rows, columns) -> str:
    """``rows_to_csv`` written row by row: each row's cells formatted and joined in turn."""
    lines = [",".join(map(csv_cell, columns))]
    for row in rows:
        lines.append(",".join(csv_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"
