"""Seeded Monte Carlo estimators.

These serve as the independent oracle for every closed-form expectation:
estimates carry a standard error, are bit-reproducible for a fixed seed, and
are chunked so the merged result does not depend on how chunks are executed.
Chunk j of group i draws from a generator seeded with
``SeedSequence(seed, spawn_key=(i, j))``, the same stream as
``SeedSequence(seed).spawn(...)[i].spawn(...)[j]``, so no two groups, chunks
or seeds share a stream (a single estimate is group 0). The number of chunks
is fixed by the sample count alone.

An estimate runs its first chunk on the calling thread, and the rest there
and on up to cpus - 1 helper threads, made for that call and joined before
it returns; numpy releases the GIL inside the generators and the ufuncs,
where the time goes. Each chunk's sums are added in chunk order, so an
estimate has the same bits for any number of threads (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).
"""

from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import DemandDistribution
from .metrics import Allocation, Scenario, check_allocation

CHUNK_SIZE = 1 << 16
DEFAULT_SEED = 42


@dataclass(frozen=True)
class McEstimate:
    value: float
    standard_error: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def check_samples(samples: int) -> int:
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    return int(samples)


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return int(seed)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(job, chunks: int) -> list:
    """``[job(j) for j in range(chunks)]``, on this thread plus up to cpus - 1 helpers.

    The first chunk runs here before any helper starts, so a law builds
    what it makes on its first draw (a table law's guide table) once, on
    this thread. A helper's malloc arena would keep the pages of those
    arrays after the helper ends: about 5 MB per arena against 2 MB for
    chunk arrays alone, after a pass of the benchmark's CLI calls. The rest
    go to this thread and the helpers, each taking the next chunk index from
    one shared iterator; an idle caller would add one more arena for
    nothing. After an exception in any chunk, no thread starts another, and
    the exception is raised here once the helpers are joined.
    """
    results = [job(0)]
    workers = min(_usable_cpus(), chunks - 1)
    if workers <= 1:
        return results + [job(j) for j in range(1, chunks)]
    results += [None] * (chunks - 1)
    indices = iter(range(1, chunks))
    lock = threading.Lock()
    failed = threading.Event()

    def work():
        while not failed.is_set():
            with lock:
                j = next(indices, None)
            if j is None:
                return
            try:
                results[j] = job(j)
            except BaseException:
                failed.set()
                raise

    # leaving the block joins the helpers, also when this thread's chunk raised
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
        for helper in helpers:
            helper.result()
    return results


def estimate_expected_min(
    dist: DemandDistribution, v: float, samples: int, seed: int = DEFAULT_SEED, group: int = 0
) -> McEstimate:
    """Sample mean of min(draw, v) with its standard error, from group ``group``'s streams.

    The draws are summed and squared after scaling by the power of two of
    ``shortfall_bound(v)`` (v on laws with C >= 0), so the squares stay in
    range at any unit of demand. That scaling is exact for normal doubles,
    so no bit moves wherever the raw squares were in range. Raises
    ValueError when the draws overflow, so that the sum or the sum of
    squares is not finite.

    The first chunk runs on this thread, and the rest there and on up to
    cpus - 1 helper threads. Their sums are added in chunk order, so the
    estimate has the same bits for any thread count. Each helper holds
    about one chunk's arrays.
    """
    samples = check_samples(samples)
    seed = check_seed(seed)
    v = float(v)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"resource level must be a finite nonnegative real, got {v!r}")
    exp = max(math.frexp(dist.shortfall_bound(v))[1], sys.float_info.min_exp)
    scale = math.ldexp(1.0, -exp)

    def chunk_sums(j):
        count = min(CHUNK_SIZE, samples - j * CHUNK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(group, j)))
        clipped = np.minimum(dist.sample(rng, count), v)
        np.multiply(clipped, scale, out=clipped)
        return float(clipped.sum()), float(np.multiply(clipped, clipped, out=clipped).sum())

    total = 0.0
    total_sq = 0.0
    for s, sq in _run_chunks(chunk_sums, -(-samples // CHUNK_SIZE)):
        total += s
        total_sq += sq
    if not (math.isfinite(total) and math.isfinite(total_sq)):
        raise ValueError(
            f"Monte Carlo draws of min(C, {v!r}) overflow: their scaled sum is {total!r} "
            f"and sum of squares {total_sq!r}"
        )
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return McEstimate(
        value=math.ldexp(mean, exp),
        standard_error=math.ldexp(math.sqrt(variance / samples), exp),
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class McGroupReport:
    name: str
    allocation: float
    expected_min: McEstimate
    availability: McEstimate

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class McReport:
    """Sampled counterpart of an exact evaluation, with combined errors.

    The fairness standard error is a heuristic: it combines the errors of
    the groups with the highest and the lowest sampled availability as if
    those two groups had not been selected by their estimates.
    """

    groups: tuple
    utilization: McEstimate
    fairness: McEstimate
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_report(
    scenario: Scenario, alloc: Allocation, samples: int, seed: int = DEFAULT_SEED
) -> McReport:
    """Per-group availability and total utilization by sampling.

    Group i draws from its own streams, keyed on (i, chunk) under the one
    seed, so the whole report is reproducible and group estimates stay
    independent.
    """
    samples = check_samples(samples)
    seed = check_seed(seed)
    check_allocation(scenario, alloc)
    groups = []
    for index, (group, v) in enumerate(zip(scenario.groups, alloc.values)):
        est = estimate_expected_min(group.dist, v, samples, seed, index)
        mu = group.dist.mean()
        groups.append(
            McGroupReport(
                name=group.name,
                allocation=v,
                expected_min=est,
                availability=McEstimate(
                    value=est.value / mu,
                    standard_error=est.standard_error / mu,
                    samples=samples,
                    seed=seed,
                ),
            )
        )
    util_value = sum(g.expected_min.value for g in groups)
    # summed after scaling by the largest SE's power of two, which keeps the
    # squares in range (math.hypot would round differently)
    ses = [g.expected_min.standard_error for g in groups]
    exp = math.frexp(max(ses))[1]
    util_se = math.ldexp(math.sqrt(sum(math.ldexp(se, -exp) ** 2 for se in ses)), exp)
    qs = [g.availability for g in groups]
    top = max(qs, key=lambda e: e.value)
    bottom = min(qs, key=lambda e: e.value)
    return McReport(
        groups=tuple(groups),
        utilization=McEstimate(util_value, util_se, samples, seed),
        fairness=McEstimate(
            top.value - bottom.value,
            math.hypot(top.standard_error, bottom.standard_error),
            samples,
            seed,
        ),
        samples=samples,
        seed=seed,
    )
