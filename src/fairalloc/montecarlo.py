"""Seeded Monte Carlo estimators.

These serve as the independent oracle for every closed-form expectation:
estimates carry a standard error, are bit-reproducible for a fixed seed, and
are chunked so the merged result does not depend on how chunks are executed.
Chunk j of group i draws from a generator seeded with
``SeedSequence(seed, spawn_key=(i, j))``, the same stream as
``SeedSequence(seed).spawn(...)[i].spawn(...)[j]``, so no two groups, chunks
or seeds share a stream (a single estimate is group 0). The number of chunks
is fixed by the sample count alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .distributions import DemandDistribution
from .metrics import Allocation, Scenario, check_allocation

CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    value: float
    standard_error: float
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _check_samples(samples: int) -> int:
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    return int(samples)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return int(seed)


def estimate_expected_min(
    dist: DemandDistribution, v: float, samples: int, seed: int = 42, group: int = 0
) -> McEstimate:
    """Sample mean of min(draw, v) with its standard error, from group ``group``'s streams."""
    samples = _check_samples(samples)
    seed = _check_seed(seed)
    v = float(v)
    if not math.isfinite(v) or v < 0.0:
        raise ValueError(f"resource level must be a finite nonnegative real, got {v!r}")
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    buffer = np.empty(min(CHUNK_SIZE, samples))
    while done < samples:
        count = min(CHUNK_SIZE, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(group, chunk_index)))
        clipped = np.minimum(dist.sample(rng, count), v, out=buffer[:count])
        total += float(clipped.sum())
        total_sq += float(np.multiply(clipped, clipped, out=clipped).sum())
        done += count
        chunk_index += 1
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return McEstimate(
        value=mean,
        standard_error=math.sqrt(variance / samples),
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
    """Sampled counterpart of an exact evaluation, with combined errors."""

    groups: tuple
    utilization: McEstimate
    fairness: McEstimate
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_report(
    scenario: Scenario, alloc: Allocation, samples: int, seed: int = 42
) -> McReport:
    """Per-group availability and total utilization by sampling.

    Group i draws from its own streams, keyed on (i, chunk) under the one
    seed, so the whole report is reproducible and group estimates stay
    independent.
    """
    samples = _check_samples(samples)
    seed = _check_seed(seed)
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
    util_se = math.sqrt(sum(g.expected_min.standard_error ** 2 for g in groups))
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
