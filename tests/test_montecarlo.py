import itertools
import math
import multiprocessing
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import ClassVar

import numpy as np
import pytest

from fairalloc import montecarlo
from fairalloc.allocation import mean_weighted
from fairalloc.distributions import (
    Binomial, Constant, Empirical, Exponential, Normal, Poisson, TwoPoint,
)
from fairalloc.metrics import Allocation, Group, Scenario, availability, utilization
from fairalloc.montecarlo import (
    CHUNK_SIZE,
    estimate_expected_min,
    estimate_report,
)
from oracles import mc_report_reference


def test_constant_estimate_is_exact_with_zero_error():
    est = estimate_expected_min(Constant(5.0), 3.0, samples=1000, seed=1)
    assert est.value == 3.0
    assert est.standard_error == 0.0
    assert est.samples == 1000


def test_two_point_estimate_matches_closed_form():
    est = estimate_expected_min(TwoPoint(10.0), 5.0, samples=1_000_000, seed=42)
    assert abs(est.value - 0.5) <= 4.0 * est.standard_error
    assert est.standard_error > 0.0


def test_normal_estimate_matches_closed_form():
    dist = Normal(100.0, 10.0)
    est = estimate_expected_min(dist, 100.0, samples=1_000_000, seed=42)
    exact = dist.expected_min(100.0)
    assert exact == pytest.approx(96.01057719598568, abs=1e-9)
    assert abs(est.value - exact) <= 4.0 * est.standard_error


def test_estimates_are_bit_reproducible():
    a = estimate_expected_min(Poisson(40.0), 35.0, samples=250_000, seed=7)
    b = estimate_expected_min(Poisson(40.0), 35.0, samples=250_000, seed=7)
    assert a == b
    c = estimate_expected_min(Poisson(40.0), 35.0, samples=250_000, seed=8)
    assert c.value != a.value


def test_partial_chunks_are_deterministic():
    n = CHUNK_SIZE + 333
    a = estimate_expected_min(Binomial(100, 0.3), 25.0, samples=n, seed=3)
    b = estimate_expected_min(Binomial(100, 0.3), 25.0, samples=n, seed=3)
    assert a == b
    assert a.samples == n


def test_standard_error_scales_as_inverse_sqrt_samples():
    dist = Poisson(100.0)
    ses = [
        estimate_expected_min(dist, 90.0, samples=n, seed=11).standard_error
        for n in (10_000, 100_000, 1_000_000)
    ]
    root_ten = math.sqrt(10.0)
    for bigger, smaller in zip(ses, ses[1:]):
        ratio = bigger / smaller
        assert root_ten / 2.0 <= ratio <= root_ten * 2.0


@pytest.mark.parametrize("v", [0.0, 5e-324, 1e-310])
def test_estimates_stay_finite_at_zero_and_subnormal_levels(v):
    # the draws are scaled by the power of two of shortfall_bound(v), not of
    # v, so a normal law's draws below zero, far larger than a subnormal v,
    # keep finite squares
    for dist in (Exponential(1e-300), Constant(1e-300), Normal(1.0, 1.0)):
        est = estimate_expected_min(dist, v, samples=1000, seed=1)
        assert math.isfinite(est.value) and math.isfinite(est.standard_error)
    assert estimate_expected_min(Normal(1.0, 1.0), v, samples=1000, seed=1).standard_error > 0.0


def test_overflowing_draws_are_rejected_by_name():
    # regression: Normal(1e308, 5.39e307) draws overflow to -inf and +inf,
    # and the estimate read -inf with a NaN standard error
    with pytest.raises(ValueError, match=r"draws of min\(C, 1e\+308\) overflow"):
        estimate_expected_min(Normal(1e308, 5.39e307), 1e308, samples=1000)


def test_sample_count_validation():
    with pytest.raises(ValueError):
        estimate_expected_min(Constant(5.0), 3.0, samples=99)
    with pytest.raises(ValueError):
        estimate_expected_min(Constant(5.0), 3.0, samples=10.5)
    with pytest.raises(ValueError):
        estimate_expected_min(Constant(5.0), -1.0, samples=1000)


def test_negative_seed_is_rejected_by_name():
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -3"):
        estimate_expected_min(Poisson(4.0), 3.0, samples=1000, seed=-3)
    sc = Scenario(resource=10.0, groups=(Group("a", Poisson(10.0)),))
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        estimate_report(sc, Allocation((10.0,)), samples=1000, seed=-1)
    with pytest.raises(ValueError, match=r"seed must be an integer"):
        estimate_expected_min(Poisson(4.0), 3.0, samples=1000, seed=1.5)


def test_report_constant_scenario_is_exact():
    sc = Scenario(resource=20.0, groups=(Group("a", Constant(10.0)), Group("b", Constant(30.0))))
    report = estimate_report(sc, Allocation((5.0, 15.0)), samples=1000, seed=1)
    assert report.utilization.value == 20.0
    assert report.utilization.standard_error == 0.0
    assert report.fairness.value == 0.0
    for g, want in zip(report.groups, (0.5, 0.5)):
        assert g.availability.value == want
        assert g.availability.standard_error == 0.0


def test_report_poisson_scenario_agrees_with_exact_metrics():
    sc = Scenario(
        resource=500.0,
        groups=tuple(Group(f"g{i}", Poisson(lam)) for i, lam in enumerate((200.0, 400.0, 400.0))),
    )
    alloc = Allocation((100.0, 200.0, 200.0))
    report = estimate_report(sc, alloc, samples=100_000, seed=42)
    exact_u = utilization(sc, alloc)
    # the 1e-12 floor covers SE = 0 cases where exact and sampled values
    # agree up to float dust (every draw exceeds the allocation)
    assert abs(report.utilization.value - exact_u) <= 4.0 * report.utilization.standard_error + 1e-12
    for group, v, g in zip(sc.groups, alloc.values, report.groups):
        exact_q = availability(group.dist, v)
        assert abs(g.availability.value - exact_q) <= 4.0 * g.availability.standard_error + 1e-12


def test_report_binomial_single_group():
    dist = Binomial(1000, 0.5)
    sc = Scenario(resource=450.0, groups=(Group("b", dist),))
    report = estimate_report(sc, Allocation((450.0,)), samples=1_000_000, seed=42)
    exact_q = availability(dist, 450.0)
    got = report.groups[0].availability
    assert abs(got.value - exact_q) <= 4.0 * got.standard_error


class _StreamLog(Constant):
    """A constant law that logs the state of every generator it draws from,
    and the thread that draws."""

    states: ClassVar[list] = []
    threads: ClassVar[list] = []

    def sample(self, rng, size=None):
        self.states.append(rng.bit_generator.state["state"]["state"])
        self.threads.append(threading.get_ident())
        return super().sample(rng, size)


def _report_streams(n_groups, samples, seed):
    """Per group, the initial generator state of each chunk an estimate_report draws."""
    _StreamLog.states = []
    sc = Scenario(resource=10.0 * n_groups,
                  groups=tuple(Group(f"g{i}", _StreamLog(10.0)) for i in range(n_groups)))
    estimate_report(sc, Allocation((10.0,) * n_groups), samples, seed)
    chunks = -(-samples // CHUNK_SIZE)
    return [_StreamLog.states[i * chunks:(i + 1) * chunks] for i in range(n_groups)]


def test_report_group_seeds_are_disjoint():
    first, second = _report_streams(2, 16 * CHUNK_SIZE, 42)
    assert len(first) == len(second) == 16
    assert len(set(first) | set(second)) == 32
    sc = Scenario(
        resource=200.0,
        groups=(Group("a", Poisson(100.0)), Group("b", Poisson(100.0))),
    )
    report = estimate_report(sc, Allocation((100.0, 100.0)), samples=10_000, seed=42)
    # identical distributions and levels, disjoint streams
    assert report.groups[0].expected_min.value != report.groups[1].expected_min.value


def test_neighbouring_seeds_share_no_chunk_stream():
    # seeding chunk j with seed + j would make seeds 42 and 43 share 15 of
    # their 16 chunks at 1M samples
    streams = [state for seed in (42, 43) for group in _report_streams(2, 1_000_000, seed)
               for state in group]
    assert len(streams) == 64
    assert len(set(streams)) == 64


def test_report_to_dict_round_trip_fields():
    sc = Scenario(resource=10.0, groups=(Group("a", Poisson(10.0)),))
    report = estimate_report(sc, Allocation((10.0,)), samples=1000, seed=5)
    payload = report.to_dict()
    assert payload["samples"] == 1000
    assert payload["seed"] == 5
    assert payload["groups"][0]["expected_min"]["samples"] == 1000


FAMILY_PAIRS = [
    (Constant(30.0), Constant(50.0)),
    (TwoPoint(10.0), TwoPoint(4.0)),
    (Binomial(100, 0.3), Binomial(60, 0.5)),
    (Poisson(40.0), Poisson(25.0)),
    (Normal(100.0, 10.0), Normal(50.0, 12.0)),
    (Exponential(12.0), Exponential(30.0)),
    (Empirical((0.0, 3.0, 7.5, 20.0), (0.1, 0.4, 0.3, 0.2)), Empirical((1.0, 9.0), (0.5, 0.5))),
]


def _pair_scenario(dists):
    groups = (Group("a", dists[0]), Group("b", dists[1]))
    sc = Scenario(resource=0.9 * sum(d.mean() for d in dists), groups=groups)
    return sc, mean_weighted(sc)


@pytest.mark.parametrize("dists", FAMILY_PAIRS, ids=lambda dists: dists[0].kind)
def test_report_over_several_chunks_matches_a_plain_chunk_loop(dists):
    # 3 full chunks and a partial one per group: pins the chunk streams and the
    # order in which chunk sums are combined, which one-chunk reports do not
    samples = 3 * CHUNK_SIZE + 333
    sc, alloc = _pair_scenario(dists)
    report = estimate_report(sc, alloc, samples, seed=5)
    assert report.to_dict() == mc_report_reference(sc, alloc.values, samples, 5, CHUNK_SIZE)


def _use_cpus(monkeypatch, cpus):
    """Make the estimators see ``cpus`` usable CPUs; returns the list of the
    helper counts of the thread pools they make."""
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    return pools


CPU_COUNTS = (1, 2, 3, 8)
EMPIRICAL_4000 = Empirical(tuple(np.linspace(0.0, 400.0, 4000).tolist()),
                           tuple((np.arange(1.0, 4001.0) / 8_002_000.0).tolist()))


@pytest.mark.parametrize("cpus", CPU_COUNTS)
@pytest.mark.parametrize("dists", FAMILY_PAIRS + [(EMPIRICAL_4000, Poisson(25.0))],
                         ids=[dists[0].kind for dists in FAMILY_PAIRS] + ["empirical4000"])
def test_every_worker_count_gives_the_plain_chunk_loop_bits(monkeypatch, cpus, dists):
    pools = _use_cpus(monkeypatch, cpus)
    sc, alloc = _pair_scenario(dists)
    threads = threading.active_count()
    # 4 chunks per group, then one partial chunk, which runs on this thread
    # alone; the first chunk runs before the helpers start, so 3 are shared
    for samples, chunks in ((3 * CHUNK_SIZE + 333, 4), (CHUNK_SIZE - 1, 1)):
        pools.clear()
        want = mc_report_reference(sc, alloc.values, samples, 5, CHUNK_SIZE)
        assert estimate_report(sc, alloc, samples, seed=5).to_dict() == want
        assert threading.active_count() == threads
        for index, (group, v) in enumerate(zip(sc.groups, alloc.values)):
            est = estimate_expected_min(group.dist, v, samples, 5, index)
            assert est.to_dict() == want["groups"][index]["expected_min"]
            assert threading.active_count() == threads
        helpers = min(cpus, chunks - 1) - 1
        assert pools == ([helpers] * 4 if helpers > 0 else [])


def test_eight_workers_on_a_fast_switch_draw_each_chunk_once(monkeypatch):
    # more threads than cores, switching every microsecond: a chunk taken
    # twice or lost would show as a repeated or missing stream
    _use_cpus(monkeypatch, 8)
    chunks = 16
    _StreamLog.states = []
    _StreamLog.threads = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = estimate_expected_min(_StreamLog(10.0), 7.0, chunks * CHUNK_SIZE, seed=4)
    finally:
        sys.setswitchinterval(interval)
    assert len(_StreamLog.states) == len(set(_StreamLog.states)) == chunks
    assert est.value == 7.0 and est.standard_error == 0.0
    # the first draw, which builds a table law's guide table, is this thread's
    assert _StreamLog.threads[0] == threading.get_ident()
    assert len(set(_StreamLog.threads)) > 1


class _FailingLaw(Constant):
    """A constant law whose second draw raises, and keeps the exception."""

    calls: ClassVar = itertools.count()
    raised: ClassVar[list] = []

    def sample(self, rng, size=None):
        if next(self.calls) == 1:
            error = RuntimeError("second draw failed")
            self.raised.append(error)
            raise error
        return super().sample(rng, size)


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_a_failing_chunk_raises_in_the_caller_and_no_chunk_starts_after_it(monkeypatch, cpus):
    _use_cpus(monkeypatch, cpus)
    _FailingLaw.calls = itertools.count()
    _FailingLaw.raised = []
    threads = threading.active_count()
    chunks = 40
    with pytest.raises(RuntimeError) as caught:
        estimate_expected_min(_FailingLaw(10.0), 10.0, chunks * CHUNK_SIZE, seed=3)
    assert _FailingLaw.raised == [caught.value]
    assert threading.active_count() == threads
    # each other thread may finish its chunk in flight, and may have taken one
    # more in the moment before the failure is marked
    assert next(_FailingLaw.calls) <= 2 * min(cpus, chunks)


def _estimate_in_child(conn, dist, v, samples):
    conn.send(estimate_expected_min(dist, v, samples, seed=9))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_child_forked_after_an_estimate_gets_the_same_estimate(monkeypatch):
    _use_cpus(monkeypatch, 2)
    dist, v, samples = Poisson(40.0), 35.0, 3 * CHUNK_SIZE + 333
    parent = estimate_expected_min(dist, v, samples, seed=9)
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_estimate_in_child, args=(send, dist, v, samples))
    child.start()
    try:
        assert receive.poll(60), "the forked child sent no estimate"
        assert receive.recv() == parent
    finally:
        child.join(60)
    assert child.exitcode == 0
