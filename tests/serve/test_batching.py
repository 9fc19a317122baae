"""Scheduler unit tests: pure discrete-event logic, no SPMD job."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.serve import BatchPolicy, REJECTED, SCORED, run_schedule
from repro.serve.batching import CACHE_HIT


def fixed_service(duration):
    """A dispatch stub taking ``duration`` simulated seconds per slab."""
    calls = []

    def dispatch(ids, t):
        calls.append((list(ids), t))
        return t + duration

    dispatch.calls = calls
    return dispatch


def test_size_trigger_full_batches():
    # 8 requests at t=0, max_batch 4 -> two slabs of 4, back to back
    d = fixed_service(1.0)
    sched = run_schedule(np.zeros(8), BatchPolicy(max_batch=4, max_delay=0.0), d)
    assert [ids for ids, _ in d.calls] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert [t for _, t in d.calls] == [0.0, 1.0]
    assert np.all(sched.status == SCORED)
    assert np.array_equal(sched.completion, [1.0] * 4 + [2.0] * 4)


def test_delay_trigger_waits_for_stragglers():
    # second request lands inside the delay window and joins the slab
    arrivals = np.array([0.0, 0.3, 5.0])
    d = fixed_service(0.1)
    run_schedule(arrivals, BatchPolicy(max_batch=4, max_delay=0.5), d)
    assert [ids for ids, _ in d.calls] == [[0, 1], [2]]
    assert d.calls[0][1] == pytest.approx(0.5)  # 0.0 + max_delay
    assert d.calls[1][1] == pytest.approx(5.5)


def test_zero_delay_dispatches_immediately():
    arrivals = np.array([0.0, 0.0, 0.05])
    d = fixed_service(0.1)
    run_schedule(arrivals, BatchPolicy(max_batch=8, max_delay=0.0), d)
    # first slab fires at t=0 with both queued requests; the third
    # arrives mid-service and goes out alone once the scorer frees up
    assert [ids for ids, _ in d.calls] == [[0, 1], [2]]
    assert d.calls[1][1] == pytest.approx(0.1)


def test_infinite_delay_drains_leftovers():
    # 6 requests, max_batch 4, never a delay trigger: the trailing 2
    # must still flush once the stream is exhausted
    d = fixed_service(1.0)
    sched = run_schedule(
        np.zeros(6), BatchPolicy(max_batch=4, max_delay=math.inf), d
    )
    assert [len(ids) for ids, _ in d.calls] == [4, 2]
    assert np.all(sched.status == SCORED)


def test_backpressure_rejects_excess_burst():
    d = fixed_service(1.0)
    sched = run_schedule(
        np.zeros(10), BatchPolicy(max_batch=4, max_delay=0.0, max_queue=4), d
    )
    assert int((sched.status == REJECTED).sum()) == 6
    assert int((sched.status == SCORED).sum()) == 4
    assert np.all(np.isnan(sched.completion[sched.status == REJECTED]))
    assert sched.peak_queue_depth == 4


def test_queue_frees_up_after_dispatch():
    # queue bound 2: burst of 3 drops one, but a later arrival (after
    # the first slab drained the queue) is admitted again
    arrivals = np.array([0.0, 0.0, 0.0, 5.0])
    d = fixed_service(1.0)
    sched = run_schedule(
        arrivals, BatchPolicy(max_batch=2, max_delay=0.0, max_queue=2), d
    )
    assert sched.status.tolist() == [SCORED, SCORED, REJECTED, SCORED]


def test_admit_hook_bypasses_queue():
    hits = {1, 3}
    d = fixed_service(1.0)
    sched = run_schedule(
        np.zeros(5),
        BatchPolicy(max_batch=8, max_delay=0.0),
        d,
        admit=lambda i, t: i in hits,
    )
    assert sched.status.tolist() == [
        SCORED, CACHE_HIT, SCORED, CACHE_HIT, SCORED,
    ]
    # hits complete instantly at their arrival time
    assert sched.completion[1] == 0.0 and sched.completion[3] == 0.0
    assert [ids for ids, _ in d.calls] == [[0, 2, 4]]


def test_rejects_unsorted_and_negative_arrivals():
    d = fixed_service(1.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        run_schedule(np.array([1.0, 0.5]), BatchPolicy(), d)
    with pytest.raises(ValueError, match=">= 0"):
        run_schedule(np.array([-1.0, 0.5]), BatchPolicy(), d)
    with pytest.raises(ValueError, match="empty"):
        run_schedule(np.array([]), BatchPolicy(), d)
    # a NaN slipped past the ordering checks and dispatched empty slabs
    # at t=inf forever
    for bad in ([0.0, np.nan, 1e-3], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            run_schedule(np.array(bad), BatchPolicy(), d)


def test_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy(max_batch=0)
    with pytest.raises(ValueError):
        BatchPolicy(max_delay=-1.0)
    with pytest.raises(ValueError, match="max_delay"):
        BatchPolicy(max_delay=float("nan"))
    with pytest.raises(ValueError):
        BatchPolicy(max_queue=0)
    assert BatchPolicy(max_delay=math.inf).max_delay == math.inf


def test_dispatch_must_not_travel_back_in_time():
    def bad(ids, t):
        return t - 0.5

    with pytest.raises(ValueError, match="before dispatch"):
        run_schedule(np.zeros(2), BatchPolicy(max_batch=2), bad)
