"""Deterministic request-load generation for the serving subsystem.

A serving workload is a pair ``(X_requests, arrivals)``: one CSR row per
single-row score request plus a nondecreasing array of simulated-clock
arrival times (seconds).  Everything here is seeded and reproducible —
the arrival stream is part of the experiment definition, exactly like a
dataset.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix


def burst_arrivals(n: int) -> np.ndarray:
    """All ``n`` requests arrive at t=0 — the saturation workload.

    This is the load that isolates scorer throughput: the queue is full
    from the first instant, so the session makespan measures processing,
    not the arrival span.
    """
    if n < 1:
        raise ValueError(f"need at least one request, got {n}")
    return np.zeros(n)


def poisson_arrivals(n: int, rate: float, *, seed: int = 0) -> np.ndarray:
    """Open-loop Poisson arrivals: ``n`` requests at ``rate`` per second.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate``,
    drawn from a seeded generator; the stream starts at t=0.
    """
    if n < 1:
        raise ValueError(f"need at least one request, got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n)
    gaps[0] = 0.0
    return np.cumsum(gaps)


def uniform_arrivals(n: int, rate: float) -> np.ndarray:
    """Evenly spaced arrivals at ``rate`` per second, starting at t=0."""
    if n < 1:
        raise ValueError(f"need at least one request, got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return np.arange(n) / rate


def sample_requests(
    pool: CSRMatrix,
    n: int,
    *,
    seed: int = 0,
    duplicate_fraction: float = 0.0,
) -> CSRMatrix:
    """Draw ``n`` request rows from a pool of candidate samples.

    ``duplicate_fraction`` of the requests (rounded down) repeat an
    earlier request's row — the repeated-query traffic that a result
    cache absorbs.  Row order is shuffled so duplicates interleave with
    first appearances.  Deterministic for a given seed.
    """
    if n < 1:
        raise ValueError(f"need at least one request, got {n}")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValueError(
            f"duplicate_fraction must be in [0, 1), got {duplicate_fraction}"
        )
    rng = np.random.default_rng(seed)
    n_dup = int(n * duplicate_fraction)
    n_base = n - n_dup
    base = rng.integers(0, pool.shape[0], size=n_base)
    dup = base[rng.integers(0, n_base, size=n_dup)] if n_dup else base[:0]
    rows = np.concatenate([base, dup])
    rng.shuffle(rows)
    return pool.take_rows(rows)
