"""Microbatching: coalesce single-row requests into bounded slabs.

The scheduler is a deterministic discrete-event loop over the simulated
clock.  Requests arrive at exogenous times; admitted requests wait in a
FIFO queue; the scorer serves one slab at a time.  A slab is dispatched
at the earliest instant ``t >= t_free`` (scorer idle) at which either

- the queue holds ``max_batch`` requests (*size trigger* — the dispatch
  fires when the filling request arrives), or
- the oldest queued request has waited ``max_delay`` (*delay trigger* —
  the latency bound), or
- the stream has ended and requests remain queued (*drain*, still
  honouring the delay timer when it is finite).

Backpressure: an arrival finding ``max_queue`` requests already queued
is rejected immediately (never scored, never retried) — the bounded
queue is what keeps tail latency finite when offered load exceeds
capacity.  Cache hits are resolved at admission via the ``admit`` hook
and bypass the queue entirely.

The loop processes arrival and dispatch events in nondecreasing time
order with arrivals winning ties, so a schedule is a pure function of
``(arrivals, policy, service times)`` — independent of host thread
timing, and the set of *scored values* is independent of the batch
geometry altogether (see :mod:`repro.serve.server`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

#: per-request disposition codes in :class:`Schedule.status`.
#: REJECTED = shed by the bounded queue (backpressure); THROTTLED =
#: denied by per-tenant admission control (fleet router only)
SCORED, CACHE_HIT, REJECTED, THROTTLED = 1, 2, 3, 4


@dataclass(frozen=True)
class BatchPolicy:
    """Microbatching policy knobs.

    Parameters
    ----------
    max_batch:
        Slab size bound; ``1`` degenerates to single-request scoring.
    max_delay:
        Longest a request may wait for its batch to fill (simulated
        seconds); ``0.0`` dispatches as soon as the scorer is free,
        ``math.inf`` waits for full batches only.
    max_queue:
        Admission bound on queued requests (``None`` = unbounded).
        Arrivals beyond it are rejected — load shedding, not blocking.
    """

    max_batch: int = 64
    max_delay: float = 500e-6
    max_queue: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not self.max_delay >= 0:  # NaN fails this too
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError(
                f"max_queue must be >= 1 or None, got {self.max_queue}"
            )


@dataclass
class SlabRecord:
    """One dispatched slab, for the stats report."""

    t_dispatch: float
    t_complete: float
    size: int


@dataclass
class Schedule:
    """Outcome of one scheduler run."""

    #: per-request disposition (SCORED / CACHE_HIT / REJECTED)
    status: np.ndarray
    #: simulated completion time per request (NaN for rejected)
    completion: np.ndarray
    slabs: List[SlabRecord] = field(default_factory=list)
    peak_queue_depth: int = 0

    def latencies(self, arrivals: np.ndarray) -> np.ndarray:
        """Completion − arrival per request (NaN for rejected)."""
        return self.completion - arrivals


def validate_arrivals(
    arrivals, n_requests: Optional[int] = None
) -> np.ndarray:
    """One request stream's arrival times as a float64 vector.

    Raises ``ValueError`` unless they are a vector (of ``n_requests``
    times, when given) that is non-empty, finite, nondecreasing and
    >= 0.  Every serving entry point calls this before it starts any
    work.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if arrivals.ndim != 1:
        raise ValueError(
            f"arrival times must be a vector, got shape {arrivals.shape}"
        )
    if n_requests is not None and arrivals.size != n_requests:
        raise ValueError(
            f"{arrivals.size} arrival times for {n_requests} request rows"
        )
    if arrivals.size == 0:
        raise ValueError("empty arrival stream")
    if not np.isfinite(arrivals).all():
        raise ValueError("arrival times must be finite")
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be nondecreasing")
    if arrivals[0] < 0:
        raise ValueError("arrival times must be >= 0")
    return arrivals


def next_dispatch(
    arrivals: np.ndarray,
    queue,
    policy: BatchPolicy,
    t_ready: float,
    ended: bool,
) -> float:
    """The earliest instant the next slab of ``queue`` may dispatch.

    ``queue`` holds request ids in arrival order; ``t_ready`` is when a
    scorer can next take a slab, and ``ended`` says no arrival is left.
    The rule: the time the ``max_batch``-th oldest request arrived (size
    trigger), else the oldest request's arrival plus ``max_delay``
    (delay trigger) — or, once the stream has ended under an infinite
    delay, the newest queued arrival (no arrival can fill the batch any
    more) — but never before ``t_ready``.  An empty queue never
    dispatches (``inf``).
    """
    if not queue:
        return math.inf
    if len(queue) >= policy.max_batch:
        t_trigger = arrivals[queue[policy.max_batch - 1]]
    else:
        t_trigger = arrivals[queue[0]] + policy.max_delay
        if ended and not math.isfinite(t_trigger):
            t_trigger = arrivals[queue[-1]]
    return max(t_trigger, t_ready)


def run_schedule(
    arrivals: np.ndarray,
    policy: BatchPolicy,
    dispatch: Callable[[np.ndarray, float], float],
    admit: Optional[Callable[[int, float], bool]] = None,
) -> Schedule:
    """Drive the microbatch event loop over one arrival stream.

    ``dispatch(request_ids, t_dispatch)`` scores one slab and returns its
    completion time (``>= t_dispatch``) — in the server this runs the
    sharded SPMD scorer and reads the frontend's virtual clock.
    ``admit(request_id, t_arrival)`` may resolve a request immediately
    (cache hit): return True and the request never queues.
    """
    arrivals = validate_arrivals(arrivals)
    n = arrivals.shape[0]
    status = np.zeros(n, dtype=np.int64)
    completion = np.full(n, np.nan)
    sched = Schedule(status=status, completion=completion)
    queue: deque = deque()
    t_free = 0.0
    i = 0

    while i < n or queue:
        t_dispatch = next_dispatch(arrivals, queue, policy, t_free, i >= n)
        if i < n and arrivals[i] <= t_dispatch:
            # arrival event first (ties: the arrival joins this slab)
            t = arrivals[i]
            if admit is not None and admit(i, t):
                status[i] = CACHE_HIT
                completion[i] = t
            elif (
                policy.max_queue is not None
                and len(queue) >= policy.max_queue
            ):
                status[i] = REJECTED
            else:
                queue.append(i)
                sched.peak_queue_depth = max(
                    sched.peak_queue_depth, len(queue)
                )
            i += 1
            continue

        ids = np.array(
            [queue.popleft() for _ in range(min(len(queue), policy.max_batch))],
            dtype=np.int64,
        )
        t_done = dispatch(ids, t_dispatch)
        if t_done < t_dispatch:
            raise ValueError(
                f"dispatch returned completion {t_done} before dispatch "
                f"time {t_dispatch}"
            )
        status[ids] = SCORED
        completion[ids] = t_done
        sched.slabs.append(SlabRecord(t_dispatch, t_done, int(ids.size)))
        t_free = t_done

    return sched
