"""The serving session: one SPMD job whose ranks keep their shards.

:func:`run_session` is the only code that runs a serving SPMD job.  The
support vectors are block-partitioned across the ranks; each rank
prepares its shard once and scores every broadcast slab of request rows
against it, and rank 0 — also the *frontend*, which drives the session
— assembles the full-width slab before the weighted row reduction.
:func:`serve_requests` drives one session on rank 0 with the
discrete-event :func:`~repro.serve.batching.run_schedule` loop, probing
the :class:`~repro.serve.cache.ResultCache` at admission; a fleet
:class:`~repro.serve.fleet.ShardGroup` runs one for its whole life.

Each rank scores through one :class:`ShardScorer`, shard-major: as the
paper recomputes kernel rows by walking the rows a rank stores against
the samples it receives (§III-A), the shard is the left operand of
``Kernel.block`` (:func:`~repro.core.model.weighted_slab`) and the
slab's request rows are scattered into the dense tile, so nothing about
the shard is rebuilt per slab.

Bitwise determinism
-------------------
Each dispatch gathers the per-shard *weighted kernel sub-slabs* and
concatenates them in rank order before a single full-width
``np.add.reduce`` on rank 0.  Kernel entry (i, j) is an elementwise
function of one dot product, the segment sum over support vector j's
own nonzeros against request i's dense tile row, whichever rank holds
j and whichever rows share the slab; so the assembled slab is bitwise
identical to the one ``SVMModel.decision_function`` builds with the
same :func:`~repro.core.model.weighted_slab` — and the reduction then
runs over the identical array.  Scores are therefore bitwise equal to direct scoring for ANY
nprocs, batch size, arrival order, or cache state.

Fault injection rides for free: the slab broadcast/gather use the same
mailbox delivery path as training, so a ``RunConfig.faults`` plan (or
the CLI's ``--faults``) exercises recovery on the serving path too; the
plan applies per session.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Union

import numpy as np

from ..config import RunConfig
from ..mpi import SpmdResult, run_spmd
from ..perfmodel.costs import dispatch_time
from ..perfmodel.machine import MachineSpec
from ..sparse.csr import CSRMatrix
from ..sparse.partition import BlockPartition
from ..core.model import SVMModel, _as_csr, weighted_slab
from .batching import BatchPolicy, Schedule, run_schedule, validate_arrivals
from .cache import ResultCache, request_key
from .registry import model_fingerprint
from .stats import ServeStats, build_stats


class ShardScorer:
    """One rank's support-vector shard ``[lo, hi)`` of ``model``,
    prepared once, scoring one broadcast slab after another.

    Holds the shard (a zero-copy row slice of the model's support
    vectors), its squared norms, coefficients and bounds.  :meth:`score`
    is the slab body every serving path runs: this rank's weighted
    kernel sub-slab, gathered in rank order, and on rank 0 the
    full-width reduction.
    """

    def __init__(
        self, model: SVMModel, lo: int, hi: int, machine: MachineSpec
    ) -> None:
        self.model = model
        self.machine = machine
        self.lo, self.hi = lo, hi
        self.shard = model.sv_X.row_slice(lo, hi)
        self.norms = model._sv_norms[lo:hi]
        self.coef = model.sv_coef[lo:hi]
        self.avg_nnz = model.sv_X.avg_row_nnz or 1.0

    def score(
        self, comm, rows: CSRMatrix, row_norms: np.ndarray
    ) -> Optional[np.ndarray]:
        """Score one slab whose rows every rank already holds.

        Returns the decision values on rank 0 and ``None`` elsewhere.
        """
        sub = weighted_slab(
            self.model.kernel, self.shard, self.norms, self.coef, rows,
            row_norms,
        )
        comm.charge_kernel_evals(
            rows.shape[0] * (self.hi - self.lo), self.avg_nnz
        )
        parts = comm.gather(sub, root=0)
        if comm.rank != 0:
            return None
        slab = np.hstack(parts)
        # full-width weighted row sum — identical array, identical
        # reduction order as SVMModel.decision_function
        values = np.add.reduce(slab, axis=1) - self.model.beta
        comm.advance(self.machine.time_flops(slab.size))
        return values


@dataclass
class ServeResult:
    """Everything one serving session produced."""

    #: decision-function value per request (NaN for rejected requests)
    scores: np.ndarray
    #: per-request disposition (batching.SCORED / CACHE_HIT / REJECTED)
    status: np.ndarray
    #: simulated completion time per request (NaN for rejected)
    completion_times: np.ndarray
    #: completion − arrival (NaN for rejected)
    latencies: np.ndarray
    stats: ServeStats
    schedule: Schedule
    spmd: SpmdResult


def run_session(
    model: SVMModel,
    nprocs: int,
    drive: Callable[[Callable], Any],
    *,
    machine: MachineSpec,
    **spmd,
) -> Tuple[Any, SpmdResult]:
    """Run one serving session of ``model`` on ``nprocs`` ranks; returns
    ``drive``'s result and the job's :class:`~repro.mpi.SpmdResult`.

    Each rank prepares its :class:`ShardScorer` once.  Rank 0 calls
    ``drive(score)``: ``score(X, norms, ids, t_dispatch)`` syncs rank
    0's clock to the dispatch instant, charges the dispatch overhead,
    broadcasts rows ``ids`` of ``X`` (squared norms ``norms``) and
    returns ``(values, t_done)`` read off rank 0's clock.  The other
    ranks score broadcast slabs until rank 0's closing broadcast.
    ``spmd`` goes to :func:`~repro.mpi.run_spmd` (``faults``, ``comm``,
    ``trace``, ``deadlock_timeout``).
    """
    if nprocs > model.n_sv:
        raise ValueError(
            f"nprocs={nprocs} exceeds n_sv={model.n_sv}: "
            f"every rank needs a non-empty support-vector shard"
        )
    part = BlockPartition(model.n_sv, nprocs)
    driven = []

    def entry(comm) -> None:
        scorer = ShardScorer(model, *part.bounds(comm.rank), machine)
        if comm.rank != 0:
            while (slab := comm.bcast(None, root=0)) is not None:
                blob, row_norms = slab
                scorer.score(comm, CSRMatrix.from_bytes(blob), row_norms)
            return

        def score(X, norms, ids, t_dispatch):
            # the frontend was idle (or queue-waiting) until the trigger
            comm.clock.sync_to(t_dispatch, kind="idle")
            comm.advance(dispatch_time(machine, ids.size))
            rows = X.take_rows(ids)
            row_norms = norms[ids]
            # a typed frame, like the reconstruction ring's CSR blocks
            comm.bcast((rows.to_bytes(), row_norms), root=0)
            return scorer.score(comm, rows, row_norms), comm.vtime

        driven.append(drive(score))
        comm.bcast(None, root=0)  # the session is over

    result = run_spmd(entry, nprocs, machine=machine, **spmd)
    return driven[0], result


def serve_requests(
    model: SVMModel,
    X: Union[CSRMatrix, np.ndarray],
    arrivals: Optional[np.ndarray] = None,
    *,
    policy: Optional[BatchPolicy] = None,
    config: Optional[RunConfig] = None,
    cache_entries: int = 0,
    cache: Optional[ResultCache] = None,
) -> ServeResult:
    """Serve one stream of single-row score requests against ``model``.

    ``X`` holds one request row per arrival; ``arrivals`` is the
    nondecreasing simulated arrival time of each row (default: a burst
    at t=0).  ``policy`` sets the microbatching knobs, ``cache_entries``
    the result-cache capacity (0 = no cache); pass ``cache=`` to share a
    :class:`~repro.serve.cache.ResultCache` across sessions — entries
    are namespaced by the model's persistence-v2 fingerprint, so a
    session serving a different model can never hit another model's
    cached scores.  Run-time knobs (``nprocs``, ``machine``,
    ``faults``…) ride in one :class:`~repro.config.RunConfig`
    (``None`` means ``RunConfig()``), exactly like the fit/predict
    entry points.
    """
    cfg = config if config is not None else RunConfig()
    policy = policy or BatchPolicy()
    X = _as_csr(X, model.sv_X.shape[1])
    n = X.shape[0]
    arrivals = validate_arrivals(
        np.zeros(n) if arrivals is None else arrivals, n
    )

    machine_eff = cfg.machine if cfg.machine is not None else MachineSpec.cascade()
    norms = X.row_norms_sq()
    cache = cache if cache is not None else ResultCache(cache_entries)
    # cache entries are keyed under the model's exact-round-trip
    # fingerprint: a shared cache can never serve another model's scores
    namespace = model_fingerprint(model)
    scores = np.full(n, np.nan)
    # (id, cache key) of each request that missed, in arrival order: a
    # key is built once, at admission, and stored with its score (none
    # without a cache: a capacity-0 probe only counts the miss)
    missed: deque = deque()

    def admit(i: int, t: float) -> bool:
        key = request_key(X, i) if cache.capacity else None
        value = cache.get(key, namespace)
        if value is None:
            missed.append((i, key))
            return False
        scores[i] = value
        return True

    def drive(score) -> Schedule:
        def dispatch(ids: np.ndarray, t_dispatch: float) -> float:
            values, t_done = score(X, norms, ids, t_dispatch)
            scores[ids] = values
            for i, v in zip(ids.tolist(), values.tolist()):
                # the queue is FIFO: a miss older than the slab's head
                # was refused at a full queue, and its key goes
                j, key = missed.popleft()
                while j != i:
                    j, key = missed.popleft()
                cache.put(key, v, namespace)
            return t_done

        return run_schedule(arrivals, policy, dispatch, admit=admit)

    t0 = time.perf_counter()
    schedule, spmd = run_session(
        model, cfg.nprocs, drive, machine=machine_eff, trace=cfg.trace,
        deadlock_timeout=cfg.deadlock_timeout, faults=cfg.faults,
        comm=cfg.comm,
    )
    wall = time.perf_counter() - t0

    stats = build_stats(
        schedule, arrivals, cache.stats(),
        nprocs=cfg.nprocs,
        total_bytes_sent=spmd.total_bytes_sent,
        total_messages=spmd.total_messages,
        wall_seconds=wall,
    )
    return ServeResult(
        scores=scores,
        status=schedule.status,
        completion_times=schedule.completion,
        latencies=schedule.latencies(arrivals),
        stats=stats,
        schedule=schedule,
        spmd=spmd,
    )
