"""Driver: set up shards, run the SPMD job, assemble the model.

:func:`fit_parallel` is the library's mid-level entry point — it takes a
full ``(X, y)``, partitions it block-row across ``nprocs`` simulated
ranks, runs the selected Table II heuristic, and returns the trained
:class:`~repro.core.model.SVMModel` together with the merged trace and
virtual-time statistics.  The high-level sklearn-style facade lives in
:mod:`repro.core.svc`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..config import RunConfig
from ..mpi import SpmdResult, run_spmd
from ..sparse.csr import CSRMatrix
from ..sparse.partition import BlockPartition
from .dcsvm import DCStats, dc_warm_start, project_feasible
from .model import SVMModel
from .parallel import RankResult, solve_rank
from .params import SVMParams
from .shrinking import get_heuristic
from .state import make_blocks
from .trace import FitStats, SolveTrace
from .wss_policies import resolve_wss


@dataclass
class FitResult:
    """Outcome of one distributed training run."""

    model: SVMModel
    stats: FitStats
    trace: SolveTrace
    spmd: SpmdResult
    alpha: np.ndarray  # full α vector in global order
    beta_up: float
    beta_low: float
    #: divide-and-conquer outer-loop summary (None for a cold start)
    dc: Optional[DCStats] = None
    #: final gradient vector γ = K(αy) − y in global order.  Every
    #: shrinking heuristic that reconstructs at the end (all but the
    #: "never" variants) exits with this exact; :mod:`repro.stream`
    #: carries it into the next ``partial_fit`` to skip the warm-start
    #: reconstruction ring.
    gamma: Optional[np.ndarray] = None

    @property
    def vtime(self) -> float:
        return self.stats.vtime

    @property
    def total_vtime(self) -> float:
        """Modeled end-to-end time including any DC outer loop."""
        return self.stats.vtime + (self.dc.outer_vtime if self.dc else 0.0)

    @property
    def iterations(self) -> int:
        return self.stats.iterations


def fit_parallel(
    X: Union[CSRMatrix, np.ndarray],
    y: np.ndarray,
    params: SVMParams,
    *,
    config: Optional[RunConfig] = None,
    warm_start_alpha: Optional[np.ndarray] = None,
    warm_start_gamma: Optional[np.ndarray] = None,
    warm_start_active: Optional[np.ndarray] = None,
) -> FitResult:
    """Train with the distributed solver on ``config.nprocs`` simulated ranks.

    The run-time knobs — process count, Table II heuristic, WSS policy,
    kernel-column cache, collective suite, machine model, fault plan,
    tracing and the divide-and-conquer outer loop — ride in one
    :class:`~repro.config.RunConfig` (``None`` means ``RunConfig()``).

    ``warm_start_alpha`` seeds the solve from a previous dual solution
    (same samples and kernel — e.g. re-fitting after a small C change,
    or the next step of a regularization path).  The initial gradients
    are rebuilt from the seed with one gradient-reconstruction ring, so
    warm starting costs O(|{α>0}|·N/p) once instead of re-running the
    full iteration history.  Mutually exclusive with ``config.dc``,
    whose outer loop produces the warm start itself.

    ``warm_start_gamma`` (requires ``warm_start_alpha``) additionally
    seeds the gradient vector γ = K(αy) − y, skipping that
    reconstruction ring entirely: every sample starts active with its
    gradient taken on faith from the caller.  Only sound when the γ is
    *exact* for the seeded α — e.g. carried out of a previous
    :class:`FitResult` whose heuristic reconstructs at the end (all but
    the ``"never"`` variants), extended with freshly computed rows for
    appended samples.  The streaming subsystem (:mod:`repro.stream`)
    is the intended caller.

    ``warm_start_active`` (requires ``warm_start_gamma``) additionally
    seeds the *active set*: a boolean mask of the samples the first
    solve phase iterates over (typically the previous support vectors
    plus a freshly appended batch).  Masked-out samples start shrunk
    with their seeded-exact gradients on record; the heuristic's
    ordinary end-of-phase reconstruction re-admits and verifies them,
    so only heuristics that reconstruct (``"single"``/``"multi"``
    modes) accept the seed — the solve still converges on the full
    problem, it just pays narrow iterations first.
    """
    cfg = config if config is not None else RunConfig()
    wss = resolve_wss(cfg.wss)
    cache_bytes = int(cfg.kernel_cache_mb * 1024 * 1024)
    if not isinstance(X, CSRMatrix):
        X = CSRMatrix.from_dense(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if y.shape != (n,):
        raise ValueError(f"{y.size} labels for {n} samples")
    if n == 0:
        raise ValueError("empty training set")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1/-1 (use repro.core.SVC for raw labels)")
    heur = get_heuristic(cfg.heuristic)

    part = BlockPartition(n, cfg.nprocs)
    blocks = make_blocks(X, y, part)

    dc_stats: Optional[DCStats] = None
    if cfg.dc is not None:
        if warm_start_alpha is not None:
            raise ValueError(
                "dc and warm_start_alpha are mutually exclusive: the DC "
                "outer loop produces the warm start itself"
            )
        warm_start_alpha, dc_stats = dc_warm_start(
            X, y, params, cfg, heur=heur
        )

    if warm_start_alpha is not None:
        w_in = np.asarray(warm_start_alpha)
        if not np.issubdtype(w_in.dtype, np.number) or np.issubdtype(
            w_in.dtype, np.complexfloating
        ):
            raise TypeError(
                f"warm_start_alpha must be real-valued, got dtype {w_in.dtype}"
            )
        # any real dtype is accepted and upcast; a narrower float's
        # rounding error widens the constraint slack proportionally
        eps_in = (
            np.finfo(w_in.dtype).eps
            if np.issubdtype(w_in.dtype, np.floating)
            else np.finfo(np.float64).eps
        )
        warm_start_alpha = w_in.astype(np.float64)
        if warm_start_alpha.shape != (n,):
            raise ValueError(
                f"warm_start_alpha has shape {warm_start_alpha.shape}, "
                f"expected ({n},)"
            )
        box = params.box_for(y)
        box_slack = max(1e-9, 4.0 * eps_in * float(np.max(box)))
        if np.any(warm_start_alpha < -max(1e-12, box_slack)) or np.any(
            warm_start_alpha > box + box_slack
        ):
            raise ValueError("warm_start_alpha violates the box constraints")
        eq_tol = 1e-6 * max(1.0, params.C)
        eq_slack = max(eq_tol, 8.0 * eps_in * params.C * n)
        residual = abs(float(warm_start_alpha @ y))
        if residual > eq_slack:
            raise ValueError(
                "warm_start_alpha violates the equality constraint sum(a*y)=0"
            )
        if residual > eq_tol:
            # a narrower dtype's rounding residual, within its slack:
            # repair it exactly instead of rejecting the seed
            warm_start_alpha = project_feasible(warm_start_alpha, y, box)
        if warm_start_gamma is not None:
            warm_start_gamma = np.asarray(warm_start_gamma, dtype=np.float64)
            if warm_start_gamma.shape != (n,):
                raise ValueError(
                    f"warm_start_gamma has shape {warm_start_gamma.shape}, "
                    f"expected ({n},)"
                )
        if warm_start_active is not None:
            if warm_start_gamma is None:
                raise ValueError(
                    "warm_start_active requires warm_start_gamma: shrunk "
                    "samples keep their seeded gradients on record"
                )
            warm_start_active = np.asarray(warm_start_active, dtype=bool)
            if warm_start_active.shape != (n,):
                raise ValueError(
                    f"warm_start_active has shape {warm_start_active.shape},"
                    f" expected ({n},)"
                )
            if not warm_start_active.any():
                raise ValueError("warm_start_active selects no samples")
            if heur.reconstruction not in ("single", "multi"):
                raise ValueError(
                    f"warm_start_active needs a reconstructing heuristic "
                    f"to re-admit the masked-out samples; "
                    f"{heur.name!r} has reconstruction="
                    f"{heur.reconstruction!r}"
                )
        for rank, blk in enumerate(blocks):
            lo, hi = part.bounds(rank)
            blk.alpha[:] = np.clip(warm_start_alpha[lo:hi], 0.0, box[lo:hi])
            if warm_start_gamma is not None:
                # gradients supplied: seed blk.gamma directly (gamma0
                # stays −y so any later reconstruction still rebuilds
                # correctly); the solver goes straight to selection
                # without the warm-start reconstruction ring
                blk.gamma[:] = warm_start_gamma[lo:hi]
                if warm_start_active is not None:
                    blk.active[:] = warm_start_active[lo:hi]
            else:
                # mark every sample stale: the first reconstruction pass
                # in solve_rank rebuilds gradients from the seeded alphas
                blk.active[:] = False
    elif warm_start_gamma is not None:
        raise ValueError("warm_start_gamma requires warm_start_alpha")
    elif warm_start_active is not None:
        raise ValueError("warm_start_active requires warm_start_alpha")

    warm_seeded = warm_start_gamma is not None

    def entry(comm):
        return solve_rank(
            comm, blocks[comm.rank], part, params, heur,
            wss=wss, cache_bytes=cache_bytes, warm_seeded=warm_seeded,
        )

    t0 = time.perf_counter()
    spmd = run_spmd(
        entry, cfg.nprocs, machine=cfg.machine, trace=cfg.trace,
        deadlock_timeout=cfg.deadlock_timeout, faults=cfg.faults,
        comm=cfg.comm,
    )
    wall = time.perf_counter() - t0
    results: List[RankResult] = spmd.results

    alpha = np.concatenate([r.alpha for r in results])
    beta = results[0].beta
    sv_idx = np.flatnonzero(alpha > 0)
    model = SVMModel(
        sv_X=X.take_rows(sv_idx),
        sv_coef=alpha[sv_idx] * y[sv_idx],
        sv_indices=sv_idx,
        beta=beta,
        kernel=params.kernel,
    )
    trace = SolveTrace.merge(
        [r.trace for r in results], n, X.shape[1], X.avg_row_nnz
    )
    gamma = np.concatenate([r.gamma for r in results])
    for r in results:
        # merged above: the FitResult keeps α, γ and the trace once
        r.alpha = r.gamma = r.trace = None
    stats = FitStats(
        heuristic=heur.name,
        nprocs=cfg.nprocs,
        iterations=results[0].iterations,
        n_sv=int(sv_idx.size),
        beta=beta,
        vtime=spmd.vtime,
        wall_time=wall,
        kernel_evals=trace.kernel_evals,
        bytes_sent=spmd.total_bytes_sent,
        messages=spmd.total_messages,
        trace=trace,
        wss=wss,
    )
    return FitResult(
        model=model,
        stats=stats,
        trace=trace,
        spmd=spmd,
        alpha=alpha,
        beta_up=results[0].beta_up,
        beta_low=results[0].beta_low,
        dc=dc_stats,
        gamma=gamma,
    )
