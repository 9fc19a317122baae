"""Distributed (simulated-MPI) batch prediction.

Training is the paper's focus, but a model trained on 2.3M samples is
usually *applied* to even more data.  This module block-partitions the
test set across simulated ranks; each rank evaluates the decision
function over its shard against the (replicated) support vectors, and
rank 0 gathers the pieces.  Virtual time is charged per kernel
evaluation, so prediction throughput can be projected with the same
machine model as training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..config import RunConfig
from ..mpi import SpmdResult, run_spmd
from ..sparse.csr import CSRMatrix
from ..sparse.partition import BlockPartition
from .model import SVMModel, _as_csr


@dataclass
class ParallelPrediction:
    """Decision values plus the simulated job's accounting."""

    decision_values: np.ndarray
    spmd: SpmdResult

    @property
    def labels(self) -> np.ndarray:
        return np.where(self.decision_values >= 0.0, 1.0, -1.0)

    @property
    def vtime(self) -> float:
        return self.spmd.vtime


def decision_function_parallel(
    model: SVMModel,
    X: Union[CSRMatrix, np.ndarray],
    *,
    config: Optional[RunConfig] = None,
) -> ParallelPrediction:
    """Evaluate ``model.decision_function`` over ``X`` on
    ``config.nprocs`` simulated ranks (block-row partition of the test
    set; ``None`` means ``RunConfig()``).
    """
    cfg = config if config is not None else RunConfig()
    X = _as_csr(X, model.sv_X.shape[1])
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty prediction input")
    nprocs = min(cfg.nprocs, n)
    part = BlockPartition(n, nprocs)
    # zero-copy contiguous views — shard setup no longer copies the
    # test set once per rank
    shards = [X.row_slice(*part.bounds(r)) for r in range(nprocs)]
    avg_nnz = model.sv_X.avg_row_nnz or 1.0

    def entry(comm):
        shard = shards[comm.rank]
        local = model.decision_function(shard)
        comm.charge_kernel_evals(shard.shape[0] * model.n_sv, avg_nnz)
        gathered = comm.gather(local, root=0)
        if comm.rank == 0:
            return np.concatenate(gathered)
        return None

    spmd = run_spmd(
        entry, nprocs, machine=cfg.machine, trace=cfg.trace,
        deadlock_timeout=cfg.deadlock_timeout, faults=cfg.faults,
        comm=cfg.comm,
    )
    return ParallelPrediction(decision_values=spmd.results[0], spmd=spmd)


def predict_parallel(
    model: SVMModel,
    X: Union[CSRMatrix, np.ndarray],
    *,
    config: Optional[RunConfig] = None,
) -> np.ndarray:
    """±1 labels via :func:`decision_function_parallel`."""
    return decision_function_parallel(model, X, config=config).labels
