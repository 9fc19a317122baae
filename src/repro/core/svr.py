"""ε-support-vector regression on the distributed shrinking engine.

The paper's conclusion points at regression as a direct beneficiary
("even larger datasets than considered in this paper can now be used
for classification and regression, without any accuracy loss").  This
module delivers it by the standard reduction: the ε-SVR dual

    min  ½ Σ_ij (α_i − α*_i)(α_j − α*_j) K_ij
         + ε Σ_i (α_i + α*_i) − Σ_i y_i (α_i − α*_i)
    s.t. Σ_i (α_i − α*_i) = 0,   0 ≤ α_i, α*_i ≤ C

is a 2n-variable box-constrained QP with a single equality constraint —
*exactly* the shape of the classification dual, with synthetic labels
λ = (+1…, −1…) and linear term p = (ε − y, ε + y).  In the engine's
gradient convention (γ_s = λ_s ∇_s) the initial gradient is

    γ0 = (ε − y,  −ε − y)

and every other ingredient — maximal-violating-pair selection, the
analytic pair step, Eq. (9) shrinking, the reconstruction ring, the
final threshold β with b = −β — carries over verbatim.  The distributed
solver therefore trains regressions with the same Table II heuristics
and the same accuracy guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..config import RunConfig
from ..kernels import Kernel, build_kernel
from ..mpi import SpmdResult, run_spmd
from ..sparse.csr import CSRMatrix
from ..sparse.partition import BlockPartition
from .model import SVMModel
from .params import SVMParams
from .parallel import solve_rank
from .shrinking import get_heuristic
from .state import make_blocks
from .svc import NotFittedError
from .trace import SolveTrace
from .wss_policies import resolve_wss

#: drop combined coefficients below this fraction of C when collecting SVs
_COEF_TOL = 1e-12


@dataclass
class SVRFitResult:
    """Outcome of a distributed ε-SVR training run."""

    model: SVMModel  # stores β coefficients; prediction = decision_function
    beta_coef: np.ndarray  # β_i = α_i − α*_i, full length n
    iterations: int
    trace: SolveTrace
    spmd: SpmdResult

    @property
    def vtime(self) -> float:
        return self.spmd.vtime


def fit_svr_parallel(
    X: Union[CSRMatrix, np.ndarray],
    y: np.ndarray,
    params: SVMParams,
    *,
    epsilon: float = 0.1,
    config: Optional[RunConfig] = None,
) -> SVRFitResult:
    """Train ε-SVR with the distributed shrinking solver.

    ``params.eps`` is the SMO optimality tolerance; ``epsilon`` is the
    regression tube half-width.  Run-time knobs ride in one
    :class:`~repro.config.RunConfig` (``None`` means ``RunConfig()``),
    honoured as :func:`~repro.core.solver.fit_parallel` honours them;
    ``dc`` is rejected, since the divide-and-conquer outer loop
    partitions by class label.
    """
    cfg = config if config is not None else RunConfig()
    nprocs = cfg.nprocs
    if cfg.dc is not None:
        raise ValueError(
            "dc (divide-and-conquer training) is classification-only; "
            "fit_svr_parallel takes RunConfig(dc=None)"
        )
    wss = resolve_wss(cfg.wss)
    if epsilon < 0:
        raise ValueError(f"epsilon (tube width) must be >= 0, got {epsilon}")
    if params.weighted:
        raise ValueError(
            "per-class weights have no meaning for regression; "
            "use unweighted SVMParams"
        )
    if not isinstance(X, CSRMatrix):
        X = CSRMatrix.from_dense(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if y.shape != (n,):
        raise ValueError(f"{y.size} targets for {n} samples")
    if n == 0:
        raise ValueError("empty training set")
    if nprocs < 1 or nprocs > 2 * n:
        raise ValueError(f"nprocs must be in [1, {2 * n}], got {nprocs}")
    heur = get_heuristic(cfg.heuristic)

    # the doubled problem: (α block with λ=+1, α* block with λ=−1)
    X2 = CSRMatrix.vstack([X, X])
    lam = np.concatenate([np.ones(n), -np.ones(n)])
    gamma0 = np.concatenate([epsilon - y, -epsilon - y])

    part = BlockPartition(2 * n, nprocs)
    blocks = make_blocks(X2, lam, part, gamma0=gamma0)

    def entry(comm):
        return solve_rank(
            comm, blocks[comm.rank], part, params, heur, wss=wss,
            cache_bytes=int(cfg.kernel_cache_mb * 1024 * 1024),
        )

    spmd = run_spmd(
        entry, nprocs, machine=cfg.machine, trace=cfg.trace,
        deadlock_timeout=cfg.deadlock_timeout, faults=cfg.faults,
        comm=cfg.comm,
    )
    results = spmd.results

    alpha_ext = np.concatenate([r.alpha for r in results])
    beta_coef = alpha_ext[:n] - alpha_ext[n:]
    thresh = results[0].beta

    sv = np.flatnonzero(np.abs(beta_coef) > _COEF_TOL * params.C)
    model = SVMModel(
        sv_X=X.take_rows(sv),
        sv_coef=beta_coef[sv],
        sv_indices=sv,
        beta=thresh,
        kernel=params.kernel,
    )
    trace = SolveTrace.merge(
        [r.trace for r in results], 2 * n, X.shape[1], X.avg_row_nnz
    )
    for r in results:
        # merged above: the SVRFitResult keeps the coefficients and trace
        r.alpha = r.gamma = r.trace = None
    return SVRFitResult(
        model=model,
        beta_coef=beta_coef,
        iterations=results[0].iterations,
        trace=trace,
        spmd=spmd,
    )


class SVR:
    """ε-SVR facade with the familiar fit/predict/score interface.

    Parameters mirror :class:`~repro.core.svc.SVC` (run-time knobs ride
    in ``config``), plus ``epsilon`` — the regression tube half-width
    (errors within ±ε are free).
    ``score`` returns the coefficient of determination R².
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: Union[str, Kernel] = "rbf",
        gamma: Optional[float] = None,
        sigma_sq: Optional[float] = None,
        eps: float = 1e-3,
        epsilon: float = 0.1,
        max_iter: int = 10_000_000,
        config: Optional[RunConfig] = None,
    ) -> None:
        if gamma is not None and sigma_sq is not None:
            raise ValueError("give either gamma or sigma_sq, not both")
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.sigma_sq = sigma_sq
        self.eps = eps
        self.epsilon = epsilon
        self.max_iter = max_iter
        self.config = config if config is not None else RunConfig()
        self.model_: Optional[SVMModel] = None
        self.fit_result_: Optional[SVRFitResult] = None

    def fit(self, X, y) -> "SVR":
        params = SVMParams(
            C=self.C,
            kernel=build_kernel(self.kernel, self.gamma, self.sigma_sq),
            eps=self.eps,
            max_iter=self.max_iter,
        )
        self.fit_result_ = fit_svr_parallel(
            X, y, params,
            epsilon=self.epsilon,
            config=self.config,
        )
        self.model_ = self.fit_result_.model
        return self

    def _check_fitted(self) -> None:
        if self.model_ is None:
            raise NotFittedError("call fit() before predict/score")

    def predict(self, X) -> np.ndarray:
        """Regression estimates f(x) = Σ β_j Φ(x_j, x) + b."""
        self._check_fitted()
        return self.model_.decision_function(X)

    def score(self, X, y) -> float:
        """Coefficient of determination R²."""
        y = np.asarray(y, dtype=np.float64)
        pred = self.predict(X)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot

    @property
    def n_support_(self) -> int:
        self._check_fitted()
        return self.model_.n_sv

    @property
    def n_iter_(self) -> int:
        self._check_fitted()
        return self.fit_result_.iterations
