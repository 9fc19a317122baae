"""Incremental training: warm-start refits on a growing/shrinking dataset.

:class:`IncrementalSVC` keeps the active dataset and the exact dual
state ``(α, γ)`` of its last solve.  ``partial_fit(X, y)`` appends a
batch and re-solves warm instead of cold:

- the previous α, padded with zeros for the new rows, is already
  feasible for the enlarged problem (box unchanged on old rows, new
  rows at the zero bound, ``Σ α·y`` preserved) — the same feasibility
  argument the DC warm start makes, with
  :func:`~repro.core.dcsvm.project_feasible` as the repair path for
  any rounding residual;
- the previous gradient γ is *exact* for the old rows (every
  reconstructing heuristic exits with all samples active and exact
  gradients), and the new rows' gradients are one kernel slab against
  the previous support vectors:
  ``γ_new = K(X_new, SV)·(α·y)[SV] − y_new`` — ``n_new × n_sv``
  evaluations, charged to the stream's cumulative account;
- the solver is seeded through ``fit_parallel(warm_start_alpha=…,
  warm_start_gamma=…)``: every sample starts active with a trusted
  gradient, so the solve goes straight to selection and pays only for
  the iterations the new batch actually induces.

``forget(indices)`` removes samples.  Forgetting exactly the last
appended batch restores the pre-append snapshot from an internal
journal — bitwise the original model.  General removal drops the rows,
redistributes the lost α mass with ``project_feasible`` (the equality
constraint ``Σ α·y = 0`` must be repaired when support vectors leave),
and re-solves warm from α alone — the gradients of the survivors
changed, so they are honestly rebuilt by the solver's reconstruction
ring rather than taken on faith.

Every refit can be certified against a cold full solve
(``certify=True``): the cold fit runs alongside and
:func:`~repro.core.equiv.assert_model_equiv` proves the warm result
tolerance-equivalent — KKT-feasible, same dual objective plateau, same
decisions on a held-out probe grid.  The cold fit's cost accumulates
separately, giving the cold-retrain baseline the benchmark's
kernel-eval-reduction bar is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..config import RunConfig
from ..core.dcsvm import project_feasible
from ..core.equiv import assert_model_equiv
from ..core.params import SVMParams
from ..core.shrinking import get_heuristic
from ..core.solver import FitResult, fit_parallel
from ..core.svc import NotFittedError
from ..kernels import Kernel, build_kernel
from ..sparse.csr import CSRMatrix

__all__ = ["IncrementalSVC", "RefitRecord"]


@dataclass
class RefitRecord:
    """Cost accounting for one refit of the incremental dataset."""

    batch: int  # refit ordinal (0 = the initial cold fit)
    kind: str  # "cold" | "partial_fit" | "forget"
    n_total: int  # dataset size after the refit
    n_new: int  # rows appended (negative: rows removed)
    iterations: int
    solver_kernel_evals: int  # evals charged inside the solve
    seed_kernel_evals: int  # evals spent building the γ seed
    vtime: float  # modeled solve time
    certified: bool = False
    cold_iterations: Optional[int] = None
    cold_kernel_evals: Optional[int] = None

    @property
    def kernel_evals(self) -> int:
        """Total incremental cost of this refit, seeding included."""
        return self.solver_kernel_evals + self.seed_kernel_evals

    def to_dict(self) -> dict:
        return {
            "batch": self.batch,
            "kind": self.kind,
            "n_total": self.n_total,
            "n_new": self.n_new,
            "iterations": self.iterations,
            "solver_kernel_evals": self.solver_kernel_evals,
            "seed_kernel_evals": self.seed_kernel_evals,
            "kernel_evals": self.kernel_evals,
            "vtime": self.vtime,
            "certified": self.certified,
            "cold_iterations": self.cold_iterations,
            "cold_kernel_evals": self.cold_kernel_evals,
        }


@dataclass
class _Snapshot:
    """Pre-append state for the ``forget``-last-batch fast path."""

    lo: int  # first row of the appended batch
    hi: int  # one past its last row
    X: CSRMatrix
    y: np.ndarray
    alpha: np.ndarray
    gamma: Optional[np.ndarray]
    model: object
    fit_result: Optional[FitResult]


class IncrementalSVC:
    """Two-class SVM with sklearn-style ``partial_fit``/``forget``.

    Hyperparameters mirror :class:`~repro.core.SVC`; run-time knobs
    come through ``config=`` (a :class:`~repro.config.RunConfig`), as
    on every other entry point.

    ``certify=True`` runs a cold full solve next to every warm refit
    and asserts tolerance-equivalence
    (:func:`~repro.core.equiv.assert_model_equiv`); the cold costs
    accumulate in :attr:`cold_kernel_evals_` as the retrain baseline.

    The divide-and-conquer outer loop is mutually exclusive with
    incremental warm starts (both produce the seed), so ``config.dc``
    must be ``None``.
    """

    def __init__(
        self,
        C: float = 1.0,
        kernel: Union[str, Kernel] = "rbf",
        gamma: Optional[float] = None,
        sigma_sq: Optional[float] = None,
        eps: float = 1e-3,
        max_iter: int = 10_000_000,
        shrink_eps_factor: float = 10.0,
        *,
        config: Optional[RunConfig] = None,
        certify: bool = False,
        certify_tol: Optional[float] = None,
    ) -> None:
        if gamma is not None and sigma_sq is not None:
            raise ValueError("give either gamma or sigma_sq, not both")
        cfg = config if config is not None else RunConfig()
        if cfg.dc is not None:
            raise ValueError(
                "IncrementalSVC produces its own warm starts; config.dc "
                "must be None (dc and warm_start_alpha are mutually "
                "exclusive in fit_parallel)"
            )
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.sigma_sq = sigma_sq
        self.eps = eps
        self.max_iter = max_iter
        self.shrink_eps_factor = shrink_eps_factor
        self.config = cfg
        self.certify = certify
        self.certify_tol = certify_tol

        self.classes_: Optional[np.ndarray] = None
        self.X_: Optional[CSRMatrix] = None
        self.y_: Optional[np.ndarray] = None  # signed ±1
        self.alpha_: Optional[np.ndarray] = None
        self.gamma_: Optional[np.ndarray] = None  # exact γ, or None
        self.model_ = None
        self.fit_result_: Optional[FitResult] = None
        self.records_: List[RefitRecord] = []
        self._journal: List[_Snapshot] = []

    # ------------------------------------------------------------------
    # hyperparameter plumbing (mirrors SVC)
    # ------------------------------------------------------------------
    def _params(self) -> SVMParams:
        return SVMParams(
            C=self.C,
            kernel=build_kernel(self.kernel, self.gamma, self.sigma_sq),
            eps=self.eps,
            max_iter=self.max_iter,
            shrink_eps_factor=self.shrink_eps_factor,
        )

    def _carries_gamma(self) -> bool:
        """Whether the last solve's γ is exact for every sample.

        The ``"never"``-reconstruction heuristics permanently eliminate
        samples with stale gradients, so their exit γ cannot seed the
        next refit; everything else reconstructs (or never shrinks) and
        exits exact.
        """
        return get_heuristic(self.config.heuristic).reconstruction != "never"

    def _coerce_batch(self, X, y) -> "tuple[CSRMatrix, np.ndarray]":
        if not isinstance(X, CSRMatrix):
            X = CSRMatrix.from_dense(np.asarray(X, dtype=np.float64))
        y = np.asarray(y)
        if y.shape != (X.shape[0],):
            raise ValueError(f"{y.size} labels for {X.shape[0]} samples")
        if self.classes_ is None:
            classes = np.unique(y)
            if classes.size != 2:
                raise ValueError(
                    f"the first batch must contain exactly two classes, "
                    f"got {classes.size}: {classes!r}"
                )
            self.classes_ = classes
        else:
            unknown = np.setdiff1d(np.unique(y), self.classes_)
            if unknown.size:
                raise ValueError(
                    f"batch contains labels {unknown!r} outside the "
                    f"classes seen first ({self.classes_!r})"
                )
            if self.X_ is not None and X.shape[1] != self.X_.shape[1]:
                raise ValueError(
                    f"batch has {X.shape[1]} features, dataset has "
                    f"{self.X_.shape[1]}"
                )
        y_signed = np.where(y == self.classes_[1], 1.0, -1.0)
        return X, y_signed

    # ------------------------------------------------------------------
    # the refit engine
    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        n_new: int,
        result: FitResult,
        seed_evals: int,
        cold: Optional[FitResult],
    ) -> RefitRecord:
        rec = RefitRecord(
            batch=len(self.records_),
            kind=kind,
            n_total=int(self.X_.shape[0]),
            n_new=n_new,
            iterations=result.iterations,
            solver_kernel_evals=int(result.trace.kernel_evals),
            seed_kernel_evals=seed_evals,
            vtime=float(result.vtime),
            certified=cold is not None,
            cold_iterations=cold.iterations if cold is not None else None,
            cold_kernel_evals=(
                int(cold.trace.kernel_evals) if cold is not None else None
            ),
        )
        self.records_.append(rec)
        return rec

    def _certify(self, warm: FitResult) -> Optional[FitResult]:
        """Cold-solve the current dataset and certify ``warm`` against
        it; returns the cold result (the retrain baseline)."""
        if not self.certify:
            return None
        params = self._params()
        cold = fit_parallel(self.X_, self.y_, params, config=self.config)
        assert_model_equiv(
            warm, cold, self.X_, self.y_, params, tol=self.certify_tol
        )
        return cold

    def _apply(self, result: FitResult) -> None:
        self.alpha_ = result.alpha
        self.gamma_ = result.gamma if self._carries_gamma() else None
        self.model_ = result.model
        self.fit_result_ = result

    def partial_fit(self, X, y) -> "IncrementalSVC":
        """Append a labeled batch and refit warm.

        The first call is a cold fit (certified trivially — it *is* the
        cold solve).  Later calls seed the solver with the previous
        ``(α, γ)`` extended over the new rows and pay only the extra
        iterations the batch induces.
        """
        X, y_signed = self._coerce_batch(X, y)
        params = self._params()

        if self.X_ is None:
            self.X_, self.y_ = X, y_signed
            result = fit_parallel(X, y_signed, params, config=self.config)
            self._apply(result)
            rec = self._record("cold", X.shape[0], result, 0, None)
            if self.certify:
                # the initial fit is its own cold baseline
                rec.certified = True
                rec.cold_iterations = rec.iterations
                rec.cold_kernel_evals = rec.solver_kernel_evals
            return self

        self._journal.append(
            _Snapshot(
                lo=int(self.X_.shape[0]),
                hi=int(self.X_.shape[0] + X.shape[0]),
                X=self.X_,
                y=self.y_,
                alpha=self.alpha_,
                gamma=self.gamma_,
                model=self.model_,
                fit_result=self.fit_result_,
            )
        )
        n_new = X.shape[0]
        seed_alpha = np.concatenate([self.alpha_, np.zeros(n_new)])
        seed_gamma = None
        seed_active = None
        seed_evals = 0
        if self.gamma_ is not None:
            # γ for the new rows: one kernel slab against the previous
            # support vectors (sv_coef is exactly (α·y) at α>0)
            model = self.model_
            if model.n_sv:
                slab = params.kernel.block(
                    X,
                    X.row_norms_sq(),
                    model.sv_X,
                    model.sv_X.row_norms_sq(),
                )
                gamma_new = slab @ model.sv_coef - y_signed
                seed_evals = n_new * model.n_sv
            else:
                gamma_new = -y_signed
            seed_gamma = np.concatenate([self.gamma_, gamma_new])
            # active-set seed: previous support vectors + the new batch.
            # The old non-SV rows start shrunk (their seeded gradients
            # on record); the heuristic's ordinary reconstruction passes
            # re-admit and verify them, so the first phase iterates only
            # over the samples the batch can actually move.
            if get_heuristic(self.config.heuristic).reconstruction in (
                "single",
                "multi",
            ):
                seed_active = np.concatenate(
                    [self.alpha_ > 0, np.ones(n_new, dtype=bool)]
                )

        self.X_ = CSRMatrix.vstack([self.X_, X])
        self.y_ = np.concatenate([self.y_, y_signed])
        result = fit_parallel(
            self.X_,
            self.y_,
            params,
            config=self.config,
            warm_start_alpha=seed_alpha,
            warm_start_gamma=seed_gamma,
            warm_start_active=seed_active,
        )
        self._apply(result)
        cold = self._certify(result)
        self._record("partial_fit", n_new, result, seed_evals, cold)
        return self

    def forget(self, indices) -> "IncrementalSVC":
        """Remove samples by (current) row index and refit.

        Forgetting *exactly* the last appended batch pops the internal
        journal and restores the pre-append state — bitwise the
        original model, at zero solver cost.  Any other removal drops
        the rows, repairs the equality constraint by redistributing the
        removed α mass (:func:`~repro.core.dcsvm.project_feasible`),
        and re-solves warm from α alone: the survivors' gradients
        changed with the departed support vectors, so the solver
        rebuilds them honestly via its reconstruction ring.
        """
        if self.X_ is None:
            raise NotFittedError("call partial_fit() before forget()")
        indices = np.unique(np.asarray(indices, dtype=np.int64))
        n = self.X_.shape[0]
        if indices.size == 0:
            return self
        if indices[0] < 0 or indices[-1] >= n:
            raise ValueError(
                f"forget indices out of range [0, {n}): "
                f"[{indices[0]}, {indices[-1]}]"
            )

        if (
            self._journal
            and indices.size == self._journal[-1].hi - self._journal[-1].lo
            and indices[0] == self._journal[-1].lo
            and indices[-1] == self._journal[-1].hi - 1
        ):
            snap = self._journal.pop()
            self.X_, self.y_ = snap.X, snap.y
            self.alpha_, self.gamma_ = snap.alpha, snap.gamma
            self.model_, self.fit_result_ = snap.model, snap.fit_result
            return self

        keep = np.ones(n, dtype=bool)
        keep[indices] = False
        y_keep = self.y_[keep]
        if np.unique(y_keep).size < 2:
            raise ValueError(
                "forget would leave a single-class dataset; the SVM "
                "needs both classes"
            )
        alpha_keep = self.alpha_[keep].copy()
        params = self._params()
        box = params.box_for(y_keep)
        # redistribute the removed α mass: clip to the box and repair
        # Σ α·y = 0 deterministically
        alpha_keep = project_feasible(alpha_keep, y_keep, box)

        self.X_ = self.X_.take_rows(np.flatnonzero(keep))
        self.y_ = y_keep
        # row indices shifted: every journal snapshot is now misaligned
        self._journal.clear()
        result = fit_parallel(
            self.X_,
            self.y_,
            params,
            config=self.config,
            warm_start_alpha=alpha_keep,
        )
        self._apply(result)
        cold = self._certify(result)
        self._record("forget", -int(indices.size), result, 0, cold)
        return self

    # ------------------------------------------------------------------
    # prediction / reporting
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.model_ is None:
            raise NotFittedError("call partial_fit() before predict/score")

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        return self.model_.decision_function(X)

    def predict(self, X) -> np.ndarray:
        """Predicted labels in the original label space."""
        self._check_fitted()
        signed = self.model_.predict(X)
        return np.where(signed > 0, self.classes_[1], self.classes_[0])

    def score(self, X, y) -> float:
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))

    @property
    def n_samples_(self) -> int:
        return int(self.X_.shape[0]) if self.X_ is not None else 0

    @property
    def kernel_evals_(self) -> int:
        """Cumulative incremental cost: every solve plus every γ seed."""
        return sum(r.kernel_evals for r in self.records_)

    @property
    def cold_kernel_evals_(self) -> Optional[int]:
        """Cumulative cold-retrain baseline (``certify=True`` only)."""
        if not self.records_ or not all(r.certified for r in self.records_):
            return None
        return sum(r.cold_kernel_evals for r in self.records_)

    @property
    def refit_vtime_(self) -> float:
        """Cumulative modeled solve time across all refits."""
        return sum(r.vtime for r in self.records_)
