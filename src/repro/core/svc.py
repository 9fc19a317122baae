"""High-level sklearn-style classifier facade.

Wraps the distributed solver with label mapping, kernel construction
from scalar hyperparameters and the familiar ``fit``/``predict``/
``score`` interface::

    from repro import RunConfig, SVC

    clf = SVC(C=10.0, sigma_sq=4.0,
              config=RunConfig(heuristic="multi5pc", nprocs=8))
    clf.fit(X_train, y_train)
    acc = clf.score(X_test, y_test)
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..config import RunConfig
from ..kernels import Kernel, build_kernel
from .params import SVMParams
from .solver import FitResult, fit_parallel


class NotFittedError(RuntimeError):
    """predict/score called before fit."""


class SVC:
    """Two-class support vector classifier on the simulated cluster.

    Parameters
    ----------
    C:
        Box constraint.
    kernel:
        Kernel name (``"rbf"``/``"linear"``/``"poly"``/``"sigmoid"``) or a
        :class:`~repro.kernels.Kernel` instance.
    gamma, sigma_sq:
        RBF width — give either γ directly or the paper's σ² (γ = 1/σ²).
    eps:
        SMO stopping tolerance ε (Eq. 5).
    max_iter:
        Iteration safety bound.
    shrink_eps_factor:
        Scale of the Eq. (9) shrinking threshold relative to ``eps``.
    class_weight:
        ``None`` (unweighted), a ``{label: weight}`` dict in the
        original label space, or ``"balanced"`` (weights inversely
        proportional to class frequencies, as in sklearn/libsvm).
    config:
        The run-time knobs — process count, Table II heuristic, machine
        model, ... — as one :class:`~repro.config.RunConfig` (``None``
        means ``RunConfig()``).
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
        class_weight: Optional[Union[dict, str]] = None,
        config: Optional[RunConfig] = None,
    ) -> None:
        if gamma is not None and sigma_sq is not None:
            raise ValueError("give either gamma or sigma_sq, not both")
        self.C = C
        self.kernel = kernel
        self.gamma = gamma
        self.sigma_sq = sigma_sq
        self.eps = eps
        self.max_iter = max_iter
        self.shrink_eps_factor = shrink_eps_factor
        self.class_weight = class_weight
        self.config = config if config is not None else RunConfig()

        self.model_ = None
        self.fit_result_: Optional[FitResult] = None
        self.classes_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _class_weights(self, y: np.ndarray) -> tuple:
        """(weight_neg, weight_pos) for classes_ = (neg_label, pos_label)."""
        if self.class_weight is None:
            return 1.0, 1.0
        neg_label, pos_label = self.classes_
        if self.class_weight == "balanced":
            n = y.shape[0]
            n_pos = int(np.count_nonzero(y == pos_label))
            n_neg = n - n_pos
            if n_pos == 0 or n_neg == 0:
                raise ValueError("balanced weights need both classes present")
            return n / (2.0 * n_neg), n / (2.0 * n_pos)
        if isinstance(self.class_weight, dict):
            try:
                return (
                    float(self.class_weight[neg_label]),
                    float(self.class_weight[pos_label]),
                )
            except KeyError as exc:
                raise ValueError(
                    f"class_weight missing an entry for label {exc.args[0]!r}"
                ) from None
        raise ValueError(
            f"class_weight must be None, 'balanced' or a dict; "
            f"got {self.class_weight!r}"
        )

    def _params(self, weight_neg: float = 1.0, weight_pos: float = 1.0) -> SVMParams:
        return SVMParams(
            C=self.C,
            kernel=build_kernel(self.kernel, self.gamma, self.sigma_sq),
            eps=self.eps,
            max_iter=self.max_iter,
            shrink_eps_factor=self.shrink_eps_factor,
            weight_pos=weight_pos,
            weight_neg=weight_neg,
        )

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "SVC":
        """Train on ``(X, y)``; y may use any two label values."""
        y = np.asarray(y)
        classes = np.unique(y)
        if classes.size != 2:
            raise ValueError(
                f"need exactly two classes, got {classes.size}: {classes!r}"
            )
        # map to −1/+1 with the larger label as +1 (sklearn convention)
        self.classes_ = classes
        y_signed = np.where(y == classes[1], 1.0, -1.0)
        weight_neg, weight_pos = self._class_weights(y)
        self.fit_result_ = fit_parallel(
            X,
            y_signed,
            self._params(weight_neg, weight_pos),
            config=self.config,
        )
        self.model_ = self.fit_result_.model
        return self

    def _check_fitted(self) -> None:
        if self.model_ is None:
            raise NotFittedError("call fit() before predict/score")

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        return self.model_.decision_function(X)

    def predict(self, X) -> np.ndarray:
        """Predicted labels in the original label space."""
        self._check_fitted()
        signed = self.model_.predict(X)
        return np.where(signed > 0, self.classes_[1], self.classes_[0])

    def score(self, X, y) -> float:
        """Mean accuracy on ``(X, y)``."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))

    # ------------------------------------------------------------------
    # fitted attributes (sklearn-flavoured)
    # ------------------------------------------------------------------
    @property
    def support_(self) -> np.ndarray:
        self._check_fitted()
        return self.model_.sv_indices

    @property
    def dual_coef_(self) -> np.ndarray:
        self._check_fitted()
        return self.model_.sv_coef

    @property
    def intercept_(self) -> float:
        self._check_fitted()
        return self.model_.b

    @property
    def n_iter_(self) -> int:
        self._check_fitted()
        return self.fit_result_.iterations

    @property
    def n_support_(self) -> int:
        self._check_fitted()
        return self.model_.n_sv

    def get_params(self) -> dict:
        return {
            "C": self.C,
            "kernel": self.kernel,
            "gamma": self.gamma,
            "sigma_sq": self.sigma_sq,
            "eps": self.eps,
            "max_iter": self.max_iter,
            "shrink_eps_factor": self.shrink_eps_factor,
            "class_weight": self.class_weight,
            "config": self.config,
        }

    def set_params(self, **kwargs) -> "SVC":
        for k, v in kwargs.items():
            if not hasattr(self, k):
                raise ValueError(f"unknown parameter {k!r}")
            setattr(self, k, v)
        return self

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the fitted classifier (labels + model) to a JSON file.

        On top of the bit-exact :func:`~repro.core.model.save_model`
        format this records the original label space (``classes_`` with
        dtype) and the scalar hyperparameters, so :meth:`load` returns a
        classifier whose ``predict`` output is bitwise identical in the
        original labels.  Of the run-time knobs only ``heuristic``,
        ``nprocs`` and ``dc`` are recorded; the rest (``machine``,
        ``faults``, ...) describe the simulated cluster, not the model.
        """
        import json
        from pathlib import Path

        self._check_fitted()
        Path(path).write_text(
            json.dumps(self._to_jsonable()), encoding="utf-8"
        )

    def _to_jsonable(self) -> dict:
        from .model import model_to_jsonable

        cw = self.class_weight
        if isinstance(cw, dict):
            # JSON stringifies dict keys; a pair list keeps label types
            cw = {"pairs": [[k, float(v)] for k, v in cw.items()]}
        run = self.config.to_dict()
        return {
            "format": "repro-svc",
            "version": 1,
            "classes": {
                "values": self.classes_.tolist(),
                "dtype": str(self.classes_.dtype),
            },
            "params": {
                "C": self.C,
                "gamma": self.gamma,
                "sigma_sq": self.sigma_sq,
                "eps": self.eps,
                "heuristic": run["heuristic"],
                "nprocs": run["nprocs"],
                "max_iter": self.max_iter,
                "shrink_eps_factor": self.shrink_eps_factor,
                "class_weight": cw,
                "dc": run["dc"],
            },
            "model": model_to_jsonable(self.model_),
        }

    @classmethod
    def load(cls, path) -> "SVC":
        """Load a classifier written by :meth:`save` (fitted, ready to
        predict; ``fit_result_`` is not persisted)."""
        import json
        from pathlib import Path

        return cls._from_jsonable(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )

    @classmethod
    def _from_jsonable(cls, doc: dict) -> "SVC":
        from .model import model_from_jsonable

        if doc.get("format") != "repro-svc":
            raise ValueError(
                f"not a repro-svc document (format={doc.get('format')!r})"
            )
        params = dict(doc["params"])
        # older documents carry params.engine, an iteration-engine
        # choice that no longer exists: drop it so they still load
        params.pop("engine", None)
        cw = params.get("class_weight")
        if isinstance(cw, dict):
            params["class_weight"] = {k: v for k, v in cw["pairs"]}
        # the recorded run-time knobs are read into a RunConfig
        knobs = {k: params.pop(k, None) for k in ("heuristic", "nprocs", "dc")}
        config = RunConfig(**{k: v for k, v in knobs.items() if v is not None})
        model = model_from_jsonable(doc["model"])
        clf = cls(kernel=model.kernel, config=config, **params)
        clf.model_ = model
        clf.classes_ = np.asarray(
            doc["classes"]["values"], dtype=np.dtype(doc["classes"]["dtype"])
        )
        return clf
