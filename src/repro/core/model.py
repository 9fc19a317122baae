"""The trained model: support vectors + hyperplane threshold.

The decision function is

    f(x) = Σ_j α_j y_j Φ(x_j, x) − β

with β the paper's hyperplane threshold (§III); predictions are
sign(f(x)).  Only samples with α > 0 (the support vectors, ζ) are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..kernels import Kernel, make_kernel
from ..sparse.csr import CSRMatrix

#: test rows evaluated per kernel slab — bounds prediction scratch at
#: roughly PREDICT_BLOCK_ROWS × n_sv doubles
PREDICT_BLOCK_ROWS = 1024


@dataclass
class SVMModel:
    """A trained two-class SVM."""

    sv_X: CSRMatrix  # support-vector rows
    sv_coef: np.ndarray  # α_j · y_j per support vector
    sv_indices: np.ndarray  # global training indices of the SVs
    beta: float  # hyperplane threshold; offset b = −β
    kernel: Kernel

    def __post_init__(self) -> None:
        if self.sv_coef.shape != (self.sv_X.shape[0],):
            raise ValueError(
                f"{self.sv_coef.shape[0]} coefficients for "
                f"{self.sv_X.shape[0]} support vectors"
            )
        self._sv_norms = self.sv_X.row_norms_sq()

    @property
    def n_sv(self) -> int:
        return self.sv_X.shape[0]

    @property
    def b(self) -> float:
        """Decision-function offset (−β)."""
        return -self.beta

    def decision_function(
        self,
        X: Union[CSRMatrix, np.ndarray],
        *,
        block_rows: int = PREDICT_BLOCK_ROWS,
    ) -> np.ndarray:
        """f(x) for every row of ``X``, evaluated block-at-a-time.

        Each block of test rows is one :func:`weighted_slab` against the
        support vectors plus one row sum, instead of a Python loop over
        rows.  The row sum is a pairwise reduction whose result depends
        only on the row's own values, so the decision value of a sample
        is bitwise independent of how the input is blocked or sharded
        (``decision_function_parallel`` relies on this) and, through
        :func:`weighted_slab`, of how the support vectors are sharded
        (serving relies on this).
        """
        X = _as_csr(X, self.sv_X.shape[1])
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        norms = X.row_norms_sq()
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], block_rows):
            hi = min(lo + block_rows, X.shape[0])
            slab = weighted_slab(
                self.kernel, self.sv_X, self._sv_norms, self.sv_coef,
                X.row_slice(lo, hi), norms[lo:hi],
            )
            out[lo:hi] = np.add.reduce(slab, axis=1) - self.beta
        return out

    def predict(self, X: Union[CSRMatrix, np.ndarray]) -> np.ndarray:
        """±1 labels for every row of ``X``."""
        f = self.decision_function(X)
        return np.where(f >= 0.0, 1.0, -1.0)

    def accuracy(self, X: Union[CSRMatrix, np.ndarray], y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y, dtype=np.float64)))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data representation (round-trips via :meth:`from_dict`).

        Format version 2: every float travels bit-exactly — ``sv_coef``
        as raw little-endian float64 bytes, ``beta`` and the kernel's
        float hyperparameters as IEEE-754 hex strings (``float.hex``).
        Version-1 dicts (plain JSON floats, flat kernel dict) are still
        accepted by :meth:`from_dict`; JSON's shortest-repr floats are
        value-exact for finite numbers, but the hex form is unambiguous
        about signed zeros / subnormals and survives any non-Python
        JSON round-trip unchanged.
        """
        return {
            "format": "repro-svm-model",
            "version": 2,
            "sv_X": self.sv_X.to_bytes(),
            "sv_coef": np.ascontiguousarray(
                self.sv_coef, dtype="<f8"
            ).tobytes(),
            "sv_indices": self.sv_indices.tolist(),
            "beta": float(self.beta).hex(),
            "kernel": {
                "name": self.kernel.name,
                "params": {
                    k: _encode_param(v) for k, v in self.kernel.params().items()
                },
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SVMModel":
        if d.get("version", 1) >= 2:
            kspec = d["kernel"]
            kernel = make_kernel(
                kspec["name"],
                **{k: _decode_param(v) for k, v in kspec["params"].items()},
            )
            coef_bytes = d["sv_coef"]
            sv_coef = np.frombuffer(coef_bytes, dtype="<f8").astype(
                np.float64, copy=True
            )
            beta = float.fromhex(d["beta"])
        else:  # version-1 dicts (pre-exact format)
            kparams = dict(d["kernel"])
            kernel = make_kernel(kparams.pop("name"), **kparams)
            sv_coef = np.asarray(d["sv_coef"], dtype=np.float64)
            beta = float(d["beta"])
        return cls(
            sv_X=CSRMatrix.from_bytes(d["sv_X"]),
            sv_coef=sv_coef,
            sv_indices=np.asarray(d["sv_indices"], dtype=np.int64),
            beta=beta,
            kernel=kernel,
        )


def weighted_slab(
    kernel: Kernel,
    sv: CSRMatrix,
    sv_norms: np.ndarray,
    coef: np.ndarray,
    rows: CSRMatrix,
    row_norms: np.ndarray,
) -> np.ndarray:
    """``coef[j] · Φ(sv_j, x_i)`` as a C-contiguous (rows × SVs) array:
    the slab whose row sums are decision values.

    The support vectors are the left operand of ``Kernel.block``, so
    entry (i, j) is the segment sum over SV j's own nonzeros against
    row i's dense tile row, whichever other SVs share ``sv`` and
    whichever rows share ``rows``.  ``decision_function`` and every
    serving rank (on its shard) build their slabs here; that is what
    keeps served scores bitwise equal to direct ones.
    """
    slab = np.ascontiguousarray(kernel.block(sv, sv_norms, rows, row_norms).T)
    slab *= coef
    return slab


def _encode_param(v):
    """JSON-safe, bit-exact kernel hyperparameter encoding."""
    if isinstance(v, bool) or isinstance(v, int):
        return v
    if isinstance(v, float):
        return {"hex": v.hex()}
    raise TypeError(f"kernel parameter of unsupported type {type(v).__name__}")


def _decode_param(v):
    if isinstance(v, dict):
        return float.fromhex(v["hex"])
    return v


def model_to_jsonable(model: SVMModel) -> dict:
    """:meth:`SVMModel.to_dict` with byte fields base64-encoded.

    The result is pure JSON data; shared by :func:`save_model` and the
    ``SVC``/``MultiClassSVC`` persistence layers.
    """
    import base64

    d = model.to_dict()
    d["sv_X"] = base64.b64encode(d["sv_X"]).decode("ascii")
    d["sv_coef"] = base64.b64encode(d["sv_coef"]).decode("ascii")
    return d


def model_from_jsonable(d: dict) -> SVMModel:
    """Inverse of :func:`model_to_jsonable` (accepts v1 and v2 dicts)."""
    import base64

    d = dict(d)
    d["sv_X"] = base64.b64decode(d["sv_X"])
    if d.get("version", 1) >= 2:
        d["sv_coef"] = base64.b64decode(d["sv_coef"])
    return SVMModel.from_dict(d)


def save_model(model: SVMModel, path) -> None:
    """Write a model to a JSON file (byte fields base64-encoded)."""
    import json
    from pathlib import Path

    Path(path).write_text(
        json.dumps(model_to_jsonable(model)), encoding="utf-8"
    )


def load_model(path) -> SVMModel:
    """Read a model written by :func:`save_model` (either format version)."""
    import json
    from pathlib import Path

    return model_from_jsonable(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


def _as_csr(X: Union[CSRMatrix, np.ndarray], n_features: int) -> CSRMatrix:
    if isinstance(X, CSRMatrix):
        if X.shape[1] != n_features:
            raise ValueError(
                f"{X.shape[1]} features in input, model has {n_features}"
            )
        return X
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != n_features:
        raise ValueError(
            f"{X.shape[1]} features in input, model has {n_features}"
        )
    return CSRMatrix.from_dense(X)
