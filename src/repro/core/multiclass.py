"""One-vs-one multiclass classification.

The paper's MNIST/USPS experiments treat binary sub-problems; real
deployments of those datasets are 10-class.  This wrapper implements
libsvm's multiclass strategy on top of the distributed binary solver:
k(k−1)/2 pairwise classifiers and majority voting, ties broken toward
the class appearing first (libsvm's convention).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Optional, Tuple

import numpy as np

from ..sparse.csr import CSRMatrix
from .svc import SVC, NotFittedError


class MultiClassSVC:
    """One-vs-one multiclass SVM; accepts the same parameters as
    :class:`~repro.core.svc.SVC` and trains one binary machine per
    class pair."""

    def __init__(self, **svc_params) -> None:
        # validate the parameter set eagerly by constructing a probe SVC
        SVC(**svc_params)
        self.svc_params = svc_params
        self.classes_: Optional[np.ndarray] = None
        self.machines_: Dict[Tuple[int, int], SVC] = {}

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "MultiClassSVC":
        y = np.asarray(y)
        X = self._as_csr(X)
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"{y.shape[0]} labels for {X.shape[0]} rows")
        self.classes_ = np.unique(y)
        k = self.classes_.size
        if k < 2:
            raise ValueError(f"need at least two classes, got {k}")
        self.machines_ = {}
        for i, j in combinations(range(k), 2):
            ci, cj = self.classes_[i], self.classes_[j]
            rows = np.flatnonzero((y == ci) | (y == cj))
            clf = SVC(**self.svc_params)
            clf.fit(X.take_rows(rows), y[rows])
            self.machines_[(i, j)] = clf
        return self

    def _check_fitted(self) -> None:
        if not self.machines_:
            raise NotFittedError("call fit() before predict/score")

    @staticmethod
    def _as_csr(X) -> CSRMatrix:
        if isinstance(X, CSRMatrix):
            return X
        return CSRMatrix.from_dense(np.asarray(X, dtype=np.float64))

    # ------------------------------------------------------------------
    def votes(self, X) -> np.ndarray:
        """(n_samples, n_classes) pairwise-vote counts."""
        self._check_fitted()
        X = self._as_csr(X)
        k = self.classes_.size
        tally = np.zeros((X.shape[0], k), dtype=np.int64)
        for (i, j), clf in self.machines_.items():
            pred = clf.predict(X)
            tally[:, i] += pred == self.classes_[i]
            tally[:, j] += pred == self.classes_[j]
        return tally

    def predict(self, X) -> np.ndarray:
        """Majority-vote labels (ties -> first class, as in libsvm)."""
        tally = self.votes(X)
        return self.classes_[np.argmax(tally, axis=1)]

    def score(self, X, y) -> float:
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the fitted multiclass ensemble to a JSON file.

        Stores the class vector (with dtype) plus every pairwise binary
        machine in the bit-exact :meth:`SVC.save <repro.core.svc.SVC.save>`
        format, so :meth:`load` reproduces ``predict`` bitwise in the
        original label space.  Run-time knobs (``machine``, ``faults``,
        ``config``) are not persisted.
        """
        import json
        from pathlib import Path

        self._check_fitted()
        doc = {
            "format": "repro-multiclass-svc",
            "version": 1,
            "classes": {
                "values": self.classes_.tolist(),
                "dtype": str(self.classes_.dtype),
            },
            "machines": [
                {"i": i, "j": j, "svc": clf._to_jsonable()}
                for (i, j), clf in sorted(self.machines_.items())
            ],
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "MultiClassSVC":
        """Load an ensemble written by :meth:`save` (fitted, ready to
        predict)."""
        import json
        from pathlib import Path

        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if doc.get("format") != "repro-multiclass-svc":
            raise ValueError(
                f"not a repro-multiclass-svc document "
                f"(format={doc.get('format')!r})"
            )
        obj = cls()
        obj.classes_ = np.asarray(
            doc["classes"]["values"], dtype=np.dtype(doc["classes"]["dtype"])
        )
        obj.machines_ = {
            (int(m["i"]), int(m["j"])): SVC._from_jsonable(m["svc"])
            for m in doc["machines"]
        }
        return obj

    # ------------------------------------------------------------------
    @property
    def n_machines_(self) -> int:
        self._check_fitted()
        return len(self.machines_)

    @property
    def total_iterations_(self) -> int:
        """Sum of binary solver iterations across all pairs."""
        self._check_fitted()
        return sum(m.n_iter_ for m in self.machines_.values())

    @property
    def total_support_(self) -> int:
        self._check_fitted()
        return sum(m.n_support_ for m in self.machines_.values())
