"""Cross-validation and hyperparameter search (§V-C).

The paper selects (C, σ²) per dataset by ten-fold cross-validation with
libsvm.  These utilities provide the same workflow against the
reproduction's solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..sparse.csr import CSRMatrix
from .svc import SVC


def kfold_indices(
    n: int, k: int, *, seed: Optional[int] = 0, shuffle: bool = True
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(train_idx, test_idx)`` pairs for k-fold CV."""
    if not 2 <= k <= n:
        raise ValueError(f"k must be in [2, n={n}], got {k}")
    order = np.arange(n)
    if shuffle:
        rng = np.random.default_rng(seed)
        rng.shuffle(order)
    folds = np.array_split(order, k)
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        yield np.sort(train), np.sort(test)


def stratified_kfold_indices(
    y: np.ndarray, k: int, *, seed: Optional[int] = 0
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """k-fold split preserving per-class proportions."""
    y = np.asarray(y)
    n = y.shape[0]
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % k
    for i in range(k):
        test = np.flatnonzero(fold_of == i)
        train = np.flatnonzero(fold_of != i)
        if test.size == 0 or train.size == 0:
            raise ValueError(f"fold {i} is empty; reduce k={k}")
        yield train, test


def _take(X, idx: np.ndarray):
    if isinstance(X, CSRMatrix):
        return X.take_rows(idx)
    return np.asarray(X)[idx]


def cross_val_score(
    clf: SVC, X, y, *, k: int = 10, seed: Optional[int] = 0,
    stratified: bool = True,
) -> np.ndarray:
    """Per-fold accuracy of a fresh clone of ``clf`` on each split."""
    y = np.asarray(y)
    splitter = (
        stratified_kfold_indices(y, k, seed=seed)
        if stratified
        else kfold_indices(y.shape[0], k, seed=seed)
    )
    params = clf.get_params()
    scores = []
    for train, test in splitter:
        fold_clf = SVC(**params)
        fold_clf.fit(_take(X, train), y[train])
        scores.append(fold_clf.score(_take(X, test), y[test]))
    return np.asarray(scores)


@dataclass
class GridSearchResult:
    """Winner and the full score table of a grid search."""

    best_params: dict
    best_score: float
    table: List[Tuple[dict, float]]


def grid_search(
    X,
    y,
    *,
    Cs: Sequence[float],
    sigma_sqs: Sequence[float],
    k: int = 10,
    seed: Optional[int] = 0,
    base_params: Optional[dict] = None,
) -> GridSearchResult:
    """Ten-fold CV over a (C, σ²) grid — the paper's §V-C procedure."""
    base = dict(base_params or {})
    table: List[Tuple[dict, float]] = []
    best: Tuple[float, dict] = (-np.inf, {})
    for C in Cs:
        for s2 in sigma_sqs:
            params = {**base, "C": C, "sigma_sq": s2}
            clf = SVC(**params)
            score = float(cross_val_score(clf, X, y, k=k, seed=seed).mean())
            table.append((params, score))
            if score > best[0]:
                best = (score, params)
    return GridSearchResult(best_params=best[1], best_score=best[0], table=table)
