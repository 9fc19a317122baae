"""Cross-validation and grid-search utilities (§V-C)."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import (
    SVC,
    cross_val_score,
    grid_search,
    kfold_indices,
    stratified_kfold_indices,
)
from repro.kernels import RBFKernel

from ..conftest import make_blobs


def test_kfold_partitions_exactly():
    n, k = 25, 4
    seen = []
    for train, test in kfold_indices(n, k, seed=1):
        assert np.intersect1d(train, test).size == 0
        assert np.union1d(train, test).size == n
        seen.append(test)
    all_test = np.concatenate(seen)
    assert np.array_equal(np.sort(all_test), np.arange(n))


def test_kfold_bad_k():
    with pytest.raises(ValueError):
        list(kfold_indices(5, 1))
    with pytest.raises(ValueError):
        list(kfold_indices(5, 6))


def test_kfold_no_shuffle_deterministic():
    a = [t.tolist() for _, t in kfold_indices(10, 2, shuffle=False)]
    assert a == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]


def test_stratified_preserves_ratio():
    y = np.array([1] * 30 + [-1] * 10)
    for train, test in stratified_kfold_indices(y, 5, seed=0):
        frac = np.mean(y[test] == 1)
        assert 0.6 <= frac <= 0.9  # ~0.75 in every fold


def test_stratified_covers_everything():
    y = np.array([1, 1, 1, -1, -1, -1, 1, -1])
    tests = [t for _, t in stratified_kfold_indices(y, 2, seed=0)]
    assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(8))


def test_cross_val_score_reasonable():
    X, y = make_blobs(n=80, sep=3.0, noise=0.8, seed=13)
    clf = SVC(C=10.0, gamma=0.5)
    scores = cross_val_score(clf, X, y, k=4, seed=0)
    assert scores.shape == (4,)
    assert scores.mean() > 0.85


def test_cross_val_does_not_mutate_clf():
    X, y = make_blobs(n=40, sep=3.0, seed=14)
    clf = SVC(C=10.0, gamma=0.5)
    cross_val_score(clf, X, y, k=2)
    assert clf.model_ is None  # the original was never fitted


def test_cross_val_clones_a_kernel_instance(tmp_path):
    """A Kernel instance clones with its own parameters: both spellings
    of γ=0.05, and a saved-and-loaded classifier (whose kernel is the
    model's instance), score bitwise-equal folds."""
    X, y = make_blobs(n=80, sep=1.2, noise=1.3, seed=3)
    via_gamma = cross_val_score(SVC(C=10.0, gamma=0.05), X, y, k=4)
    instance = SVC(C=10.0, kernel=RBFKernel(0.05))
    assert np.array_equal(cross_val_score(instance, X, y, k=4), via_gamma)
    path = tmp_path / "svc.json"
    instance.fit(X, y).save(path)
    loaded = SVC.load(path)
    assert np.array_equal(cross_val_score(loaded, X, y, k=4), via_gamma)


def test_grid_search_prefers_sane_region():
    X, y = make_blobs(n=60, sep=2.5, noise=1.0, seed=15)
    # σ² = 1e-6 makes every pair orthogonal under the RBF kernel: the
    # model memorizes the training fold and generalizes at chance level
    res = grid_search(
        X, y, Cs=[10.0], sigma_sqs=[1e-6, 2.0], k=3,
        base_params={"config": RunConfig(heuristic="original")},
    )
    assert res.best_params["sigma_sq"] == 2.0
    assert len(res.table) == 2
    assert res.best_score == max(s for _, s in res.table)
