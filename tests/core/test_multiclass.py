"""One-vs-one multiclass wrapper."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import MultiClassSVC, NotFittedError
from repro.sparse import CSRMatrix


def three_classes(seed=0, per=40, d=3):
    rng = np.random.default_rng(seed)
    centers = np.array([[3.0, 0.0, 0.0], [-2.0, 2.5, 0.0], [-2.0, -2.5, 0.0]])
    X = np.vstack(
        [rng.normal(c[:d], 0.8, (per, d)) for c in centers[:, :d]]
    )
    y = np.repeat(np.array(["a", "b", "c"]), per)
    perm = rng.permutation(3 * per)
    return CSRMatrix.from_dense(X[perm]), y[perm]


@pytest.fixture(scope="module")
def fitted():
    X, y = three_classes()
    clf = MultiClassSVC(
        C=10.0, gamma=0.5, config=RunConfig(heuristic="multi5pc", nprocs=2)
    )
    clf.fit(X, y)
    return X, y, clf


def test_three_class_accuracy(fitted):
    X, y, clf = fitted
    assert clf.score(X, y) > 0.95


def test_machine_count_is_k_choose_2(fitted):
    _, _, clf = fitted
    assert clf.n_machines_ == 3
    X4, y4 = three_classes()
    y4 = y4.copy()
    y4[:20] = "d"
    clf4 = MultiClassSVC(C=10.0, gamma=0.5).fit(X4, y4)
    assert clf4.n_machines_ == 6  # 4 choose 2


def test_votes_shape_and_budget(fitted):
    X, y, clf = fitted
    tally = clf.votes(X)
    assert tally.shape == (X.shape[0], 3)
    # each sample gets exactly k(k-1)/2 votes in total
    assert np.all(tally.sum(axis=1) == 3)


def test_predict_returns_original_labels(fitted):
    X, _, clf = fitted
    assert set(np.unique(clf.predict(X))) <= {"a", "b", "c"}


def test_two_class_degenerate_case():
    X, y = three_classes()
    mask = y != "c"
    idx = np.flatnonzero(mask)
    clf = MultiClassSVC(C=10.0, gamma=0.5).fit(X.take_rows(idx), y[idx])
    assert clf.n_machines_ == 1
    assert clf.score(X.take_rows(idx), y[idx]) > 0.95


def test_not_fitted():
    clf = MultiClassSVC(C=1.0)
    with pytest.raises(NotFittedError):
        clf.predict(np.ones((1, 3)))


def test_single_class_rejected():
    X, y = three_classes()
    with pytest.raises(ValueError):
        MultiClassSVC(C=1.0).fit(X, np.repeat("a", X.shape[0]))


def test_label_count_mismatch():
    X, y = three_classes()
    with pytest.raises(ValueError):
        MultiClassSVC(C=1.0).fit(X, y[:-1])


def test_bad_svc_params_fail_fast():
    with pytest.raises(ValueError):
        MultiClassSVC(gamma=1.0, sigma_sq=2.0)


def test_stats_aggregation(fitted):
    _, _, clf = fitted
    assert clf.total_iterations_ > 0
    assert clf.total_support_ > 0


def test_dense_input(fitted):
    X, y, clf = fitted
    dense_pred = clf.predict(X.to_dense())
    sparse_pred = clf.predict(X)
    assert np.array_equal(dense_pred, sparse_pred)
