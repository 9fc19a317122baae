"""SVC facade."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVC, NotFittedError
from repro.kernels import LinearKernel

from ..conftest import make_blobs


@pytest.fixture(scope="module")
def data():
    X, y = make_blobs(n=90, sep=2.5, noise=1.0, seed=11)
    return X.to_dense(), y


def test_fit_predict_score(data):
    Xd, y = data
    clf = SVC(C=10.0, gamma=0.5, config=RunConfig(nprocs=2)).fit(Xd, y)
    assert clf.score(Xd, y) > 0.85
    assert clf.n_iter_ > 0
    assert clf.n_support_ > 0


def test_string_labels_roundtrip(data):
    Xd, y = data
    labels = np.where(y > 0, "pos", "neg")
    clf = SVC(C=10.0, gamma=0.5).fit(Xd, labels)
    pred = clf.predict(Xd)
    assert set(pred) <= {"pos", "neg"}
    assert clf.score(Xd, labels) > 0.85


def test_integer_labels(data):
    Xd, y = data
    labels = np.where(y > 0, 7, 3)
    clf = SVC(C=10.0, gamma=0.5).fit(Xd, labels)
    assert set(clf.predict(Xd)) <= {3, 7}


def test_not_fitted_errors():
    clf = SVC()
    with pytest.raises(NotFittedError):
        clf.predict(np.ones((1, 2)))
    with pytest.raises(NotFittedError):
        _ = clf.support_


def test_needs_two_classes(data):
    Xd, _ = data
    with pytest.raises(ValueError):
        SVC().fit(Xd, np.ones(Xd.shape[0]))
    with pytest.raises(ValueError):
        SVC().fit(Xd, np.arange(Xd.shape[0]))


def test_sigma_sq_sets_gamma(data):
    Xd, y = data
    clf = SVC(C=10.0, sigma_sq=4.0).fit(Xd, y)
    assert clf.fit_result_.model.kernel.gamma == pytest.approx(0.25)


def test_gamma_and_sigma_sq_conflict():
    with pytest.raises(ValueError):
        SVC(gamma=1.0, sigma_sq=4.0)


def test_kernel_instance_accepted(data):
    Xd, y = data
    clf = SVC(
        C=5.0, kernel=LinearKernel(), config=RunConfig(heuristic="original")
    ).fit(Xd, y)
    assert clf.score(Xd, y) > 0.8


def test_heuristic_choice_does_not_change_predictions(data):
    Xd, y = data
    a = SVC(
        C=10.0, gamma=0.5, config=RunConfig(heuristic="original")
    ).fit(Xd, y)
    b = SVC(
        C=10.0, gamma=0.5, config=RunConfig(heuristic="multi2", nprocs=3)
    ).fit(Xd, y)
    assert np.array_equal(a.predict(Xd), b.predict(Xd))


def test_decision_function_consistent_with_predict(data):
    Xd, y = data
    clf = SVC(C=10.0, gamma=0.5).fit(Xd, y)
    f = clf.decision_function(Xd)
    pred = clf.predict(Xd)
    assert np.array_equal(pred, np.where(f >= 0, clf.classes_[1], clf.classes_[0]))


def test_get_set_params(data):
    cfg = RunConfig(heuristic="multi10pc", nprocs=4)
    clf = SVC(C=2.0, config=cfg)
    p = clf.get_params()
    assert p["C"] == 2.0 and p["config"] is cfg
    clf.set_params(C=5.0, config=cfg.replace(nprocs=2))
    assert clf.C == 5.0 and clf.config.nprocs == 2
    with pytest.raises(ValueError):
        clf.set_params(bogus=1)
    with pytest.raises(ValueError):
        clf.set_params(nprocs=2)  # a run-time knob lives in config


def test_fitted_attributes(data):
    Xd, y = data
    clf = SVC(C=10.0, gamma=0.5).fit(Xd, y)
    assert clf.support_.shape == (clf.n_support_,)
    assert clf.dual_coef_.shape == (clf.n_support_,)
    assert isinstance(clf.intercept_, float)
