"""IncrementalSVC: warm refits certified equivalent to cold solves."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.config import RunConfig
from repro.core.svc import NotFittedError
from repro.stream import IncrementalSVC

from ..conftest import make_blobs


def stream_batches(n_batches=3, n=24, seed0=0):
    """Deterministic batches, each containing both classes."""
    return [
        make_blobs(n=n, sep=2.0, noise=1.1, seed=seed0 + t)
        for t in range(n_batches)
    ]


def probe():
    X, _ = make_blobs(n=40, sep=2.0, noise=1.5, seed=99)
    return X


# ----------------------------------------------------------------------
# the equivalence matrix: every partial_fit certified against a cold
# full solve, across process counts and kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nprocs", [1, 2, 4])
@pytest.mark.parametrize("kernel", ["rbf", "linear"])
def test_partial_fit_certified_equivalent(nprocs, kernel):
    clf = IncrementalSVC(
        C=5.0,
        kernel=kernel,
        gamma=0.5 if kernel == "rbf" else None,
        config=RunConfig(nprocs=nprocs),
        certify=True,  # assert_model_equiv runs inside every refit
    )
    for Xb, yb in stream_batches():
        clf.partial_fit(Xb, yb)
    assert len(clf.records_) == 3
    assert all(r.certified for r in clf.records_)
    assert clf.records_[0].kind == "cold"
    assert all(r.kind == "partial_fit" for r in clf.records_[1:])


def test_stream_result_independent_of_nprocs():
    # the solver's p-independence guarantee carries over to warm
    # streaming refits: bitwise-identical duals at every process count
    # (the bias β is a cross-rank reduction, so decisions agree to ulp)
    outs = []
    for p in (1, 2, 4):
        clf = IncrementalSVC(C=5.0, gamma=0.5, config=RunConfig(nprocs=p))
        for Xb, yb in stream_batches():
            clf.partial_fit(Xb, yb)
        outs.append((clf.alpha_, clf.decision_function(probe())))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][0], outs[2][0])
    np.testing.assert_allclose(outs[0][1], outs[1][1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(outs[0][1], outs[2][1], rtol=0, atol=1e-12)


def test_warm_refit_cheaper_than_cold():
    clf = IncrementalSVC(
        C=5.0, gamma=0.5, config=RunConfig(nprocs=2), certify=True
    )
    for Xb, yb in stream_batches(n_batches=4):
        clf.partial_fit(Xb, yb)
    # cumulative: warm path (seeding included) beats the cold baseline
    assert clf.cold_kernel_evals_ is not None
    assert clf.kernel_evals_ < clf.cold_kernel_evals_
    # and the γ seed was actually charged
    assert any(r.seed_kernel_evals > 0 for r in clf.records_[1:])


# ----------------------------------------------------------------------
# forget
# ----------------------------------------------------------------------
def test_forget_last_batch_is_bitwise_rollback():
    clf = IncrementalSVC(C=5.0, gamma=0.5, config=RunConfig(nprocs=2))
    b = stream_batches(n_batches=3)
    clf.partial_fit(*b[0]).partial_fit(*b[1])
    before = clf.decision_function(probe())
    alpha_before = clf.alpha_.copy()
    n_before = clf.n_samples_

    clf.partial_fit(*b[2])
    assert clf.n_samples_ == n_before + b[2][0].shape[0]
    clf.forget(np.arange(n_before, clf.n_samples_))

    assert clf.n_samples_ == n_before
    assert np.array_equal(clf.decision_function(probe()), before)
    assert np.array_equal(clf.alpha_, alpha_before)
    # the rollback costs no solver work: still exactly 3 refit records
    assert len(clf.records_) == 3


def test_forget_general_removal_certified():
    clf = IncrementalSVC(
        C=5.0, gamma=0.5, config=RunConfig(nprocs=2), certify=True
    )
    for Xb, yb in stream_batches(n_batches=3):
        clf.partial_fit(Xb, yb)
    n = clf.n_samples_
    clf.forget(np.arange(0, n, 5))  # scattered rows, incl. likely SVs
    rec = clf.records_[-1]
    assert rec.kind == "forget"
    assert rec.certified  # assert_model_equiv held vs a cold solve
    assert rec.n_new == -len(np.arange(0, n, 5))
    assert clf.n_samples_ == n - len(np.arange(0, n, 5))


def test_forget_validation():
    clf = IncrementalSVC(C=5.0, gamma=0.5)
    with pytest.raises(NotFittedError):
        clf.forget([0])
    Xb, yb = make_blobs(n=24, seed=0)
    clf.partial_fit(Xb, yb)
    with pytest.raises(ValueError, match="out of range"):
        clf.forget([24])
    with pytest.raises(ValueError, match="single-class"):
        clf.forget(np.flatnonzero(clf.y_ > 0))
    clf.forget([])  # no-op
    assert clf.n_samples_ == 24


# ----------------------------------------------------------------------
# sklearn-style API surface
# ----------------------------------------------------------------------
def test_labels_mapped_back_to_original_space():
    Xb, yb = make_blobs(n=30, seed=1)
    labels = np.where(yb > 0, 7, 3)  # arbitrary non-±1 labels
    clf = IncrementalSVC(C=5.0, gamma=0.5).partial_fit(Xb, labels)
    assert np.array_equal(clf.classes_, [3, 7])
    pred = clf.predict(Xb)
    assert set(np.unique(pred)) <= {3, 7}
    assert clf.score(Xb, labels) > 0.9


def test_batch_validation():
    clf = IncrementalSVC()
    Xb, yb = make_blobs(n=20, seed=0)
    with pytest.raises(ValueError, match="exactly two classes"):
        clf.partial_fit(Xb, np.ones(20))
    clf.partial_fit(Xb, yb)
    with pytest.raises(ValueError, match="labels"):
        clf.partial_fit(Xb, np.where(yb > 0, 2.0, -1.0))
    with pytest.raises(ValueError, match="features"):
        clf.partial_fit(np.ones((4, 9)), np.array([1.0, -1.0, 1.0, -1.0]))
    with pytest.raises(ValueError, match="labels for"):
        clf.partial_fit(Xb, yb[:-1])


def test_constructor_validation():
    with pytest.raises(ValueError, match="gamma or sigma_sq"):
        IncrementalSVC(gamma=0.5, sigma_sq=2.0)
    with pytest.raises(ValueError, match="dc"):
        IncrementalSVC(config=RunConfig(dc="4"))
    with pytest.raises(NotFittedError):
        IncrementalSVC().predict(np.ones((1, 2)))


def test_facade_exports():
    assert repro.IncrementalSVC is IncrementalSVC
    assert repro.stream.IncrementalSVC is IncrementalSVC
    from repro.stream import StreamScenario, run_stream

    assert repro.StreamScenario is StreamScenario
    assert repro.run_stream is run_stream
