"""The public facade: top-level re-exports and the RunConfig."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from tests.conftest import make_blobs


def test_facade_exports_exist():
    for name in (
        "SVC", "MultiClassSVC", "SVMModel", "RunConfig", "train",
        "save_model", "load_model", "fit_parallel",
        "decision_function_parallel", "predict_parallel",
        "serve_requests", "BatchPolicy", "ServeResult", "ServeStats",
        "serve", "mpi",
    ):
        assert hasattr(repro, name), f"repro.{name} missing from facade"
        assert name in repro.__all__


def test_facade_and_deep_imports_are_same_objects():
    from repro.core.svc import SVC as deep_svc
    from repro.serve.server import serve_requests as deep_serve
    from repro.config import RunConfig as deep_config

    assert repro.SVC is deep_svc
    assert repro.serve_requests is deep_serve
    assert repro.RunConfig is deep_config
    assert repro.serve.serve_requests is deep_serve


def test_train_dispatches_on_class_count():
    X, y = make_blobs(n=60, seed=7)
    clf = repro.train(X, y, C=5.0, sigma_sq=2.0)
    assert isinstance(clf, repro.SVC)

    y3 = y.copy()
    y3[:20] = 2.0
    clf3 = repro.train(X, y3, C=5.0, sigma_sq=2.0)
    assert isinstance(clf3, repro.MultiClassSVC)

    with pytest.raises(ValueError, match="two classes"):
        repro.train(X, np.ones(60))


def test_runconfig_validation_and_merge():
    """Overrides merge into a config through ``replace``: the named
    fields change, the rest carry over, unknown names are rejected."""
    cfg = repro.RunConfig(nprocs=4, heuristic="single5pc")
    assert cfg.replace(nprocs=2).nprocs == 2
    assert cfg.replace(nprocs=2).heuristic == "single5pc"
    assert cfg.replace(trace=True).trace is True
    assert cfg.nprocs == 4  # frozen: replace returns a copy
    with pytest.raises(ValueError):
        repro.RunConfig(nprocs=0)
    with pytest.raises(ValueError):
        cfg.replace(nprocs=0)  # a replaced copy is validated again
    with pytest.raises(TypeError):
        cfg.replace(bogus=1)


def test_runconfig_threads_through_functional_api():
    X, y = make_blobs(n=60, seed=9)
    clf = repro.train(X, y, C=5.0, sigma_sq=2.0)
    direct = clf.model_.decision_function(X)
    out = repro.decision_function_parallel(
        clf.model_, X, config=repro.RunConfig(nprocs=3)
    )
    assert np.array_equal(out.decision_values, direct)
    labels = repro.predict_parallel(
        clf.model_, X, config=repro.RunConfig(nprocs=2)
    )
    assert np.array_equal(labels, np.sign(direct))
