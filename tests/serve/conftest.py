"""Serving fixtures: one trained model + a request pool, reused
across the serve test modules (training is the slow part)."""

from __future__ import annotations

import pytest

from repro.core import SVC
from repro.serve import sample_requests
from tests.conftest import make_blobs


@pytest.fixture(scope="module")
def served_model():
    """(model, request_pool) — hard blobs so the SV set is non-trivial."""
    X, y = make_blobs(n=120, sep=1.2, noise=1.3, seed=3)
    clf = SVC(C=10.0, sigma_sq=2.0).fit(X, y)
    return clf.model_, X


@pytest.fixture(scope="module")
def requests_60(served_model):
    _, pool = served_model
    return sample_requests(pool, 60, seed=1, duplicate_fraction=0.25)
