"""Serving fixtures: trained models + request pools, reused across the
serve test modules (training is the slow part)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVC, SVMParams, fit_parallel
from repro.data import load_dataset
from repro.data.registry import get_entry
from repro.kernels import RBFKernel
from repro.serve import sample_requests
from repro.sparse import CSRMatrix
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


@pytest.fixture(scope="module")
def sparse_model():
    """(model, requests) in the regime serving runs in: a wide, sparse
    support-vector set — a small real-sim stand-in (~2100 features,
    ~50 nonzeros a row) fitted at p=1.  The requests are 100 held-out
    rows plus an empty row and a row (with negative values) whose
    columns no support vector has, in the middle of the stream."""
    ds = load_dataset("real-sim", scale=0.01)
    X = ds.X_train
    y = np.where(ds.y_train > 0, 1.0, -1.0)
    cut = X.shape[0] - 100
    entry = get_entry("real-sim")
    params = SVMParams(
        C=entry.C, kernel=RBFKernel.from_sigma_sq(entry.sigma_sq)
    )
    model = fit_parallel(
        X.row_slice(0, cut), y[:cut], params, config=RunConfig(nprocs=1)
    ).model
    unused = np.flatnonzero(model.sv_X.col_nnz() == 0)
    assert unused.size >= 3 and model.n_sv >= 3
    odd = CSRMatrix.from_rows(
        [
            (np.empty(0, np.int64), np.empty(0)),
            (unused[:3], np.array([-1.5, 2.0, -0.25])),
        ],
        X.shape[1],
    )
    mid = cut + 50
    requests = CSRMatrix.vstack(
        [X.row_slice(cut, mid), odd, X.row_slice(mid, X.shape[0])]
    )
    return model, requests
