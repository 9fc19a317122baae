"""Distributed batch prediction."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import (
    SVMParams,
    decision_function_parallel,
    fit_parallel,
    predict_parallel,
)
from repro.kernels import RBFKernel
from repro.perfmodel import MachineSpec
from repro.sparse import CSRMatrix

from ..conftest import make_blobs

PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5))


@pytest.fixture(scope="module")
def model_and_data():
    X, y = make_blobs(n=120, sep=2.2, noise=1.0, seed=31)
    fr = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=2))
    X_test, _ = make_blobs(n=77, sep=2.2, noise=1.0, seed=32)
    return fr.model, X_test


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_matches_serial_decision_function(model_and_data, p):
    model, X_test = model_and_data
    serial = model.decision_function(X_test)
    out = decision_function_parallel(model, X_test, config=RunConfig(nprocs=p))
    assert np.allclose(out.decision_values, serial, atol=1e-12)
    assert np.array_equal(out.labels, np.where(serial >= 0, 1.0, -1.0))


def test_predict_parallel_labels(model_and_data):
    model, X_test = model_and_data
    assert np.array_equal(
        predict_parallel(
            model, X_test, config=RunConfig(nprocs=4)
        ), model.predict(X_test)
    )


def test_vtime_charged(model_and_data):
    model, X_test = model_and_data
    out = decision_function_parallel(
        model, X_test,
        config=RunConfig(nprocs=2, machine=MachineSpec.cascade())
    )
    assert out.vtime > 0
    # kernel work split over ranks: per-rank compute below the serial total
    m = MachineSpec.cascade()
    serial_compute = m.time_kernel_evals(
        X_test.shape[0] * model.n_sv, model.sv_X.avg_row_nnz
    )
    for rs in out.spmd.rank_stats:
        assert rs.stats.compute_seconds < serial_compute


def test_more_ranks_than_rows_clamped(model_and_data):
    model, _ = model_and_data
    X_small = CSRMatrix.from_dense(np.random.default_rng(0).normal(size=(3, 3)))
    out = decision_function_parallel(
        model, X_small, config=RunConfig(nprocs=16)
    )
    assert out.decision_values.shape == (3,)


def test_validation(model_and_data):
    model, X_test = model_and_data
    with pytest.raises(ValueError):
        decision_function_parallel(model, X_test, config=RunConfig(nprocs=0))
    with pytest.raises(ValueError):
        decision_function_parallel(
            model, CSRMatrix.empty(3), config=RunConfig(nprocs=1)
        )
    with pytest.raises(ValueError):
        decision_function_parallel(
            model, np.ones((2, 99)), config=RunConfig(nprocs=1)
        )
