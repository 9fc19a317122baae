"""SVMModel: decision function, prediction, serialization."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.core.model import SVMModel
from repro.kernels import RBFKernel
from repro.sparse import CSRMatrix

from ..conftest import dense_kernel_matrix, make_blobs

PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5))


@pytest.fixture(scope="module")
def fitted():
    X, y = make_blobs(n=100, sep=2.5, noise=1.0, seed=9)
    fr = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=2))
    return X, y, fr


def test_decision_function_matches_dual_form(fitted):
    X, y, fr = fitted
    K = dense_kernel_matrix(X, PARAMS.kernel)
    f_direct = K @ (fr.alpha * y) - fr.model.beta
    f_model = fr.model.decision_function(X)
    assert np.allclose(f_model, f_direct, atol=1e-9)


def test_predict_signs(fitted):
    X, y, fr = fitted
    pred = fr.model.predict(X)
    assert set(np.unique(pred)) <= {-1.0, 1.0}
    assert fr.model.accuracy(X, y) > 0.85


def test_dense_input_and_single_row(fitted):
    X, y, fr = fitted
    dense = X.to_dense()
    f_dense = fr.model.decision_function(dense)
    f_sparse = fr.model.decision_function(X)
    assert np.allclose(f_dense, f_sparse)
    one = fr.model.decision_function(dense[0])
    assert one.shape == (1,)
    assert np.isclose(one[0], f_sparse[0])


def test_feature_count_mismatch(fitted):
    _, _, fr = fitted
    with pytest.raises(ValueError):
        fr.model.decision_function(np.ones((2, 99)))
    with pytest.raises(ValueError):
        fr.model.decision_function(CSRMatrix.empty(99))


def test_only_support_vectors_kept(fitted):
    X, y, fr = fitted
    assert fr.model.n_sv == int(np.count_nonzero(fr.alpha > 0))
    assert np.all(fr.alpha[fr.model.sv_indices] > 0)
    assert np.allclose(
        np.abs(fr.model.sv_coef), fr.alpha[fr.model.sv_indices]
    )


def test_b_is_minus_beta(fitted):
    _, _, fr = fitted
    assert fr.model.b == -fr.model.beta


def test_serialization_roundtrip(fitted):
    X, _, fr = fitted
    m2 = SVMModel.from_dict(fr.model.to_dict())
    assert np.allclose(
        m2.decision_function(X), fr.model.decision_function(X)
    )
    assert m2.kernel.params() == fr.model.kernel.params()


def test_coef_length_validation():
    with pytest.raises(ValueError):
        SVMModel(
            sv_X=CSRMatrix.from_dense(np.ones((2, 2))),
            sv_coef=np.ones(3),
            sv_indices=np.arange(3),
            beta=0.0,
            kernel=RBFKernel(1.0),
        )
