"""Per-class weighted C (libsvm -w style)."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVC, SVMParams, fit_parallel, solve_sequential
from repro.kernels import RBFKernel
from repro.sparse import CSRMatrix


def imbalanced(seed=0, n_pos=15, n_neg=120):
    rng = np.random.default_rng(seed)
    Xd = np.vstack(
        [rng.normal(1.2, 1.0, (n_pos, 3)), rng.normal(-1.2, 1.0, (n_neg, 3))]
    )
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    return CSRMatrix.from_dense(Xd), y


def test_params_validation():
    with pytest.raises(ValueError):
        SVMParams(weight_pos=0.0)
    with pytest.raises(ValueError):
        SVMParams(weight_neg=-1.0)
    assert not SVMParams().weighted
    assert SVMParams(weight_pos=2.0).weighted


def test_box_for_scalar_and_array():
    p = SVMParams(C=4.0, weight_pos=2.0, weight_neg=0.5)
    assert p.box_for(1.0) == 8.0
    assert p.box_for(-1.0) == 2.0
    out = p.box_for(np.array([1.0, -1.0, 1.0]))
    assert np.array_equal(out, [8.0, 2.0, 8.0])


def test_weighted_alpha_respects_per_class_bounds():
    X, y = imbalanced()
    params = SVMParams(
        C=1.0, kernel=RBFKernel(0.5), weight_pos=5.0, weight_neg=1.0
    )
    res = solve_sequential(X, y, params)
    assert res.alpha[y > 0].max() <= 5.0 + 1e-9
    assert res.alpha[y < 0].max() <= 1.0 + 1e-9
    # positive class actually uses its enlarged box
    assert res.alpha[y > 0].max() > 1.0 + 1e-9


def test_weighting_improves_minority_recall():
    X, y = imbalanced(seed=3)
    kern = RBFKernel(0.5)
    plain = solve_sequential(X, y, SVMParams(C=0.3, kernel=kern))
    weighted = solve_sequential(
        X, y, SVMParams(C=0.3, kernel=kern, weight_pos=8.0)
    )
    from ..conftest import dense_kernel_matrix

    K = dense_kernel_matrix(X, kern)

    def recall(res):
        f = K @ (res.alpha * y) - res.beta
        return np.mean(f[y > 0] > 0)

    assert recall(weighted) >= recall(plain)


def test_parallel_matches_sequential_weighted():
    X, y = imbalanced(seed=5)
    params = SVMParams(
        C=2.0, kernel=RBFKernel(0.5), weight_pos=3.0, weight_neg=0.7
    )
    ref = solve_sequential(X, y, params)
    for heur in ("original", "multi5pc"):
        for p in (1, 3):
            fr = fit_parallel(
                X, y, params, config=RunConfig(heuristic=heur, nprocs=p)
            )
            assert np.allclose(fr.alpha, ref.alpha, atol=0.05 * params.C)


def test_weighted_equality_constraint_holds():
    X, y = imbalanced(seed=7)
    params = SVMParams(
        C=1.0, kernel=RBFKernel(0.5), weight_pos=4.0, weight_neg=0.5
    )
    fr = fit_parallel(
        X, y, params, config=RunConfig(heuristic="multi2", nprocs=2)
    )
    assert abs(float(fr.alpha @ y)) < 1e-8


def test_unweighted_path_unchanged(blobs, rbf_params):
    """weight 1.0/1.0 must reproduce the scalar-C behaviour bitwise."""
    X, y = blobs
    a = solve_sequential(X, y, rbf_params)
    explicit = SVMParams(
        C=rbf_params.C, kernel=rbf_params.kernel, eps=rbf_params.eps,
        max_iter=rbf_params.max_iter, weight_pos=1.0, weight_neg=1.0,
    )
    b = solve_sequential(X, y, explicit)
    assert np.array_equal(a.alpha, b.alpha)


class TestSVCClassWeight:
    def test_dict_weights(self):
        X, y = imbalanced(seed=9)
        labels = np.where(y > 0, "rare", "common")
        clf = SVC(
            C=0.3, gamma=0.5, class_weight={"rare": 8.0, "common": 1.0}
        ).fit(X, labels)
        plain = SVC(C=0.3, gamma=0.5).fit(X, labels)
        rare = labels == "rare"
        assert np.mean(clf.predict(X)[rare] == "rare") >= np.mean(
            plain.predict(X)[rare] == "rare"
        )

    def test_balanced(self):
        X, y = imbalanced(seed=11)
        clf = SVC(C=0.3, gamma=0.5, class_weight="balanced").fit(X, y)
        assert clf.score(X, y) > 0.7
        # the balanced weights were actually applied
        wn = clf.fit_result_.stats
        assert clf.fit_result_ is not None

    def test_missing_label_in_dict(self):
        X, y = imbalanced()
        with pytest.raises(ValueError):
            SVC(class_weight={1.0: 2.0}).fit(X, y)

    def test_bad_type(self):
        X, y = imbalanced()
        with pytest.raises(ValueError):
            SVC(class_weight="bogus").fit(X, y)

    def test_get_params_roundtrip(self):
        clf = SVC(class_weight="balanced")
        assert clf.get_params()["class_weight"] == "balanced"
