"""ε-SVR on the distributed shrinking engine."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVR, NotFittedError, SVMParams, fit_svr_parallel
from repro.kernels import LinearKernel, RBFKernel
from repro.sparse import CSRMatrix


def sine_problem(n=120, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(-3, 3, n))[:, None]
    y = np.sin(X[:, 0]) + rng.normal(0, noise, n)
    return X, y


PARAMS = SVMParams(C=10.0, kernel=RBFKernel(1.0), eps=1e-3, max_iter=200_000)


class TestFitSVRParallel:
    def test_sine_fit_quality(self):
        X, y = sine_problem()
        res = fit_svr_parallel(
            X, y, PARAMS, epsilon=0.1, config=RunConfig(nprocs=2)
        )
        pred = res.model.decision_function(X)
        # predictions within tube + noise of the true function
        assert np.abs(pred - np.sin(X[:, 0])).max() < 0.25

    def test_deterministic_across_p(self):
        X, y = sine_problem(seed=1)
        a = fit_svr_parallel(X, y, PARAMS, config=RunConfig(nprocs=1))
        b = fit_svr_parallel(X, y, PARAMS, config=RunConfig(nprocs=5))
        assert np.array_equal(a.beta_coef, b.beta_coef)
        assert a.iterations == b.iterations

    def test_shrinking_matches_original(self):
        X, y = sine_problem(seed=2)
        shr = fit_svr_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi5pc", nprocs=2)
        )
        orig = fit_svr_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=2)
        )
        assert np.allclose(shr.beta_coef, orig.beta_coef, atol=0.05 * PARAMS.C)
        assert shr.trace.total_shrunk() > 0  # shrinking actually engaged

    def test_equality_constraint(self):
        X, y = sine_problem(seed=3)
        res = fit_svr_parallel(X, y, PARAMS, config=RunConfig(nprocs=2))
        assert abs(res.beta_coef.sum()) < 1e-8

    def test_coefficients_bounded(self):
        X, y = sine_problem(seed=4)
        res = fit_svr_parallel(X, y, PARAMS, config=RunConfig(nprocs=1))
        assert np.all(np.abs(res.beta_coef) <= PARAMS.C + 1e-9)

    def test_kkt_tube_condition(self):
        """Samples strictly inside the ε-tube have β = 0."""
        X, y = sine_problem(seed=5)
        eps_tube = 0.15
        res = fit_svr_parallel(
            X, y, PARAMS, epsilon=eps_tube, config=RunConfig(nprocs=1)
        )
        pred = res.model.decision_function(X)
        resid = np.abs(pred - y)
        inside = resid < eps_tube - 5e-3
        assert np.all(np.abs(res.beta_coef[inside]) < 1e-9)

    def test_validation(self):
        X, y = sine_problem()
        with pytest.raises(ValueError):
            fit_svr_parallel(X, y, PARAMS, epsilon=-0.1)
        with pytest.raises(ValueError):
            fit_svr_parallel(X, y[:-1], PARAMS)
        with pytest.raises(ValueError):
            fit_svr_parallel(X, y, PARAMS, config=RunConfig(nprocs=0))
        weighted = SVMParams(C=1.0, kernel=RBFKernel(1.0), weight_pos=2.0)
        with pytest.raises(ValueError):
            fit_svr_parallel(X, y, weighted)


class TestSVRFacade:
    def test_linear_recovery(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-2, 2, (80, 1))
        y = 2.0 * X[:, 0] + 1.0
        svr = SVR(C=100.0, kernel=LinearKernel(), epsilon=0.01, eps=1e-4)
        svr.fit(X, y)
        assert svr.score(X, y) > 0.999
        # recover slope/intercept through predictions
        p0 = svr.predict(np.array([[0.0]]))[0]
        p1 = svr.predict(np.array([[1.0]]))[0]
        assert p0 == pytest.approx(1.0, abs=0.05)
        assert p1 - p0 == pytest.approx(2.0, abs=0.05)

    def test_r2_score_range(self):
        X, y = sine_problem(seed=7)
        svr = SVR(
            C=10.0, gamma=1.0, epsilon=0.1, config=RunConfig(nprocs=2)
        ).fit(X, y)
        assert 0.9 < svr.score(X, y) <= 1.0

    def test_larger_epsilon_fewer_svs(self):
        X, y = sine_problem(seed=8)
        tight = SVR(C=10.0, gamma=1.0, epsilon=0.02).fit(X, y)
        loose = SVR(C=10.0, gamma=1.0, epsilon=0.4).fit(X, y)
        assert loose.n_support_ < tight.n_support_

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            SVR().predict(np.ones((1, 1)))

    def test_sigma_sq(self):
        X, y = sine_problem(seed=9)
        svr = SVR(C=10.0, sigma_sq=1.0, epsilon=0.1).fit(X, y)
        assert svr.model_.kernel.gamma == pytest.approx(1.0)
        with pytest.raises(ValueError):
            SVR(gamma=1.0, sigma_sq=1.0)

    def test_sparse_input(self):
        X, y = sine_problem(seed=10)
        Xs = CSRMatrix.from_dense(X)
        svr = SVR(C=10.0, gamma=1.0, epsilon=0.1).fit(Xs, y)
        assert svr.score(Xs, y) > 0.9

    def test_constant_target(self):
        X = np.linspace(-1, 1, 30)[:, None]
        y = np.full(30, 3.0)
        svr = SVR(C=10.0, gamma=1.0, epsilon=0.05).fit(X, y)
        assert np.abs(svr.predict(X) - 3.0).max() < 0.1
        assert svr.score(X, y) in (0.0, 1.0)  # degenerate R² definition
