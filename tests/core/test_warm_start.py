"""Warm-starting the distributed solver from a previous dual solution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.core import (
    SVMParams,
    fit_parallel,
    project_feasible,
    solve_sequential,
)
from repro.kernels import RBFKernel

from ..conftest import check_kkt, make_blobs

PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=200_000)


@pytest.fixture(scope="module")
def problem():
    return make_blobs(n=130, sep=1.7, noise=1.2, seed=41)


def test_warm_start_from_solution_converges_fast(problem):
    X, y = problem
    cold = fit_parallel(
        X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=2)
    )
    warm = fit_parallel(
        X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=2),
        warm_start_alpha=cold.alpha,
    )
    # restarting at the optimum needs (almost) no iterations
    assert warm.iterations <= max(3, cold.iterations // 20)
    assert np.allclose(warm.alpha, cold.alpha, atol=1e-9)


def test_warm_start_reaches_same_solution(problem):
    X, y = problem
    ref = solve_sequential(X, y, PARAMS)
    # seed with a roughly feasible half-solution
    seed = ref.alpha * 0.5
    warm = fit_parallel(
        X, y, PARAMS, warm_start_alpha=seed,
        config=RunConfig(heuristic="multi5pc", nprocs=3)
    )
    check_kkt(X, y, warm.alpha, warm.model.beta, PARAMS.kernel,
              PARAMS.C, PARAMS.eps)
    assert abs(warm.model.beta - ref.beta) < 0.1


def test_warm_start_across_C_change(problem):
    """The regularization-path use case: refit after a small C change."""
    X, y = problem
    first = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=2))
    params2 = SVMParams(C=12.0, kernel=RBFKernel(0.5), eps=1e-3,
                        max_iter=200_000)
    cold = fit_parallel(X, y, params2, config=RunConfig(nprocs=2))
    warm = fit_parallel(
        X, y, params2, config=RunConfig(nprocs=2), warm_start_alpha=first.alpha
    )
    assert warm.iterations < cold.iterations
    check_kkt(X, y, warm.alpha, warm.model.beta, params2.kernel,
              params2.C, params2.eps)


def test_warm_start_p_consistency(problem):
    X, y = problem
    seed_fit = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=1))
    seed = seed_fit.alpha * 0.7
    # project back onto the equality constraint
    seed -= y * (seed @ y) / len(y)
    seed = np.clip(seed, 0.0, PARAMS.C)
    seed -= y * (seed @ y) / len(y)
    seed = np.clip(seed, 0.0, PARAMS.C)
    if abs(seed @ y) > 1e-8:
        pytest.skip("could not project the seed onto the constraint")
    a = fit_parallel(
        X, y, PARAMS, config=RunConfig(nprocs=1), warm_start_alpha=seed
    )
    b = fit_parallel(
        X, y, PARAMS, config=RunConfig(nprocs=4), warm_start_alpha=seed
    )
    assert np.array_equal(a.alpha, b.alpha)


def test_warm_start_validation(problem):
    X, y = problem
    n = X.shape[0]
    with pytest.raises(ValueError):
        fit_parallel(X, y, PARAMS, warm_start_alpha=np.zeros(n - 1))
    with pytest.raises(ValueError):
        fit_parallel(X, y, PARAMS, warm_start_alpha=np.full(n, -1.0))
    with pytest.raises(ValueError):
        fit_parallel(X, y, PARAMS, warm_start_alpha=np.full(n, 100.0))
    bad = np.zeros(n)
    bad[0] = 1.0  # sum(alpha*y) != 0
    with pytest.raises(ValueError):
        fit_parallel(X, y, PARAMS, warm_start_alpha=bad)


def test_zero_seed_equals_cold_start(problem):
    X, y = problem
    cold = fit_parallel(
        X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=2)
    )
    warm = fit_parallel(
        X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=2),
        warm_start_alpha=np.zeros(X.shape[0]),
    )
    assert np.array_equal(cold.alpha, warm.alpha)
    assert warm.iterations == cold.iterations

class TestFeasibilityProjection:
    """Property tests for :func:`repro.core.project_feasible` — the
    repair step that makes concatenated DC sub-duals a legal seed."""

    @staticmethod
    def _assert_feasible(a, y, box):
        n = y.shape[0]
        box = np.broadcast_to(np.asarray(box, dtype=np.float64), (n,))
        assert a.shape == (n,)
        assert np.all(a >= 0.0)
        assert np.all(a <= box + 1e-12)
        scale = max(1.0, float(box.max(initial=0.0)))
        assert abs(float(a @ y)) <= 1e-10 * scale * max(1, n)

    @given(
        n=st.integers(min_value=1, max_value=60),
        C=st.floats(min_value=1e-3, max_value=1e4),
        seed=st.integers(min_value=0, max_value=10_000),
        spread=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_feasible(self, n, C, seed, spread):
        rng = np.random.default_rng(seed)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        alpha = rng.normal(0.0, spread * C, n)  # arbitrary, even negative
        out = project_feasible(alpha, y, np.full(n, C))
        self._assert_feasible(out, y, np.full(n, C))

    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_per_sample_box(self, n, seed):
        """Per-coordinate box vectors (class-weighted C) are respected."""
        rng = np.random.default_rng(seed)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        box = rng.uniform(0.1, 5.0, n)
        alpha = rng.uniform(-2.0, 7.0, n)
        out = project_feasible(alpha, y, box)
        self._assert_feasible(out, y, box)

    def test_all_zero_is_identity(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        out = project_feasible(np.zeros(4), y, np.full(4, 10.0))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_feasible_input_unchanged(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        a = np.array([2.0, 3.0, 1.0, 0.0])  # sum(a*y) = 0, inside box
        out = project_feasible(a.copy(), y, np.full(4, 10.0))
        np.testing.assert_allclose(out, a, atol=1e-12)

    def test_all_at_C_balanced(self):
        """Balanced labels at the upper bound are already feasible."""
        y = np.array([1.0, -1.0, 1.0, -1.0])
        C = 10.0
        out = project_feasible(np.full(4, C), y, np.full(4, C))
        self._assert_feasible(out, y, np.full(4, C))
        np.testing.assert_allclose(out, np.full(4, C))

    def test_all_at_C_unbalanced(self):
        """Unbalanced labels at the bound force a genuine projection."""
        y = np.array([1.0, 1.0, 1.0, -1.0])
        C = 10.0
        out = project_feasible(np.full(4, C), y, np.full(4, C))
        self._assert_feasible(out, y, np.full(4, C))

    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_class_projects_to_zero(self, n, seed):
        """A one-class cluster can only satisfy sum(a*y)=0 at a = 0."""
        rng = np.random.default_rng(seed)
        y = np.ones(n) * (1.0 if seed % 2 else -1.0)
        alpha = rng.uniform(0.0, 5.0, n)
        out = project_feasible(alpha, y, np.full(n, 5.0))
        self._assert_feasible(out, y, np.full(n, 5.0))
        np.testing.assert_allclose(out, np.zeros(n), atol=1e-9)

    def test_empty_input(self):
        out = project_feasible(np.zeros(0), np.zeros(0), np.zeros(0))
        assert out.shape == (0,)


class TestWarmStartDtype:
    """Regression: float32 (and other real dtypes) seeds are accepted
    and upcast, not rejected."""

    def test_float32_seed_accepted(self, problem):
        X, y = problem
        cold = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=2))
        seed32 = cold.alpha.astype(np.float32)
        warm = fit_parallel(
            X, y, PARAMS, config=RunConfig(nprocs=2), warm_start_alpha=seed32
        )
        assert warm.alpha.dtype == np.float64
        # the float32 rounding perturbs the seed by ~1e-7 * C: the
        # refinement must still land on an eps-KKT point quickly
        assert warm.iterations <= max(10, cold.iterations // 10)
        check_kkt(X, y, warm.alpha, warm.model.beta, PARAMS.kernel,
                  PARAMS.C, PARAMS.eps)

    def test_integer_zero_seed_accepted(self, problem):
        X, y = problem
        warm = fit_parallel(
            X, y, PARAMS, config=RunConfig(nprocs=1),
            warm_start_alpha=np.zeros(X.shape[0], dtype=np.int64),
        )
        assert warm.alpha.dtype == np.float64

    def test_complex_seed_rejected(self, problem):
        X, y = problem
        with pytest.raises((TypeError, ValueError)):
            fit_parallel(
                X, y, PARAMS,
                warm_start_alpha=np.zeros(X.shape[0], dtype=np.complex128),
            )
