"""Property-based end-to-end solver agreement on random problems."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel, solve_sequential
from repro.kernels import RBFKernel
from repro.sparse import CSRMatrix


def random_problem(seed, n, sep, noise):
    rng = np.random.default_rng(seed)
    half = n // 2
    Xd = np.vstack(
        [
            rng.normal(sep / 2, noise, (half, 2)),
            rng.normal(-sep / 2, noise, (n - half, 2)),
        ]
    )
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    perm = rng.permutation(n)
    return CSRMatrix.from_dense(Xd[perm]), y[perm]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(24, 70),
    sep=st.floats(0.5, 4.0),
    noise=st.floats(0.5, 1.5),
    C=st.sampled_from([0.5, 2.0, 10.0]),
    heuristic=st.sampled_from(["multi2", "single2", "multi5pc", "single50pc"]),
    p=st.integers(1, 4),
)
def test_shrinking_solver_equals_reference(seed, n, sep, noise, C, heuristic, p):
    """Every heuristic returns an ε-optimal point of the same dual.

    On ill-conditioned (heavily overlapping) data the ε-optimal set is
    not a single point — near-duplicate samples can trade α mass — so
    the invariants are KKT optimality, matching dual objective and
    matching decision function, not raw α equality.
    """
    X, y = random_problem(seed, n, sep, noise)
    params = SVMParams(C=C, kernel=RBFKernel(0.7), eps=1e-3, max_iter=100_000)
    ref = solve_sequential(X, y, params)
    fr = fit_parallel(
        X, y, params, config=RunConfig(heuristic=heuristic, nprocs=p)
    )
    # dual feasibility
    assert fr.alpha.min() >= -1e-12
    assert fr.alpha.max() <= C + 1e-9
    assert abs(float(fr.alpha @ y)) < 1e-7 * max(1.0, C)
    # eps-KKT on the full problem
    from ..conftest import check_kkt, dense_kernel_matrix

    check_kkt(X, y, fr.alpha, fr.model.beta, params.kernel, C, params.eps)
    # same dual objective (minimization form), up to the eps band
    K = dense_kernel_matrix(X, params.kernel)

    def dual(alpha):
        v = alpha * y
        return 0.5 * float(v @ K @ v) - float(alpha.sum())

    scale = max(1.0, abs(dual(ref.alpha)))
    assert abs(dual(fr.alpha) - dual(ref.alpha)) <= 0.02 * scale + 10 * params.eps * C
    # same decision function where it matters (bounded disagreement)
    f_ref = K @ (ref.alpha * y) - ref.beta
    f_fr = K @ (fr.alpha * y) - fr.model.beta
    assert np.abs(f_ref - f_fr).max() < 0.25


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**20), p=st.integers(2, 5))
def test_prediction_invariant_to_p(seed, p):
    X, y = random_problem(seed, 50, 2.0, 1.0)
    params = SVMParams(C=5.0, kernel=RBFKernel(0.7), eps=1e-3, max_iter=100_000)
    a = fit_parallel(
        X, y, params, config=RunConfig(heuristic="multi5pc", nprocs=1)
    )
    b = fit_parallel(
        X, y, params, config=RunConfig(heuristic="multi5pc", nprocs=p)
    )
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.model.predict(X), b.model.predict(X))


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**20),
    slope=st.floats(-3.0, 3.0),
    intercept=st.floats(-2.0, 2.0),
    epsilon=st.floats(0.01, 0.2),
)
def test_svr_recovers_linear_functions(seed, slope, intercept, epsilon):
    """ε-SVR with a linear kernel recovers any linear target within the
    tube width (plus solver tolerance)."""
    from repro.core import fit_svr_parallel
    from repro.kernels import LinearKernel

    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (50, 1))
    y = slope * X[:, 0] + intercept
    params = SVMParams(C=100.0, kernel=LinearKernel(), eps=1e-4,
                       max_iter=100_000)
    res = fit_svr_parallel(
        X, y, params, epsilon=epsilon, config=RunConfig(nprocs=2)
    )
    pred = res.model.decision_function(X)
    assert np.abs(pred - y).max() <= epsilon + 0.05
    # dual structure holds
    assert abs(res.beta_coef.sum()) < 1e-7
    assert np.all(np.abs(res.beta_coef) <= params.C + 1e-9)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**20),
    w_pos=st.floats(0.5, 8.0),
    w_neg=st.floats(0.5, 8.0),
)
def test_weighted_solver_respects_boxes(seed, w_pos, w_neg):
    X, y = random_problem(seed, 40, 1.2, 1.2)
    params = SVMParams(C=2.0, kernel=RBFKernel(0.7), eps=1e-3,
                       max_iter=100_000, weight_pos=w_pos, weight_neg=w_neg)
    fr = fit_parallel(
        X, y, params, config=RunConfig(heuristic="multi5pc", nprocs=2)
    )
    assert fr.alpha[y > 0].max(initial=0.0) <= 2.0 * w_pos + 1e-9
    assert fr.alpha[y < 0].max(initial=0.0) <= 2.0 * w_neg + 1e-9
    assert abs(float(fr.alpha @ y)) < 1e-7 * max(1.0, 2.0 * max(w_pos, w_neg))
