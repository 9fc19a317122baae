"""The CA-SVM-style permanent-elimination mode (reconstruction='never').

The paper rejects this design because it can lose accuracy; the
library provides it for ablations.  These tests pin down both halves:
it is cheaper, and it is *allowed* to be wrong (while staying a valid
approximate solution)."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import (
    HEURISTICS,
    SVMParams,
    fit_parallel,
    solve_sequential,
    unsafe_variant,
)
from repro.core.shrinking import Heuristic
from repro.kernels import RBFKernel

from ..conftest import make_blobs

PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=200_000)


@pytest.fixture(scope="module")
def problem():
    # noisy enough that shrinking actually fires mid-run
    return make_blobs(n=200, d=5, sep=1.2, noise=1.3, seed=23)


def mid_heuristic(recon):
    return Heuristic("mid", "random", 100, recon, "average")


def test_unsafe_variant_constructor():
    h = unsafe_variant("multi5pc")
    assert h.reconstruction == "never"
    assert h.name == "unsafe-multi5pc"
    assert h.threshold_kind == "numsamples"
    with pytest.raises(ValueError):
        unsafe_variant("original")


def test_unsafe_never_reconstructs(problem):
    X, y = problem
    fr = fit_parallel(
        X, y, PARAMS,
        config=RunConfig(heuristic=mid_heuristic("never"), nprocs=2),
    )
    assert fr.trace.total_shrunk() > 0
    assert fr.trace.n_reconstructions() == 0


def test_unsafe_does_less_work_than_safe(problem):
    X, y = problem
    unsafe = fit_parallel(
        X, y, PARAMS,
        config=RunConfig(heuristic=mid_heuristic("never"), nprocs=1),
    )
    safe = fit_parallel(
        X, y, PARAMS,
        config=RunConfig(heuristic=mid_heuristic("multi"), nprocs=1),
    )
    assert unsafe.trace.kernel_evals < safe.trace.kernel_evals
    assert unsafe.iterations <= safe.iterations


def test_unsafe_still_produces_reasonable_classifier(problem):
    X, y = problem
    fr = fit_parallel(
        X, y, PARAMS,
        config=RunConfig(heuristic=mid_heuristic("never"), nprocs=2),
    )
    assert fr.model.accuracy(X, y) > 0.75
    # dual feasibility still holds (it is a feasible, just suboptimal, point)
    assert fr.alpha.min() >= -1e-12
    assert fr.alpha.max() <= PARAMS.C + 1e-9
    assert abs(float(fr.alpha @ y)) < 1e-7


def test_unsafe_may_deviate_from_optimum(problem):
    """The true optimum has violators among the permanently-eliminated
    samples that the unsafe mode never revisits."""
    X, y = problem
    ref = solve_sequential(X, y, PARAMS)
    fr = fit_parallel(
        X, y, PARAMS,
        config=RunConfig(heuristic=mid_heuristic("never"), nprocs=1),
    )
    # recompute the exact gradient of the unsafe solution and measure
    # its true KKT gap: it may exceed the 2ε the safe solver certifies
    from repro.core.sets import low_mask, up_mask

    from ..conftest import dense_kernel_matrix

    K = dense_kernel_matrix(X, PARAMS.kernel)
    gamma = K @ (fr.alpha * y) - y
    up = up_mask(fr.alpha, y, PARAMS.C)
    low = low_mask(fr.alpha, y, PARAMS.C)
    true_gap = gamma[low].max() - gamma[up].min()
    safe_gap = ref.beta_low - ref.beta_up
    # the unsafe run *reports* convergence on its active subset, but the
    # full-problem gap is at least what the safe solver achieved
    assert true_gap >= safe_gap - 1e-9


def test_safe_modes_unaffected(problem):
    """Regression guard: adding 'never' must not change Table II modes."""
    X, y = problem
    ref = solve_sequential(X, y, PARAMS)
    for name in ("single5pc", "multi5pc"):
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic=name, nprocs=2)
        )
        assert np.allclose(fr.alpha, ref.alpha, atol=0.05 * PARAMS.C)
