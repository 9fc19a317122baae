"""Shared fixtures: small, fast, deterministic problems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SVMParams
from repro.kernels import LinearKernel, RBFKernel
from repro.sparse import CSRMatrix


def make_blobs(n=80, d=3, sep=3.0, noise=1.0, seed=0, density=1.0):
    """Two Gaussian blobs; returns (CSRMatrix, y in ±1)."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X1 = rng.normal(sep / 2, noise, (half, d))
    X2 = rng.normal(-sep / 2, noise, (n - half, d))
    Xd = np.vstack([X1, X2])
    if density < 1.0:
        Xd = Xd * (rng.random(Xd.shape) < density)
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    perm = rng.permutation(n)
    return CSRMatrix.from_dense(Xd[perm]), y[perm]


def same_bits(a, b) -> bool:
    """Bitwise float64 equality: unlike ``np.array_equal`` it tells
    -0.0 from +0.0 (and compares NaNs by payload)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


@pytest.fixture
def blobs():
    return make_blobs()

@pytest.fixture
def blobs_hard():
    """Overlapping classes: many support vectors, shrinking matters."""
    return make_blobs(n=120, sep=1.2, noise=1.3, seed=3)


@pytest.fixture
def rbf_params():
    return SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=200_000)


@pytest.fixture
def linear_params():
    return SVMParams(C=1.0, kernel=LinearKernel(), eps=1e-3, max_iter=200_000)


# The certification harness graduated into the package proper so the
# streaming subsystem can certify refits at runtime; re-exported here so
# every test keeps importing it from conftest unchanged.
from repro.core.equiv import (  # noqa: F401
    assert_model_equiv,
    check_kkt,
    dense_kernel_matrix,
    held_out_grid,
)
