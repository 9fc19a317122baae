"""Tolerance-equivalence certification of the DC-warm-started solver.

The divide-and-conquer outer loop (:mod:`repro.core.dcsvm`) is only
allowed to exist because the final exact solve erases any approximation
it introduced.  This matrix certifies exactly that, cell by cell:

* every ``(dc config) x (nprocs) x (comm suite) x (kernel)`` combination
  produces a model tolerance-equivalent to the cold exact solve
  (``assert_model_equiv``: per-solution KKT residual, dual-objective
  gap, and held-out decision-function agreement);
* the DC path itself is **bitwise** process-count- and comm-suite-
  independent — the outer loop does all float arithmetic in a fixed
  order on rank-0-identical state;
* fault injection inside the sub-solves (delays, duplicates) changes
  nothing: the faulted run is bitwise identical to the fault-free one.
"""

from __future__ import annotations

import numpy as np
import pytest

from ..conftest import assert_model_equiv, make_blobs
from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.kernels import LinearKernel, RBFKernel

# One overlapping-blobs problem, hard enough that the cold solve takes
# hundreds of iterations and the clusters genuinely disagree.
_X, _Y = make_blobs(n=120, sep=1.2, noise=1.3, seed=3)

_PARAMS = {
    "rbf": SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3,
                     max_iter=200_000),
    "linear": SVMParams(C=1.0, kernel=LinearKernel(), eps=1e-3,
                        max_iter=200_000),
}

_COLD_CACHE = {}


def _cold(kernel_name):
    if kernel_name not in _COLD_CACHE:
        _COLD_CACHE[kernel_name] = fit_parallel(_X, _Y, _PARAMS[kernel_name])
    return _COLD_CACHE[kernel_name]


@pytest.mark.parametrize("kernel_name", ["rbf", "linear"])
@pytest.mark.parametrize("comm", ["flat", "hierarchical"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
@pytest.mark.parametrize("dc", ["clusters=3", "clusters=2,levels=2"])
def test_dc_equivalent_to_cold(dc, nprocs, comm, kernel_name):
    params = _PARAMS[kernel_name]
    warm = fit_parallel(
        _X, _Y, params, config=RunConfig(dc=dc, nprocs=nprocs, comm=comm)
    )
    assert warm.dc is not None
    assert warm.dc.n_rounds >= 1
    # The whole point: warm refinement converges far faster than cold.
    assert warm.stats.iterations < _cold(kernel_name).stats.iterations
    assert_model_equiv(_cold(kernel_name), warm, _X, _Y, params)


@pytest.mark.parametrize("kernel_name", ["rbf", "linear"])
def test_dc_bitwise_across_nprocs_and_comm(kernel_name):
    """The DC path is deterministic: same alpha regardless of layout."""
    params = _PARAMS[kernel_name]
    ref = fit_parallel(
        _X, _Y, params, config=RunConfig(dc="clusters=3", nprocs=1)
    )
    for nprocs, comm in [(2, "flat"), (4, "flat"), (4, "hierarchical")]:
        other = fit_parallel(
            _X, _Y, params,
            config=RunConfig(dc="clusters=3", nprocs=nprocs, comm=comm),
        )
        np.testing.assert_array_equal(ref.alpha, other.alpha)
        assert ref.model.beta == other.model.beta


@pytest.mark.parametrize("comm", ["flat", "hierarchical"])
def test_dc_equivalent_under_faults(comm):
    """Sub-solves ride the fault-tolerant runtime: injected delays and
    duplicates must not change a single bit of the result.

    ``clusters=2`` on 4 ranks puts 2 ranks in each sub-communicator, so
    the sub-solves exchange real messages for the faults to hit.
    """
    params = _PARAMS["rbf"]
    faults = "seed=7;delay:nth=3,seconds=0.001;dup:nth=5"
    clean = fit_parallel(
        _X, _Y, params, config=RunConfig(dc="clusters=2", nprocs=4, comm=comm)
    )
    faulted = fit_parallel(
        _X, _Y, params,
        config=RunConfig(dc="clusters=2", nprocs=4, comm=comm, faults=faults),
    )
    stats = faulted.spmd.fault_stats
    assert stats is not None
    fired = {k: v for k, v in stats["stats"].items() if v}
    assert fired, "fault plan never fired; the cell is not testing faults"
    np.testing.assert_array_equal(clean.alpha, faulted.alpha)
    assert_model_equiv(_cold("rbf"), faulted, _X, _Y, params)


def test_dc_multilevel_schedule():
    """levels=2 runs coarse-to-fine: more clusters first, then fewer."""
    warm = fit_parallel(
        _X, _Y, _PARAMS["rbf"], config=RunConfig(dc="clusters=2,levels=2")
    )
    levels = warm.dc.levels
    assert len(levels) == 2
    assert levels[0].n_clusters > levels[1].n_clusters
    assert_model_equiv(_cold("rbf"), warm, _X, _Y, _PARAMS["rbf"])
