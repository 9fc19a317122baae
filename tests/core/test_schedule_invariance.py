"""Virtual time does not depend on the host's thread schedule.

``repro.mpi.clock`` claims that per-rank virtual times are exact for
the modeled machine "regardless of host thread scheduling": ranks
interact only through messages, each message carries its departure
stamp, and a receive syncs to the modeled arrival.  Here that claim is
tested.  Fits run while the interpreter switches threads every 10 µs
and every 50 ms must reproduce the default-schedule fit bit for bit —
α, β, iteration count and vtime — on both collective suites, fault-free
and under a corrupt/drop/dup plan aimed at framed traffic (which must
also fire the same fault schedule).
"""

import sys

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.kernels import RBFKernel

from ..conftest import make_blobs
from .test_comm_equivalence import FRAME_FAULTS, MACHINE

PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=200_000)

#: thread switch intervals (seconds) the fits are re-run under: the
#: tiny one is what ``tests/mpi/test_faults.py``'s stress test uses
INTERVALS = (1e-5, 0.05)


@pytest.fixture(scope="module")
def problem():
    # overlapping blobs: shrinking fires and reconstruction rings run
    return make_blobs(n=48, sep=1.2, noise=1.3, seed=3)


def _fit(problem, p, comm, faults):
    X, y = problem
    return fit_parallel(
        X, y, PARAMS,
        config=RunConfig(
            heuristic="multi5pc", nprocs=p, machine=MACHINE, comm=comm,
            faults=faults, deadlock_timeout=20.0,
        ),
    )


@pytest.mark.parametrize("faults", [None, FRAME_FAULTS], ids=["fault-free", "faulted"])
@pytest.mark.parametrize("comm", ["flat", "hierarchical"])
@pytest.mark.parametrize("p", [2, 4])
def test_fit_bitwise_identical_under_perturbed_schedules(problem, p, comm, faults):
    ref = _fit(problem, p, comm, faults)
    if faults is not None:
        assert ref.spmd.fault_stats["stats"]["corrupted"] >= 1
    default = sys.getswitchinterval()
    for interval in INTERVALS:
        sys.setswitchinterval(interval)
        try:
            fit = _fit(problem, p, comm, faults)
        finally:
            sys.setswitchinterval(default)
        assert np.array_equal(fit.alpha, ref.alpha), interval
        assert fit.beta_up == ref.beta_up and fit.beta_low == ref.beta_low
        assert fit.model.beta == ref.model.beta
        assert fit.iterations == ref.iterations
        assert fit.spmd.vtime == ref.spmd.vtime
        assert [r.vtime for r in fit.spmd.rank_stats] == [
            r.vtime for r in ref.spmd.rank_stats
        ]
        if faults is not None:
            assert (
                fit.spmd.fault_stats["schedule"]
                == ref.spmd.fault_stats["schedule"]
            )
