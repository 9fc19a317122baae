"""Solver-level equivalence across communicator suites.

The acceptance bar for the hierarchical collectives: identical bits
out.  A fit on the hierarchical suite — faulted or fault-free — must
reproduce the flat fit's α, β and iteration count exactly, across
process counts, heuristics and kernels.  Also here: the typed-frame
round trip of a zero-support rank's reconstruction chunk.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.core.reconstruction import _pack_contrib, _verify_chunk
from repro.core.state import LocalBlock
from repro.kernels import LinearKernel, RBFKernel
from repro.mpi import frames
from repro.perfmodel import MachineSpec
from repro.sparse.csr import CSRMatrix

from ..conftest import make_blobs

#: the multi-node geometry that makes the two-level plan non-trivial
#: at the smoke scales (p=4 → 2 nodes of 2)
MACHINE = MachineSpec.multinode(ranks_per_node=2)

#: fault schedule aimed at *framed* traffic (tag 3 is the ring): raw
#: typed envelopes are silently tamperable by design, frames carry the
#: CRC that makes corruption detectable and recoverable
FRAME_FAULTS = (
    "seed=13;corrupt:tag=3,nth=1;drop:tag=4,nth=1;dup:nth=7"
)

PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=200_000)


@pytest.fixture(scope="module")
def problem():
    # overlapping blobs: shrinking fires and reconstruction rings run
    return make_blobs(n=90, sep=1.2, noise=1.3, seed=3)


def _fit(problem, *, comm=None, p=4, heuristic="multi5pc",
         params=PARAMS, faults=None):
    X, y = problem
    return fit_parallel(
        X, y, params,
        config=RunConfig(
            heuristic=heuristic, nprocs=p, machine=MACHINE, comm=comm,
            faults=faults, deadlock_timeout=20.0,
        ),
    )


def _assert_same_fit(a, b):
    assert np.array_equal(a.alpha, b.alpha)
    assert a.beta_up == b.beta_up
    assert a.beta_low == b.beta_low
    assert a.model.beta == b.model.beta
    assert a.iterations == b.iterations


class TestCommEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_fit_bitwise_identical(self, problem, p):
        flat = _fit(problem, comm="flat", p=p)
        hier = _fit(problem, comm="hierarchical", p=p)
        _assert_same_fit(hier, flat)

    @pytest.mark.parametrize("heuristic", ["single2", "multi50pc"])
    def test_heuristics_bitwise_identical(self, problem, heuristic):
        flat = _fit(problem, comm="flat", heuristic=heuristic)
        hier = _fit(problem, comm="hierarchical", heuristic=heuristic)
        _assert_same_fit(hier, flat)

    def test_linear_kernel_bitwise_identical(self, problem):
        params = SVMParams(
            C=1.0, kernel=LinearKernel(), eps=1e-3, max_iter=200_000
        )
        flat = _fit(problem, comm="flat", params=params)
        hier = _fit(problem, comm="hierarchical", params=params)
        _assert_same_fit(hier, flat)

    def test_hierarchical_moves_fewer_bytes(self, problem):
        flat = _fit(problem, comm="flat")
        hier = _fit(problem, comm="hierarchical")
        assert hier.spmd.total_messages < flat.spmd.total_messages
        assert hier.spmd.total_bytes_sent < flat.spmd.total_bytes_sent

    @pytest.mark.faults
    @pytest.mark.parametrize("comm", ["flat", "hierarchical"])
    def test_faulted_fit_bitwise_identical(self, problem, comm):
        ref = _fit(problem, comm=comm)
        faulted = _fit(problem, comm=comm, faults=FRAME_FAULTS)
        _assert_same_fit(faulted, ref)
        stats = faulted.spmd.fault_stats["stats"]
        assert stats["corrupted"] >= 1
        assert stats["dropped"] >= 1
        assert stats["retransmitted"] >= 2


class TestReconstructionWire:
    def test_zero_support_chunk_frames_roundtrip(self):
        # a rank with no α>0 rows ships an empty-CSR descriptor; the
        # frame must survive the wire and verify
        X = CSRMatrix.from_dense(np.zeros((3, 4)))
        blk = LocalBlock(X=X, y=np.ones(3), global_start=0)
        chunk = _pack_contrib(blk)
        _verify_chunk(chunk, source=0)  # raises on failure
        blob = frames.encode(chunk)
        assert blob is not None
        out = frames.decode(blob)
        _verify_chunk(out, source=0)
        rebuilt = CSRMatrix.from_bytes(out[0])
        assert rebuilt.shape[0] == 0
        assert out[1].size == 0 and out[2].size == 0
