"""Component microbenchmarks (classic pytest-benchmark usage).

Times the building blocks whose costs the performance model assumes:
CSR products, kernel-row evaluation, collectives, the ring exchange,
and single solver iterations.  These are the λ / l / G measurements
backing DESIGN.md's calibration notes.
"""

import time

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.data import DATASETS, load_dataset
from repro.kernels import RBFKernel
from repro.mpi import SUM, run_spmd
from repro.mpi.reduceops import MINLOC_MAXLOC
from repro.sparse import CSRMatrix

RNG = np.random.default_rng(7)
N, D = 2000, 64
DENSE = RNG.normal(size=(N, D)) * (RNG.random((N, D)) < 0.3)
X = CSRMatrix.from_dense(DENSE)
NORMS = X.row_norms_sq()
KERNEL = RBFKernel(0.25)


def test_csr_matvec(benchmark):
    v = RNG.normal(size=D)
    benchmark(X.dot_dense_vec, v)


def test_csr_row_gather(benchmark):
    rows = RNG.integers(0, N, size=N // 2)
    benchmark(X.take_rows, rows)


def test_csr_serialization_roundtrip(benchmark):
    benchmark(lambda: CSRMatrix.from_bytes(X.to_bytes()))


def test_kernel_row_evaluation(benchmark):
    """One gradient-update kernel column: the solver's hot operation."""
    xi, xv = X.row(0)

    def op():
        return KERNEL.row_against_block(X, NORMS, xi, xv, float(NORMS[0]))

    benchmark(op)


def test_row_norms(benchmark):
    benchmark(X.row_norms_sq)


@pytest.mark.parametrize("p", [2, 8])
def test_allreduce_scalar(benchmark, p):
    def job():
        return run_spmd(lambda c: c.allreduce(c.rank, SUM), p)

    benchmark.pedantic(job, iterations=1, rounds=5, warmup_rounds=1)


def test_election_allreduce_p2(benchmark):
    """The solver's per-iteration violator election: typed
    ``MINLOC_MAXLOC`` ``allreduce_buffer`` calls inside one p=2 job, so a
    round's time is the per-call message path times the call count, not
    thread start-up (``test_allreduce_scalar`` times whole jobs)."""
    n_calls = 2000
    benchmark.extra_info["calls_per_round"] = n_calls

    def prog(comm):
        # (β_up, i_up, β_low, i_low) plus one SUM slot, as the solver packs it
        buf = np.array([0.5 + comm.rank, comm.rank, -0.5 - comm.rank, comm.rank, 1.0])
        for _ in range(n_calls):
            out = comm.allreduce_buffer(buf, MINLOC_MAXLOC)
        return out

    res = benchmark.pedantic(
        lambda: run_spmd(prog, 2), iterations=1, rounds=5, warmup_rounds=1
    )
    for out in res.results:
        assert out.tolist() == [0.5, 0.0, -0.5, 0.0, 2.0]


def test_ring_exchange(benchmark):
    payload = X.take_rows(np.arange(100)).to_bytes()

    def job():
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            cur = payload
            for _ in range(comm.size - 1):
                comm.send(cur, dest=right, tag=0)
                cur = comm.recv(source=left, tag=0)
            return len(cur)

        return run_spmd(prog, 4)

    benchmark.pedantic(job, iterations=1, rounds=5, warmup_rounds=1)


@pytest.mark.parametrize("heuristic", ["original", "multi5pc"])
def test_solver_end_to_end_small(benchmark, heuristic):
    rng = np.random.default_rng(3)
    n = 200
    Xd = np.vstack(
        [rng.normal(1.0, 1.2, (n // 2, 4)), rng.normal(-1.0, 1.2, (n // 2, 4))]
    )
    y = np.r_[np.ones(n // 2), -np.ones(n // 2)]
    Xs = CSRMatrix.from_dense(Xd)
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3)

    def job():
        return fit_parallel(Xs, y, params, config=RunConfig(heuristic=heuristic))

    benchmark.pedantic(job, iterations=1, rounds=3, warmup_rounds=1)


def test_smo_iteration_p2(benchmark):
    """Host cost of one SMO iteration at p=2: the process CPU of a
    multi5pc fit of perfbench ``train``'s input (the forest stand-in at
    scale 1e-3, its training rows without the seed's jitter) divided
    by its iterations.  The two rank threads share the process, so the
    figure covers both ranks' work per iteration (election allreduce,
    pair fetch, γ update)."""
    ds = load_dataset("forest", scale=1e-3)
    labels = np.unique(ds.y_train)
    y = np.where(ds.y_train == labels[-1], 1.0, -1.0)
    cut = ds.X_train.shape[0] - ds.X_train.shape[0] // 5
    Xs, y = ds.X_train.row_slice(0, cut), y[:cut]
    entry = DATASETS["forest"]
    params = SVMParams(
        C=entry.C, kernel=RBFKernel.from_sigma_sq(entry.sigma_sq), eps=1e-3,
    )
    config = RunConfig(heuristic="multi5pc", nprocs=2)
    cpu = []

    def job():
        c0 = time.process_time()
        fr = fit_parallel(Xs, y, params, config=config)
        cpu.append(time.process_time() - c0)
        return fr

    fr = benchmark.pedantic(job, iterations=1, rounds=5, warmup_rounds=1)
    benchmark.extra_info["iterations"] = fr.iterations
    benchmark.extra_info["cpu_us_per_iteration"] = (
        1e6 * min(cpu) / fr.iterations
    )
