"""Every collective against a naive reference, across rank counts
(including non-powers of two) and payload kinds."""

import numpy as np
import pytest

from repro.mpi import MAX, MAXLOC, MIN, MINLOC, PROD, SUM, run_spmd

PS = [1, 2, 3, 4, 5, 7, 8, 13]


@pytest.mark.parametrize("p", PS)
def test_bcast_object(p):
    root = p - 1

    def prog(comm):
        obj = {"v": 42, "rank": comm.rank} if comm.rank == root else None
        return comm.bcast(obj, root=root)

    for out in run_spmd(prog, p).results:
        assert out == {"v": 42, "rank": root}


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize(
    "op,ref",
    [
        (SUM, lambda xs: sum(xs)),
        (MAX, max),
        (MIN, min),
        (PROD, lambda xs: np.prod(xs)),
    ],
)
def test_allreduce_scalar_ops(p, op, ref):
    def prog(comm):
        return comm.allreduce(comm.rank + 1, op)

    expect = ref([r + 1 for r in range(p)])
    assert all(v == expect for v in run_spmd(prog, p).results)


@pytest.mark.parametrize("p", PS)
def test_allreduce_array_sum(p):
    def prog(comm):
        return comm.allreduce(np.full(4, float(comm.rank)), SUM)

    expect = np.full(4, p * (p - 1) / 2)
    for out in run_spmd(prog, p).results:
        assert np.allclose(out, expect)


@pytest.mark.parametrize("p", PS)
def test_allreduce_minloc_maxloc(p):
    vals = [((r * 7) % p, r) for r in range(p)]

    def prog(comm):
        v = (float((comm.rank * 7) % p), comm.rank)
        return comm.allreduce(v, MINLOC), comm.allreduce(v, MAXLOC)

    lo = min(vals)
    hi = max(v[0] for v in vals)
    hi_idx = min(r for (v, r) in vals if v == hi)
    for got_lo, got_hi in run_spmd(prog, p).results:
        assert got_lo == (float(lo[0]), lo[1])
        assert got_hi == (float(hi), hi_idx)


def test_minloc_tie_breaks_to_lowest_rank():
    def prog(comm):
        return comm.allreduce((1.0, comm.rank), MINLOC)

    for out in run_spmd(prog, 6).results:
        assert out == (1.0, 0)


@pytest.mark.parametrize("p", PS)
def test_allreduce_buffer_fused_election(p):
    """The typed fused election elects the same winners as the two
    object-path MINLOC/MAXLOC allreduces, and sums the tail slot."""
    from repro.mpi.reduceops import MINLOC_MAXLOC

    def prog(comm):
        v = float((comm.rank * 7) % p)
        buf = np.array(
            [v, comm.rank, v, comm.rank, comm.rank + 1.0], dtype=np.float64
        )
        fused = comm.allreduce_buffer(buf, MINLOC_MAXLOC)
        lo = comm.allreduce((v, comm.rank), MINLOC)
        hi = comm.allreduce((v, comm.rank), MAXLOC)
        tot = comm.allreduce(comm.rank + 1.0, SUM)
        return fused, lo, hi, tot

    for fused, lo, hi, tot in run_spmd(prog, p).results:
        assert fused.dtype == np.float64
        assert (fused[0], int(fused[1])) == lo
        assert (fused[2], int(fused[3])) == hi
        assert fused[4] == tot


@pytest.mark.parametrize("p", PS)
def test_allreduce_buffer_cheaper_than_two_object_allreduces(p):
    """One 40-byte typed message per tree edge beats two pickled ones."""
    if p == 1:
        pytest.skip("no traffic at p=1")
    from repro.mpi.reduceops import MINLOC_MAXLOC

    def fused(comm):
        buf = np.array([1.0, comm.rank, 1.0, comm.rank, 1.0])
        comm.allreduce_buffer(buf, MINLOC_MAXLOC)
        return comm.vtime

    def legacy(comm):
        comm.allreduce((1.0, comm.rank), MINLOC)
        comm.allreduce((1.0, comm.rank), MAXLOC)
        return comm.vtime

    t_fused = max(run_spmd(fused, p).results)
    t_legacy = max(run_spmd(legacy, p).results)
    assert t_fused < t_legacy


@pytest.mark.parametrize("p", PS)
def test_reduce_to_root(p):
    root = p // 2

    def prog(comm):
        return comm.reduce(comm.rank, SUM, root=root)

    res = run_spmd(prog, p).results
    for r, out in enumerate(res):
        if r == root:
            assert out == p * (p - 1) // 2
        else:
            assert out is None


@pytest.mark.parametrize("p", PS)
def test_gather_scatter(p):
    def prog(comm):
        gathered = comm.gather(comm.rank ** 2, root=0)
        objs = [i * 3 for i in range(comm.size)] if comm.rank == 0 else None
        part = comm.scatter(objs, root=0)
        return gathered, part

    res = run_spmd(prog, p).results
    assert res[0][0] == [r ** 2 for r in range(p)]
    for r in range(1, p):
        assert res[r][0] is None
    assert [res[r][1] for r in range(p)] == [r * 3 for r in range(p)]


@pytest.mark.parametrize("p", PS)
def test_allgather(p):
    def prog(comm):
        return comm.allgather((comm.rank, "x"))

    expect = [(r, "x") for r in range(p)]
    for out in run_spmd(prog, p).results:
        assert out == expect


@pytest.mark.parametrize("p", PS)
def test_alltoall(p):
    def prog(comm):
        return comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])

    res = run_spmd(prog, p).results
    for r in range(p):
        assert res[r] == [f"{s}->{r}" for s in range(p)]


@pytest.mark.parametrize("p", PS)
def test_barrier_runs(p):
    def prog(comm):
        for _ in range(3):
            comm.barrier()
        return True

    assert all(run_spmd(prog, p).results)


def test_float_reduction_determinism():
    """Same inputs at same p -> bitwise identical allreduce results."""

    def prog(comm):
        rng = np.random.default_rng(comm.rank)
        return comm.allreduce(rng.random(16), SUM)

    a = run_spmd(prog, 7).results
    b = run_spmd(prog, 7).results
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    # and all ranks agree exactly
    for x in a[1:]:
        assert np.array_equal(a[0], x)


def test_concurrent_collectives_do_not_cross_match():
    """Back-to-back collectives with different shapes stay separated."""

    def prog(comm):
        a = comm.allreduce(comm.rank, SUM)
        b = comm.bcast("z" if comm.rank == 1 else None, root=1)
        c = comm.allgather(comm.rank)
        return a, b, c

    p = 6
    for a, b, c in run_spmd(prog, p).results:
        assert a == p * (p - 1) // 2
        assert b == "z"
        assert c == list(range(p))


@pytest.mark.parametrize("p", PS)
def test_allreduce_maxloc_payload(p):
    """MAXLOC with an opaque tail: the whole winning operand survives
    the combine (typed and object paths agree)."""
    from repro.mpi.reduceops import MAXLOC_PAYLOAD

    def prog(comm):
        v = float((comm.rank * 5) % p)
        buf = np.array(
            [v, float(comm.rank * 10), 100.0 + comm.rank], dtype=np.float64
        )
        typed = comm.allreduce_buffer(buf.copy(), MAXLOC_PAYLOAD)
        obj = comm.allreduce(
            (v, float(comm.rank * 10), 100.0 + comm.rank), MAXLOC_PAYLOAD
        )
        return typed, obj

    vals = [float((r * 5) % p) for r in range(p)]
    hi = max(vals)
    win = min(r for r in range(p) if vals[r] == hi)
    expect = (hi, float(win * 10), 100.0 + win)
    for typed, obj in run_spmd(prog, p).results:
        assert tuple(typed) == expect
        assert tuple(obj) == expect


def test_maxloc_payload_ties_to_smaller_loc():
    """Equal values: the smaller loc slot (a global sample index in the
    WSS2 election) wins, payload riding along."""
    from repro.mpi.reduceops import MAXLOC_PAYLOAD

    def prog(comm):
        buf = np.array(
            [7.0, float(comm.rank + 1), float(comm.rank)], dtype=np.float64
        )
        return comm.allreduce_buffer(buf, MAXLOC_PAYLOAD)

    for out in run_spmd(prog, 5).results:
        assert tuple(out) == (7.0, 1.0, 0.0)
