"""SPMD runtime: job lifecycle, failures, deadlock detection, stats."""

import numpy as np
import pytest

from repro.mpi import (
    DeadlockError,
    SpmdJobError,
    SpmdRuntime,
    run_spmd,
)


def test_results_indexed_by_rank():
    res = run_spmd(lambda c: c.rank * 2, 5)
    assert res.results == [0, 2, 4, 6, 8]


def test_nprocs_one_fast_path():
    res = run_spmd(lambda c: (c.rank, c.size), 1)
    assert res.results == [(0, 1)]


def test_args_kwargs_passed():
    def prog(comm, a, b=0):
        return a + b + comm.rank

    res = run_spmd(prog, 3, args=(10,), kwargs={"b": 5})
    assert res.results == [15, 16, 17]


def test_invalid_nprocs():
    with pytest.raises(ValueError):
        run_spmd(lambda c: None, 0)


def test_rank_exception_propagates_with_rank():
    def prog(comm):
        if comm.rank == 2:
            raise ValueError("boom on 2")
        comm.barrier()

    with pytest.raises(SpmdJobError) as ei:
        run_spmd(prog, 4)
    assert 2 in ei.value.failures
    assert isinstance(ei.value.failures[2], ValueError)


def test_peer_blocked_ranks_are_cancelled_not_reported():
    """Only the originating failure appears; blocked peers are aborted."""

    def prog(comm):
        if comm.rank == 0:
            raise RuntimeError("original")
        comm.recv(source=0, tag=0)  # would block forever

    with pytest.raises(SpmdJobError) as ei:
        run_spmd(prog, 3)
    assert set(ei.value.failures) == {0}


def test_deadlock_detection():
    def prog(comm):
        # everyone receives, nobody sends
        comm.recv(source=(comm.rank + 1) % comm.size, tag=0)

    with pytest.raises(DeadlockError):
        run_spmd(prog, 2, deadlock_timeout=1.0)


def test_vtime_and_stats_accumulate():
    def prog(comm):
        comm.advance(1e-3)
        comm.allreduce(comm.rank)
        return comm.vtime

    res = run_spmd(prog, 4)
    assert res.vtime >= 1e-3
    assert res.total_messages > 0
    assert res.total_bytes_sent > 0
    for rs in res.rank_stats:
        assert rs.stats.compute_seconds >= 1e-3
        assert rs.vtime >= rs.stats.compute_seconds


def test_stats_table_renders():
    res = run_spmd(lambda c: c.allreduce(1), 3)
    table = res.stats_table()
    assert "rank" in table
    assert len(table.splitlines()) == 4


def test_tracer_records_events():
    def prog(comm):
        comm.advance(1e-6)
        comm.allreduce(comm.rank)
        if comm.rank == 0:
            comm.send(1, dest=1)
        elif comm.rank == 1:
            comm.recv(source=0, tag=0)

    res = run_spmd(prog, 2, trace=True)
    ev = res.tracer.events
    assert res.tracer.count(op="Allreduce") == 2
    assert res.tracer.count(kind="compute") >= 2
    assert any(e.kind == "send" for e in ev)
    assert any(e.kind == "recv" for e in ev)
    for e in ev:
        assert e.t_end >= e.t_start >= 0.0


def test_tracer_disabled_by_default():
    res = run_spmd(lambda c: c.allreduce(1), 2)
    assert res.tracer.events == []


def test_context_allocation_is_deterministic():
    rt = SpmdRuntime(2)
    a = rt.allocate_context(("k", 1))
    b = rt.allocate_context(("k", 2))
    assert a != b
    assert rt.allocate_context(("k", 1)) == a


def test_machine_attached_to_result():
    from repro.perfmodel import MachineSpec

    m = MachineSpec.cascade()
    res = run_spmd(lambda c: None, 2, machine=m)
    assert res.machine is m


def test_return_values_can_be_arrays():
    res = run_spmd(lambda c: np.full(3, c.rank), 3)
    for r, out in enumerate(res.results):
        assert np.array_equal(out, np.full(3, r))
