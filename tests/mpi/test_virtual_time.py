"""Virtual-time semantics: the modeled costs the figures depend on."""

import math

import numpy as np
import pytest

from repro.mpi import SUM, frames, run_spmd
from repro.mpi.clock import VirtualClock
from repro.perfmodel import MachineSpec

M = MachineSpec.cascade()


def test_clock_advance_and_kinds():
    c = VirtualClock()
    c.advance(1.0, kind="compute")
    c.advance(0.5, kind="comm")
    c.advance(0.25, kind="idle")
    assert c.now == 1.75
    assert c.stats.compute_seconds == 1.0
    assert c.stats.comm_seconds == 0.5
    assert c.stats.idle_seconds == 0.25


def test_clock_rejects_negative():
    with pytest.raises(ValueError):
        VirtualClock().advance(-1.0)


def test_sync_to_only_moves_forward():
    c = VirtualClock()
    c.advance(2.0)
    c.sync_to(1.0)
    assert c.now == 2.0
    c.sync_to(3.0)
    assert c.now == 3.0


def test_recv_charges_latency_and_bandwidth():
    # an array travels as a typed frame: its exact wire size is charged
    nbytes = frames.frame_nbytes(np.zeros(1000))

    def prog(comm):
        if comm.rank == 0:
            comm.send(np.zeros(1000), dest=1)
        else:
            comm.recv(source=0, tag=0)
        return comm.vtime, comm.clock.stats.bytes_sent

    res = run_spmd(prog, 2, machine=M)
    t_recv = res.results[1][0]
    expect = M.send_overhead + M.latency + nbytes * M.byte_time
    assert t_recv == pytest.approx(expect, rel=1e-9)
    assert res.results[0][1] == nbytes


def test_raw_buffer_charges_its_bytes():
    """A raw typed envelope (``allreduce_buffer``) costs exactly the
    buffer's bytes on the wire: at p=2 each rank sends one."""

    def prog(comm):
        comm.allreduce_buffer(np.zeros(1000))
        return comm.vtime, comm.clock.stats.bytes_sent

    for t, sent in run_spmd(prog, 2, machine=M).results:
        assert sent == 8 * 1000
        expect = M.send_overhead + M.latency + 8 * 1000 * M.byte_time
        assert t == pytest.approx(expect, rel=1e-9)


def test_receiver_waits_for_late_sender():
    """Receiver's clock jumps to the sender's departure + wire time."""

    def prog(comm):
        if comm.rank == 0:
            comm.advance(1.0)  # sender is busy for 1 virtual second
            comm.send("x", dest=1)
        else:
            comm.recv(source=0, tag=0)
        return comm.vtime

    res = run_spmd(prog, 2, machine=M)
    assert res.results[1] >= 1.0  # receiver cannot finish before the send


def test_sender_not_blocked_by_receiver():
    """Eager sends complete locally: sender time is independent of the
    receiver's schedule."""

    def prog(comm):
        if comm.rank == 0:
            comm.send("x", dest=1)
            return comm.vtime
        comm.advance(5.0)
        comm.recv(source=0, tag=0)
        return comm.vtime

    res = run_spmd(prog, 2, machine=M)
    assert res.results[0] == pytest.approx(M.send_overhead)
    assert res.results[1] >= 5.0


@pytest.mark.parametrize("p", [2, 4, 8, 16])
def test_allreduce_critical_path_grows_logarithmically(p):
    def prog(comm):
        comm.allreduce(1.0, SUM)
        return comm.vtime

    res = run_spmd(prog, p, machine=M)
    rounds = math.ceil(math.log2(p))
    tmax = max(res.results)
    # at least log2(p) latencies on the critical path; overhead factor
    # bounded by the per-hop payload cost
    assert tmax >= rounds * M.latency
    assert tmax <= (rounds + 2) * 40 * M.latency


def test_virtual_time_deterministic_across_runs():
    def prog(comm):
        for _ in range(5):
            comm.allreduce(comm.rank)
            comm.barrier()
        return comm.vtime

    a = run_spmd(prog, 5, machine=M)
    b = run_spmd(prog, 5, machine=M)
    assert [x for x in a.results] == [x for x in b.results]


def test_ring_time_scales_with_bytes():
    def make(nelem):
        def prog(comm):
            p, r = comm.size, comm.rank
            data = np.zeros(nelem)
            for _ in range(p - 1):
                comm.send(data, dest=(r + 1) % p, tag=0)
                comm.recv(source=(r - 1) % p, tag=0)
            return comm.vtime

        return prog

    small = max(run_spmd(make(10), 4, machine=M).results)
    big = max(run_spmd(make(100_000), 4, machine=M).results)
    assert big > small * 10


def test_charge_kernel_evals_matches_machine():
    def prog(comm):
        comm.charge_kernel_evals(1000, avg_nnz=50)
        return comm.vtime

    res = run_spmd(prog, 1, machine=M)
    assert res.results[0] == pytest.approx(M.time_kernel_evals(1000, 50))
