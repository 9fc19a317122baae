"""Point-to-point semantics: matching, ordering, errors."""

import numpy as np
import pytest

from repro.mpi import CommError, RankError, SpmdJobError, run_spmd


def spmd(fn, p, **kw):
    return run_spmd(fn, p, **kw)


def test_object_send_recv_roundtrip():
    def prog(comm):
        if comm.rank == 0:
            comm.send({"a": [1, 2, 3], "b": "x"}, dest=1, tag=5)
            return None
        return comm.recv(source=0, tag=5)

    res = spmd(prog, 2)
    assert res.results[1] == {"a": [1, 2, 3], "b": "x"}


def test_message_ordering_same_source_tag():
    """Non-overtaking: messages from one source/tag arrive in order."""

    def prog(comm):
        if comm.rank == 0:
            for i in range(20):
                comm.send(i, dest=1, tag=3)
            return None
        return [comm.recv(source=0, tag=3) for _ in range(20)]

    assert spmd(prog, 2).results[1] == list(range(20))


def test_tag_selectivity():
    def prog(comm):
        if comm.rank == 0:
            comm.send("low", dest=1, tag=1)
            comm.send("high", dest=1, tag=2)
            return None
        high = comm.recv(source=0, tag=2)
        low = comm.recv(source=0, tag=1)
        return (high, low)

    assert spmd(prog, 2).results[1] == ("high", "low")


def test_send_recv_ring():
    """Each rank sends to its right neighbour, then receives from its
    left one (the reconstruction ring's step): eager sends cannot
    deadlock the ring."""

    def prog(comm):
        p, r = comm.size, comm.rank
        comm.send(r, dest=(r + 1) % p, tag=0)
        return comm.recv(source=(r - 1) % p, tag=0)

    res = spmd(prog, 5)
    assert res.results == [(r - 1) % 5 for r in range(5)]


def test_bad_rank_raises():
    def prog(comm):
        comm.send(1, dest=5)

    with pytest.raises(SpmdJobError) as ei:
        spmd(prog, 2)
    assert isinstance(list(ei.value.failures.values())[0], RankError)


def test_bad_tag_raises():
    def prog(comm):
        comm.send(1, dest=0, tag=-7)

    with pytest.raises(SpmdJobError):
        spmd(prog, 2)


def test_object_dtype_rejected_for_typed():
    """The raw typed path (``allreduce_buffer``) refuses an object
    array instead of shipping references."""

    def prog(comm):
        comm.allreduce_buffer(np.array([object()]))

    with pytest.raises(SpmdJobError) as ei:
        spmd(prog, 2)
    assert isinstance(list(ei.value.failures.values())[0], CommError)


def test_send_buffer_reuse_is_safe():
    """Eager sends snapshot the payload: later writes don't corrupt it."""

    def prog(comm):
        if comm.rank == 0:
            buf = np.arange(5.0)
            comm.send(buf, dest=1)
            buf[:] = -1.0
            comm.send("done", dest=1, tag=9)
            return None
        comm.recv(source=0, tag=9)
        return comm.recv(source=0, tag=0)

    assert np.array_equal(spmd(prog, 2).results[1], np.arange(5.0))
