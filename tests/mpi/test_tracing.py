"""Tracer aggregation and summary rendering."""

from repro.mpi import SUM, run_spmd


def test_summary_table():
    def prog(comm):
        comm.advance(1e-6)
        comm.allreduce(comm.rank, SUM)
        comm.barrier()
        if comm.rank == 0:
            comm.send("x", dest=1)
        elif comm.rank == 1:
            comm.recv(source=0, tag=0)

    res = run_spmd(prog, 2, trace=True)
    text = res.tracer.summary()
    assert "Allreduce" in text
    assert "Barrier" in text
    assert "compute" in text
    # header + at least four aggregate rows
    assert len(text.splitlines()) >= 5


def test_summary_empty_tracer():
    res = run_spmd(lambda c: None, 2)
    assert res.tracer.summary().count("\n") == 0  # header only


def test_events_for_rank():
    res = run_spmd(lambda c: c.advance(1e-9), 3, trace=True)
    assert len(res.tracer.events_for(1)) == 1
    assert res.tracer.count(kind="compute") == 3
