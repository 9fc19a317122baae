"""Property-based collective correctness over random payloads/op/p."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import MAX, MIN, SUM, run_spmd

OPS = {"SUM": (SUM, np.sum), "MAX": (MAX, np.max), "MIN": (MIN, np.min)}


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=6),
    vals=st.lists(
        st.integers(min_value=-1000, max_value=1000), min_size=6, max_size=6
    ),
    opname=st.sampled_from(sorted(OPS)),
)
def test_allreduce_matches_reference(p, vals, opname):
    op, ref = OPS[opname]

    def prog(comm):
        return comm.allreduce(vals[comm.rank], op)

    expect = ref(np.asarray(vals[:p]))
    assert all(v == expect for v in run_spmd(prog, p).results)


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=6),
    root=st.integers(min_value=0, max_value=5),
    payload=st.one_of(
        st.integers(),
        st.text(max_size=12),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5),
        st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
    ),
)
def test_bcast_delivers_any_picklable(p, root, payload):
    root = root % p

    def prog(comm):
        return comm.bcast(payload if comm.rank == root else None, root=root)

    assert all(out == payload for out in run_spmd(prog, p).results)


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_allgather_order_and_content(p, seed):
    rng = np.random.default_rng(seed)
    items = [rng.integers(0, 100, size=3).tolist() for _ in range(p)]

    def prog(comm):
        return comm.allgather(items[comm.rank])

    for out in run_spmd(prog, p).results:
        assert out == items[:p]


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_ring_shift_invariant(p, seed):
    """Passing a token around the full ring returns it to its origin."""
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, 10**6, size=p).tolist()

    def prog(comm):
        cur = tokens[comm.rank]
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        for _ in range(comm.size):
            comm.send(cur, dest=right, tag=1)
            cur = comm.recv(source=left, tag=1)
        return cur

    res = run_spmd(prog, p).results
    assert res == tokens[:p]
