"""Maintained election state of the packed engine.

``CompactActiveSet`` keeps the up/low election masks and refreshes them
per α write; the packed elections read them through one masked
argmin/argmax per side (``masked_extrema``).  These tests pin both to
their rescanning references, ``up_low_masks`` and ``local_extrema``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel import PackedRankSolver
from repro.core.params import SVMParams
from repro.core.sets import up_low_at, up_low_masks
from repro.core.shrinking import get_heuristic
from repro.core.state import CompactActiveSet, LocalBlock, make_blocks
from repro.core.wss import NO_INDEX, SolverError, local_extrema, masked_extrema
from repro.kernels import RBFKernel
from repro.mpi import run_spmd
from repro.sparse import BlockPartition

from ..conftest import make_blobs

#: α written at packed position k, as a function of that sample's box
ALPHA_WRITES = {
    "zero": lambda C: 0.0,
    "at_zero_tol": lambda C: C * 1e-12,
    "above_zero_tol": lambda C: np.nextafter(C * 1e-12, np.inf),
    "mid": lambda C: 0.5 * C,
    "below_c_tol": lambda C: np.nextafter(C * (1.0 - 1e-12), -np.inf),
    "at_c_tol": lambda C: C * (1.0 - 1e-12),
    "C": lambda C: C,
}


def _compact(n, weights, active_seed):
    X, y = make_blobs(n=n, seed=1)
    params = SVMParams(C=3.0, weight_pos=weights[0], weight_neg=weights[1])
    blk = LocalBlock(X, y, global_start=7)
    box = params.box_for(blk.y)
    if active_seed is not None:
        blk.active[:] = np.random.default_rng(active_seed).random(n) < 0.7
        blk.invalidate_active()
    return CompactActiveSet(blk, box), blk


def _assert_masks_current(cs):
    up, low = up_low_masks(cs.alpha, cs.y, cs.C)
    assert np.array_equal(cs.up, up)
    assert np.array_equal(cs.low, low)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.sampled_from([(1.0, 1.0), (2.5, 0.4), (0.3, 7.0)]),
    active_seed=st.one_of(st.none(), st.integers(0, 50)),
    writes=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(ALPHA_WRITES))),
        max_size=40,
    ),
)
def test_alpha_writes_keep_masks_current(weights, active_seed, writes):
    cs, blk = _compact(24, weights, active_seed)
    _assert_masks_current(cs)
    for pos, kind in writes:
        if cs.n_active == 0:
            break
        k = pos % cs.n_active
        cs.set_alpha(k, ALPHA_WRITES[kind](float(cs.C[k])))
        _assert_masks_current(cs)
    # compaction rebuilds them from the flushed block state
    cs.flush()
    blk.active[::3] = False
    blk.invalidate_active()
    cs.rebuild()
    _assert_masks_current(cs)


@pytest.mark.parametrize("y", [1.0, -1.0])
@pytest.mark.parametrize("kind", sorted(ALPHA_WRITES) + ["nan"])
def test_scalar_flags_match_masks(kind, y):
    C = 2.5
    a = np.nan if kind == "nan" else ALPHA_WRITES[kind](C)
    up, low = up_low_masks(np.array([a]), np.array([y]), np.array([C]))
    assert up_low_at(a, y, C) == (bool(up[0]), bool(low[0]))


def test_position_of_global_is_exact():
    cs, _ = _compact(24, (1.0, 1.0), active_seed=3)
    for k, g in enumerate(cs.gidx.tolist()):
        assert cs.position_of_global(g) == k
        assert cs.position_of_global(np.int64(g)) == k
    inactive = sorted(set(range(7, 31)) - set(cs.gidx.tolist()))
    assert inactive
    for g in inactive + [6, 31]:
        with pytest.raises(IndexError):
            cs.position_of_global(g)


# ----------------------------------------------------------------------
# masked election == local_extrema
# ----------------------------------------------------------------------
def _same_election(gamma, up, low):
    want = local_extrema(gamma, up, low, 0)
    got = masked_extrema(gamma, up, low)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    return got


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.sampled_from([-np.inf, -2.0, -1.0, 0.0, 1.0, 3.0, np.inf]),
            st.booleans(),
            st.booleans(),
        ),
        max_size=12,
    ),
)
def test_masked_election_matches_local_extrema(data):
    gamma = np.array([d[0] for d in data], dtype=np.float64)
    up = np.array([d[1] for d in data], dtype=bool)
    low = np.array([d[2] for d in data], dtype=bool)
    _same_election(gamma, up, low)


def test_masked_election_adversarial_cases():
    T, F = True, False
    # ties -> smallest index on both sides
    got = _same_election(
        np.array([2.0, 1.0, 1.0, 5.0, 5.0]),
        np.array([T, T, T, F, T]), np.array([T, F, T, T, T]),
    )
    assert got == (1.0, 1, 5.0, 3)
    # ±inf values as genuine extrema
    got = _same_election(
        np.array([0.0, -np.inf, np.inf]),
        np.array([T, T, T]), np.array([T, T, T]),
    )
    assert got == (-np.inf, 1, np.inf, 2)
    # every up candidate is +inf and sits behind a non-candidate
    got = _same_election(
        np.array([-5.0, np.inf, np.inf]),
        np.array([F, T, T]), np.array([T, F, F]),
    )
    assert got == (np.inf, 1, -5.0, 0)
    # every low candidate is -inf, behind a non-candidate
    got = _same_election(
        np.array([7.0, -np.inf]), np.array([T, F]), np.array([F, T]),
    )
    assert got == (7.0, 0, -np.inf, 1)
    # an empty side, and an empty rank
    got = _same_election(
        np.array([1.0, 2.0]), np.array([F, F]), np.array([T, T]),
    )
    assert got == (np.inf, NO_INDEX, 2.0, 1)
    got = _same_election(np.empty(0), np.empty(0, bool), np.empty(0, bool))
    assert got == (np.inf, NO_INDEX, -np.inf, NO_INDEX)


@pytest.mark.parametrize("where", [0, 2, 3])
def test_masked_election_nan_names_rank_and_index(where):
    gamma = np.array([1.0, -np.inf, np.inf, 0.5])
    gamma[where] = np.nan
    up = np.array([True, True, False, False])
    low = np.array([False, False, True, True])
    lidx = np.array([4, 9, 12, 20])
    messages = []
    with pytest.raises(SolverError) as ei:
        local_extrema(gamma, up, low, 0, rank=3, local_indices=lidx)
    messages.append(str(ei.value))
    with pytest.raises(SolverError) as ei:
        masked_extrema(gamma, up, low, rank=3, local_indices=lidx)
    messages.append(str(ei.value))
    assert messages[0] == messages[1]
    assert "rank 3" in messages[1]
    assert f"local index {lidx[where]}" in messages[1]


# ----------------------------------------------------------------------
# the packed engine's use of the maintained state
# ----------------------------------------------------------------------
def _packed_solver(comm, X, y, params, wss="mvp"):
    part = BlockPartition(X.shape[0], comm.size)
    blk = make_blocks(X, y, part)[comm.rank]
    return PackedRankSolver(
        comm, blk, part, params, get_heuristic("multi5pc"), wss=wss
    )


@pytest.mark.parametrize("wss", ["mvp", "second_order"])
def test_pending_shrink_leaves_maintained_masks_untouched(wss):
    X, y = make_blobs(n=120, sep=1.2, noise=1.3, seed=3)
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3)

    def body(comm):
        s = _packed_solver(comm, X, y, params, wss)
        cs = s.compact
        viol = s.select()
        for _ in range(2000):
            s.iterate_once(viol, shrink_active=True)
            if s._pending is not None and s._pending.n_shrunk:
                break
            viol = s.select()
        pending = s._pending
        assert pending is not None and pending.n_shrunk
        up0, low0 = cs.up.copy(), cs.low.copy()
        up, low, tail = s._candidates()
        assert tail == cs.n_active - pending.n_shrunk
        assert not (up & pending.mask).any() and not (low & pending.mask).any()
        assert np.array_equal(up, up0 & ~pending.mask)
        # the election reads the narrowed copies; the maintained masks
        # reach the shrink's resolution unchanged
        seen = {}
        resolve = s._resolve_shrink

        def spy(p, delta, out):
            seen["up"], seen["low"] = cs.up.copy(), cs.low.copy()
            return resolve(p, delta, out)

        s._resolve_shrink = spy
        s.select()
        assert np.array_equal(seen["up"], up0)
        assert np.array_equal(seen["low"], low0)
        # resolution recompacted: the rebuilt masks are current again
        _assert_masks_current(cs)
        return True

    assert run_spmd(body, 1).results == [True]


def test_resident_samples_hold_no_stale_columns():
    X, y = make_blobs(n=120, sep=1.2, noise=1.3, seed=3)
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3)

    def body(comm):
        s = _packed_solver(comm, X, y, params)
        s.solve()
        epoch = s.compact.epoch
        held = [e.epoch for e in s._resident.values() if e.kcol is not None]
        return epoch, held, len(s._resident)

    for epoch, held, n_resident in run_spmd(body, 2).results:
        # shrinks and reconstructions recompacted several times, and
        # many distinct samples entered the working set
        assert epoch > 2 and n_resident > 2
        assert all(e == epoch for e in held)
