"""LocalBlock state container."""

import numpy as np
import pytest

from repro.core.state import CompactActiveSet, LocalBlock, make_blocks
from repro.sparse import BlockPartition, CSRMatrix

from ..conftest import make_blobs


def test_initial_state():
    X, y = make_blobs(n=20)
    blk = LocalBlock(X, y, global_start=100)
    assert np.array_equal(blk.gamma, -y)
    assert np.array_equal(blk.alpha, np.zeros(20))
    assert blk.active.all()
    assert blk.n_active == 20
    assert blk.n_shrunk == 0


def test_label_mismatch():
    X, y = make_blobs(n=20)
    with pytest.raises(ValueError):
        LocalBlock(X, y[:-1], 0)


def test_global_local_translation():
    X, y = make_blobs(n=10)
    blk = LocalBlock(X, y, global_start=50)
    assert blk.owns_global(50) and blk.owns_global(59)
    assert not blk.owns_global(49) and not blk.owns_global(60)
    assert blk.to_local(53) == 3
    with pytest.raises(IndexError):
        blk.to_local(60)


def test_compact_active_set_follows_rebuild():
    X, y = make_blobs(n=12)
    blk = LocalBlock(X, y, 0)
    cs = CompactActiveSet(blk, np.full(12, 10.0))
    assert cs.n_active == 12 and cs.epoch == 1
    Xa1 = cs.Xa
    # the packed rows stay as they are until the set is recompacted
    blk.active[3] = False
    assert cs.Xa is Xa1 and cs.n_active == 12
    cs.rebuild()
    assert cs.n_active == 11 and cs.epoch == 2
    assert 3 not in cs.lidx
    assert np.array_equal(cs.Xa.to_dense(), X.take_rows(cs.lidx).to_dense())
    assert np.array_equal(cs.norms, blk.norms[cs.lidx])


def test_sample_payload_roundtrip():
    X, y = make_blobs(n=8)
    blk = LocalBlock(X, y, 0)
    blk.alpha[2] = 3.5
    idx, vals, norm, label, alpha = blk.sample_payload(2)
    xi, xv = X.row(2)
    assert np.array_equal(idx, xi)
    assert np.array_equal(vals, xv)
    assert norm == pytest.approx(float(X.row_norms_sq()[2]))
    assert label == y[2]
    assert alpha == 3.5
    # views into the CSR storage: the broadcast hands receivers copies
    assert np.shares_memory(vals, X.data)


def test_make_blocks_covers_problem():
    X, y = make_blobs(n=23)
    part = BlockPartition(23, 4)
    blocks = make_blocks(X, y, part)
    assert len(blocks) == 4
    total = sum(b.n_local for b in blocks)
    assert total == 23
    re_X = CSRMatrix.vstack([b.X for b in blocks])
    assert np.array_equal(re_X.to_dense(), X.to_dense())
    re_y = np.concatenate([b.y for b in blocks])
    assert np.array_equal(re_y, y)
    for r, b in enumerate(blocks):
        assert b.global_start == part.start(r)
