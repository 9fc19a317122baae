"""Typed-frame codec: exact round-trips, integrity, and wire accounting."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import frames, run_spmd
from repro.mpi.errors import CorruptMessageError
from repro.sparse.csr import CSRMatrix

DTYPES = ["<f8", "<i8", "<i4", "<f4", "<u1", "?"]


def _rt(obj):
    blob = frames.encode(obj)
    assert blob is not None
    return frames.decode(blob)


def _assert_same(a, b):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, np.generic):  # before float: np.float64 is a float
        assert isinstance(b, np.generic) and a.dtype == b.dtype
        assert a == b or (np.isnan(float(a)) and np.isnan(float(b)))
    elif isinstance(a, float):
        assert type(b) is float
        assert a == b or (np.isnan(a) and np.isnan(b))
    else:
        assert type(a) is type(b) and a == b


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(DTYPES),
        n=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_array_roundtrip_exact(self, dtype, n, seed):
        rng = np.random.default_rng(seed)
        arr = (rng.random(n) * 200 - 100).astype(np.dtype(dtype))
        out = _rt(arr)
        _assert_same(arr, out)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(0,), (3,), (2, 3), (4, 1, 2), ()]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_ndim_shapes_preserved(self, shape, seed):
        rng = np.random.default_rng(seed)
        arr = rng.random(shape)
        _assert_same(arr, _rt(arr))

    @settings(max_examples=40, deadline=None)
    @given(
        f=st.floats(allow_nan=True, allow_infinity=True),
        i=st.integers(min_value=-(2**62), max_value=2**62),
        flag=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_nested_tuple_roundtrip(self, f, i, flag, seed):
        rng = np.random.default_rng(seed)
        obj = (
            rng.random(5),
            (f, i, flag, None),
            [b"csr-bytes", rng.integers(0, 9, 4, dtype=np.int64)],
            np.float64(f),
        )
        _assert_same(obj, _rt(obj))

    def test_sample_payload_shape(self):
        # the owner-rooted pair broadcast payload: (idx, vals, norm, y, alpha)
        obj = (
            np.array([0, 3, 7], dtype=np.int64),
            np.array([0.5, -1.25, 3.0]),
            2.5,
            -1.0,
            0.125,
        )
        _assert_same(obj, _rt(obj))

    def test_empty_csr_block_roundtrip(self):
        # a zero-support rank's ring chunk: empty CSR blob + empty arrays
        empty = CSRMatrix.from_dense(np.zeros((0, 4)))
        chunk = (empty.to_bytes(), np.empty(0), np.empty(0))
        out = _rt(chunk)
        _assert_same(chunk, out)
        rebuilt = CSRMatrix.from_bytes(out[0])
        assert rebuilt.shape[0] == 0

    def test_numpy_scalars_exact(self):
        for val in (np.float64(0.1), np.int32(-7), np.float32(1.5)):
            out = _rt((np.zeros(1), val))[1]
            assert isinstance(out, np.generic) and out.dtype == val.dtype
            assert out == val


class TestVocabulary:
    def test_unframeable_returns_none(self):
        assert frames.encode({"a": 1}) is None
        assert frames.encode("text") is None
        assert frames.encode((np.zeros(2), {"a": 1})) is None
        assert frames.encode(np.array(["s"], dtype=object)) is None

    def test_all_scalar_payloads_not_worth_framing(self):
        # all-scalar payloads such as (value, index) pairs stay pickled
        assert frames.encode((1.5, 3)) is None
        assert frames.encode(None) is None
        assert frames.encode((1, 2, (3.0, None))) is None

    def test_buffer_makes_it_frameable(self):
        assert frames.encode((1.5, 3, np.zeros(1))) is not None
        assert frames.encode(b"raw") is not None

    def test_huge_int_unframeable(self):
        assert frames.encode((2**80, np.zeros(1))) is None

    def test_frame_nbytes_matches_encoding(self):
        obj = (np.arange(10, dtype=np.float64), b"xyz", 1.0)
        assert frames.frame_nbytes(obj) == len(frames.encode(obj))
        assert frames.frame_nbytes("nope") is None


class TestIntegrity:
    def _frame(self):
        return frames.encode((np.arange(16, dtype=np.float64), b"block"))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_flipped_byte_detected(self, data):
        blob = bytearray(self._frame())
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[pos] ^= 1 << bit
        with pytest.raises(CorruptMessageError):
            frames.decode(bytes(blob))

    def test_truncation_detected(self):
        blob = self._frame()
        with pytest.raises(CorruptMessageError):
            frames.decode(blob[:-3])
        with pytest.raises(CorruptMessageError):
            frames.decode(blob[:4])

    def test_trailing_garbage_detected(self):
        with pytest.raises(CorruptMessageError):
            frames.decode(self._frame() + b"\x00")

    def test_bad_magic_detected(self):
        blob = bytearray(self._frame())
        blob[:4] = b"NOPE"
        with pytest.raises(CorruptMessageError):
            frames.decode(bytes(blob))


# ----------------------------------------------------------------------
# the whole vocabulary: exact round-trips, every prefix and flip caught
# ----------------------------------------------------------------------
#: one dtype string per frameable kind (b/i/u/f/c), both byte orders
VOCAB_DTYPES = [
    "?", "<i1", "<i4", "<i8", ">i2", "<u1", "<u2", ">u8",
    "<f2", "<f4", "<f8", ">f8", "<c8", "<c16",
]


@st.composite
def _arrays(draw):
    from hypothesis.extra.numpy import array_shapes, arrays

    dtype = np.dtype(draw(st.sampled_from(VOCAB_DTYPES)))
    shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    arr = draw(arrays(dtype, shape))
    if arr.ndim and draw(st.booleans()):  # a non-contiguous view
        arr = arr[::2] if arr.ndim == 1 else arr.T
    return arr


def _scalars():
    from hypothesis.extra.numpy import arrays

    return st.sampled_from(VOCAB_DTYPES).flatmap(
        lambda d: arrays(np.dtype(d), ())
    ).map(lambda a: a[()])


def _buffers():
    return _arrays() | st.binary(max_size=24)


def _leaves():
    return st.one_of(
        _buffers(),
        _scalars(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.booleans(),
        st.none(),
    )


def _payloads():
    """Any frameable object: nested tuples and lists of the vocabulary,
    with at least one array or bytes section."""
    tree = st.recursive(
        _leaves(),
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple),
        max_leaves=8,
    )
    return st.one_of(_buffers(), st.tuples(tree, _buffers()),
                     st.lists(st.tuples(_buffers(), tree), min_size=1,
                              max_size=2))


def _same_bits(a, b):
    """``b`` equals ``a`` in type, dtype, shape and bits."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == b.tobytes()
    elif isinstance(a, np.generic):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same_bits(x, y)
    else:
        assert a == b


class TestVocabularyProperties:
    @settings(max_examples=150, deadline=None)
    @given(obj=_payloads())
    def test_roundtrip_exact(self, obj):
        blob = frames.encode(obj)
        assert blob is not None
        _same_bits(obj, frames.decode(blob))

    @settings(max_examples=40, deadline=None)
    @given(obj=_payloads(), mask=st.integers(min_value=1, max_value=255))
    def test_every_prefix_and_byte_flip_detected(self, obj, mask):
        blob = frames.encode(obj)
        for k in range(len(blob)):
            with pytest.raises(CorruptMessageError):
                frames.decode(blob[:k])
            flipped = bytearray(blob)
            flipped[k] ^= mask
            with pytest.raises(CorruptMessageError):
                frames.decode(bytes(flipped))


class TestWireSelection:
    """The communicator's automatic framing: frameable payloads travel
    as typed frames, anything else is pickled."""

    def test_send_recv_frames_numeric_payloads(self):
        payload = (np.arange(6, dtype=np.float64), b"blob", 0.5)

        def prog(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1, tag=5)
                return None
            return comm.recv(source=0, tag=5)

        out = run_spmd(prog, 2, trace=True)
        _assert_same(payload, out.results[1])
        # the traced send moved exactly the frame's wire bytes — not a
        # pickle image
        sends = [e for e in out.tracer.events if e.kind == "send"]
        assert sends[0].nbytes == frames.frame_nbytes(payload)

    def test_unframeable_objects_fall_back_to_pickle(self):
        import pickle

        payload = {"a": [1, 2]}

        def prog(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1, tag=5)
                return None
            return comm.recv(source=0, tag=5)

        out = run_spmd(prog, 2, trace=True)
        assert out.results[1] == payload
        # the traced send moved exactly the pickle image
        sends = [e for e in out.tracer.events if e.kind == "send"]
        assert sends[0].nbytes == len(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )


class TestFramedFaultRecovery:
    """Corrupt/drop faults on framed p2p messages: CRC detects, the
    ledger retransmits, and the decoded payload is pristine."""

    PAYLOAD_SEED = 7

    def _payload(self):
        rng = np.random.default_rng(self.PAYLOAD_SEED)
        return (rng.random(32), b"header", np.arange(8, dtype=np.int64))

    def _exchange(self, faults):
        payload = self._payload()

        def prog(comm):
            if comm.rank == 0:
                comm.send(payload, dest=1, tag=9)
                return None
            return comm.recv(source=0, tag=9)

        return run_spmd(
            prog, 2, faults=faults
        )

    def test_corrupted_frame_retransmitted(self):
        out = self._exchange("seed=3;corrupt:tag=9,nth=1")
        _assert_same(self._payload(), out.results[1])
        assert out.fault_stats["stats"]["corrupted"] == 1
        assert out.fault_stats["stats"]["retransmitted"] >= 1

    def test_dropped_frame_retransmitted(self):
        out = self._exchange("seed=3;drop:tag=9,nth=1")
        _assert_same(self._payload(), out.results[1])
        assert out.fault_stats["stats"]["dropped"] == 1
