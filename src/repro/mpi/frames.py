"""Typed-buffer wire frames: the pickle-free payload protocol.

A *frame* is a self-describing byte string carrying numpy arrays, raw
byte blocks (CSR blobs travel as their ``header+indptr+indices+data``
serialization) and the handful of scalar types the solver's hot-path
payloads are built from.  Framing replaces pickling on every path that
moves numerical data — collectives, the owner-rooted sample broadcast,
the reconstruction ring — so that

- traced byte counts are honest: ``Envelope.nbytes`` is exactly the
  number of payload bytes a real MPI implementation would move for the
  same typed buffers, with a fixed, inspectable per-section overhead
  instead of pickle's opaque framing;
- corruption is detectable: every frame embeds a CRC32 over its body,
  so a tampered byte surfaces as a structured
  :class:`~repro.mpi.errors.CorruptMessageError` at decode time and
  feeds the receiver-driven retransmission protocol (exactly like the
  reconstruction ring's chunk checksums);
- round-trips are exact: arrays come back with the same dtype, shape
  and bits; Python floats are carried as their IEEE-754 image.

Wire format (all integers little-endian)::

    frame   := magic(4) crc32(u4) body
    body    := node
    node    := 'A' u1:len(dtype.str) dtype.str u1:ndim i8*ndim raw
             | 'S' u1:len(dtype.str) dtype.str raw          (numpy scalar)
             | 'B' i8:len raw                               (bytes)
             | 'F' f8                                       (python float)
             | 'I' i8                                       (python int)
             | 'b' u1                                       (python bool)
             | 'N'                                          (None)
             | 'T' i8:count node*                           (tuple)
             | 'L' i8:count node*                           (list)

:func:`encode` returns ``None`` for objects outside this vocabulary
(or containing no array/bytes section at all — tiny all-scalar
payloads such as a ``(value, index)`` pair stay on the pickle path,
where framing would not pay).  The sender falls back to pickle
transparently; the envelope records which protocol a message used.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, List, Optional

import numpy as np

from .errors import CorruptMessageError

#: frame magic: "repro frame, revision 1"
MAGIC = b"RFR1"

#: bytes of fixed per-frame overhead (magic + CRC32)
HEADER_BYTES = 8

_HEAD = struct.Struct("<4sI")
_I8 = struct.Struct("<q")
_F8 = struct.Struct("<d")

#: numpy dtype kinds a frame may carry (no object/str/void payloads)
_ARRAY_KINDS = frozenset("biufc")


class _Unframeable(Exception):
    """Internal: the object is outside the frame vocabulary."""


def _encode_node(obj: Any, out: List[bytes]) -> bool:
    """Append the wire image of ``obj``; returns True when any section
    is an array/bytes buffer (the "worth framing" criterion)."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in _ARRAY_KINDS:
            raise _Unframeable(f"array dtype {obj.dtype} not frameable")
        ds = obj.dtype.str.encode("ascii")
        out.append(b"A")
        out.append(struct.pack("<B", len(ds)))
        out.append(ds)
        # record obj's own geometry: ascontiguousarray promotes 0-d to 1-d
        out.append(struct.pack("<B", obj.ndim))
        for dim in obj.shape:
            out.append(_I8.pack(dim))
        out.append(np.ascontiguousarray(obj).tobytes())
        return True
    if isinstance(obj, np.generic):
        # before float/int: np.float64 subclasses float, and the 'S'
        # image is what keeps its dtype identity across the wire
        dt = obj.dtype
        if dt.kind not in _ARRAY_KINDS:
            raise _Unframeable(f"scalar dtype {dt} not frameable")
        ds = dt.str.encode("ascii")
        out.append(b"S")
        out.append(struct.pack("<B", len(ds)))
        out.append(ds)
        out.append(obj.tobytes())
        return False
    if isinstance(obj, bool):  # before int: bool is an int subclass
        out.append(b"b" + struct.pack("<B", int(obj)))
        return False
    if isinstance(obj, bytes):
        out.append(b"B" + _I8.pack(len(obj)))
        out.append(obj)
        return True
    if isinstance(obj, float):
        out.append(b"F" + _F8.pack(obj))
        return False
    if isinstance(obj, int):
        if not -(2**63) <= obj < 2**63:
            raise _Unframeable("int out of i64 range")
        out.append(b"I" + _I8.pack(obj))
        return False
    if obj is None:
        out.append(b"N")
        return False
    if isinstance(obj, (tuple, list)):
        out.append((b"T" if isinstance(obj, tuple) else b"L") + _I8.pack(len(obj)))
        buffered = False
        for item in obj:
            buffered |= _encode_node(item, out)
        return buffered
    raise _Unframeable(f"type {type(obj).__name__} not frameable")


def encode(obj: Any) -> Optional[bytes]:
    """The wire frame for ``obj``, or ``None`` when it cannot (or is
    not worth) framing — the caller falls back to pickle."""
    out: List[bytes] = []
    try:
        has_buffer = _encode_node(obj, out)
    except _Unframeable:
        return None
    if not has_buffer:
        return None
    body = b"".join(out)
    return _HEAD.pack(MAGIC, zlib.crc32(body) & 0xFFFFFFFF) + body


def frame_nbytes(obj: Any) -> Optional[int]:
    """Exact wire size of ``obj``'s frame (``None`` if unframeable)."""
    blob = encode(obj)
    return None if blob is None else len(blob)


#: ``np.dtype`` per wire dtype string, parsed once per process
_DTYPES: dict = {}


def _dtype(mv: memoryview, pos: int, end: int):
    """The array/scalar dtype whose length-prefixed string starts at
    ``pos``, and the position after it."""
    if pos >= end:
        raise ValueError("frame truncated")
    stop = pos + 1 + mv[pos]
    if stop > end:
        raise ValueError("frame truncated")
    key = mv[pos + 1 : stop].tobytes()
    dtype = _DTYPES.get(key)
    if dtype is None:
        try:
            dtype = np.dtype(key.decode("ascii"))
        except (TypeError, UnicodeDecodeError) as exc:
            raise ValueError(f"bad frame dtype {key!r}") from exc
        if dtype.kind not in _ARRAY_KINDS:
            raise ValueError(f"frame dtype {dtype} not frameable")
        _DTYPES[key] = dtype
    return dtype, stop


def _decode_node(mv: memoryview, pos: int, end: int):
    """Decode the node at ``pos`` of the frame ``mv`` (which ends at
    ``end``); returns it and the position after it.  Arrays and byte
    blocks are copied once, straight out of the frame."""
    if pos >= end:
        raise ValueError("frame truncated")
    tag = mv[pos]
    pos += 1
    if tag == 0x41:  # 'A'
        dtype, pos = _dtype(mv, pos, end)
        if pos >= end:
            raise ValueError("frame truncated")
        ndim = mv[pos]
        if ndim == 1:  # the common case: no reshape
            shape = None
            (count,) = _I8.unpack_from(mv, pos + 1)
            dims = (count,)
        else:
            shape = dims = struct.unpack_from(f"<{ndim}q", mv, pos + 1)
            count = 1
            for dim in dims:
                count *= dim
        if min(dims, default=0) < 0:
            raise ValueError(f"negative frame array dimension in {dims}")
        pos += 1 + 8 * ndim
        stop = pos + count * dtype.itemsize
        if stop > end:
            raise ValueError("frame truncated")
        arr = np.frombuffer(mv, dtype, count, pos)
        if shape is not None:
            arr = arr.reshape(shape)
        return arr.copy(), stop
    if tag == 0x53:  # 'S'
        dtype, pos = _dtype(mv, pos, end)
        stop = pos + dtype.itemsize
        if stop > end:
            raise ValueError("frame truncated")
        return np.frombuffer(mv, dtype, 1, pos)[0], stop
    if tag == 0x42:  # 'B'
        (n,) = _I8.unpack_from(mv, pos)
        pos += 8
        if n < 0 or pos + n > end:
            raise ValueError("frame truncated")
        return mv[pos : pos + n].tobytes(), pos + n
    if tag == 0x46:  # 'F'
        return _F8.unpack_from(mv, pos)[0], pos + 8
    if tag == 0x49:  # 'I'
        return _I8.unpack_from(mv, pos)[0], pos + 8
    if tag == 0x62:  # 'b'
        if pos >= end:
            raise ValueError("frame truncated")
        return bool(mv[pos]), pos + 1
    if tag == 0x4E:  # 'N'
        return None, pos
    if tag == 0x54 or tag == 0x4C:  # 'T', 'L'
        (n,) = _I8.unpack_from(mv, pos)
        pos += 8
        items = []
        for _ in range(n):
            item, pos = _decode_node(mv, pos, end)
            items.append(item)
        return (tuple(items) if tag == 0x54 else items), pos
    raise ValueError(f"unknown frame tag {bytes([tag])!r}")


def decode(blob: Any) -> Any:
    """Decode one frame; raises
    :class:`~repro.mpi.errors.CorruptMessageError` on any integrity or
    structure failure (bad magic, CRC mismatch, truncation, unknown
    tag, trailing bytes).

    Reads the frame in place through one ``memoryview``: nothing is
    copied but each array and byte block, once, into its result.
    """
    mv = memoryview(blob).cast("B")
    end = len(mv)
    try:
        if end < HEADER_BYTES:
            raise ValueError("frame shorter than header")
        magic, crc = _HEAD.unpack_from(mv, 0)
        if magic != MAGIC:
            raise ValueError(f"bad frame magic {magic!r}")
        if zlib.crc32(mv[HEADER_BYTES:]) != crc:
            raise ValueError("frame CRC32 mismatch")
        obj, pos = _decode_node(mv, HEADER_BYTES, end)
        if pos != end:
            raise ValueError("trailing bytes after frame body")
        return obj
    except struct.error as exc:  # a fixed-size field ran past the end
        raise CorruptMessageError(
            f"typed frame failed to decode: frame truncated ({exc})"
        ) from exc
    except ValueError as exc:
        raise CorruptMessageError(f"typed frame failed to decode: {exc}") from exc
