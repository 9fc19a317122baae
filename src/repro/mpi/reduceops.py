"""Reduction operators for reduce/allreduce.

Operators work element-wise on numpy arrays (typed path) and on Python
scalars / tuples (object path).  ``MINLOC``/``MAXLOC`` reduce ``(value,
location)`` pairs, which the SVM solver uses to find the global worst
KKT violators together with their owning sample index in one allreduce.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np


class ReduceOp:
    """A named, associative, commutative binary reduction operator."""

    def __init__(self, name: str, array_fn: Callable, object_fn: Callable):
        self.name = name
        self._array_fn = array_fn
        self._object_fn = object_fn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReduceOp({self.name})"

    def combine(self, a: Any, b: Any) -> Any:
        """Combine two partial results (object path)."""
        return self._object_fn(a, b)

    def combine_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise combine for the typed path. Returns a new array."""
        return self._array_fn(a, b)


def _pair_minloc(a, b):
    (av, ai), (bv, bi) = a, b
    if bv < av or (bv == av and bi < ai):
        return (bv, bi)
    return (av, ai)


def _pair_maxloc(a, b):
    (av, ai), (bv, bi) = a, b
    if bv > av or (bv == av and bi < ai):
        return (bv, bi)
    return (av, ai)


def _arr_minloc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # value/location pairs packed as [..., 2] or flat [v0, i0, v1, i1, ...]
    a2 = a.reshape(-1, 2)
    b2 = b.reshape(-1, 2)
    take_b = (b2[:, 0] < a2[:, 0]) | ((b2[:, 0] == a2[:, 0]) & (b2[:, 1] < a2[:, 1]))
    out = np.where(take_b[:, None], b2, a2)
    return out.reshape(a.shape)


def _arr_maxloc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a2 = a.reshape(-1, 2)
    b2 = b.reshape(-1, 2)
    take_b = (b2[:, 0] > a2[:, 0]) | ((b2[:, 0] == a2[:, 0]) & (b2[:, 1] < a2[:, 1]))
    out = np.where(take_b[:, None], b2, a2)
    return out.reshape(a.shape)


#: number of leading slots in a MINLOC_MAXLOC buffer that hold the two
#: (value, location) pairs; any trailing slots are summed
ELECTION_SLOTS = 4


def _fused_minloc_maxloc(a, b):
    """Combine two election buffers: slots [0:2] MINLOC, [2:4] MAXLOC,
    the rest (if any) element-wise SUM.

    The comparisons are exactly ``_pair_minloc``/``_pair_maxloc`` — value
    first, smallest location on ties — so a fused reduction elects the
    same winners, in the same reduction-tree order, as two separate
    MINLOC/MAXLOC reductions over the same operands.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    out = a.copy()
    # Python floats compare like the float64 slots, without numpy
    # scalar boxing
    a0, a1, a2, a3 = a[:ELECTION_SLOTS].tolist()
    b0, b1, b2, b3 = b[:ELECTION_SLOTS].tolist()
    if b0 < a0 or (b0 == a0 and b1 < a1):
        out[0], out[1] = b0, b1
    if b2 > a2 or (b2 == a2 and b3 < a3):
        out[2], out[3] = b2, b3
    if a.shape[0] > ELECTION_SLOTS:
        out[ELECTION_SLOTS:] = a[ELECTION_SLOTS:] + b[ELECTION_SLOTS:]
    return out


def _maxloc_payload(a, b):
    """Combine two MAXLOC-with-payload buffers.

    Slot [0] is the value, slot [1] the location; any trailing slots are
    opaque payload that travels with the winning (value, location) pair.
    The comparison is exactly ``_pair_maxloc`` — value first, smallest
    location on ties — so each combine picks one whole operand, which
    keeps the op associative and commutative regardless of payload
    contents.  The second-order working-set election uses it to carry
    the winning candidate's γ alongside its gain and global index.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if b[0] > a[0] or (b[0] == a[0] and b[1] < a[1]):
        return b.copy()
    return a.copy()


def _tuple_maxloc_payload(a, b):
    if b[0] > a[0] or (b[0] == a[0] and b[1] < a[1]):
        return b
    return a


SUM = ReduceOp("SUM", lambda a, b: a + b, lambda a, b: a + b)
PROD = ReduceOp("PROD", lambda a, b: a * b, lambda a, b: a * b)
MAX = ReduceOp("MAX", np.maximum, max)
MIN = ReduceOp("MIN", np.minimum, min)
LAND = ReduceOp("LAND", np.logical_and, lambda a, b: bool(a) and bool(b))
LOR = ReduceOp("LOR", np.logical_or, lambda a, b: bool(a) or bool(b))
BAND = ReduceOp("BAND", np.bitwise_and, lambda a, b: a & b)
BOR = ReduceOp("BOR", np.bitwise_or, lambda a, b: a | b)
MINLOC = ReduceOp("MINLOC", _arr_minloc, _pair_minloc)
MAXLOC = ReduceOp("MAXLOC", _arr_maxloc, _pair_maxloc)
#: fused violator election: one buffer carries a MINLOC pair, a MAXLOC
#: pair and optional SUM tail slots (the solver's shrunk-count piggyback)
MINLOC_MAXLOC = ReduceOp(
    "MINLOC_MAXLOC", _fused_minloc_maxloc, _fused_minloc_maxloc
)
#: MAXLOC whose buffer carries extra payload slots that follow the
#: winner (the second phase of the second-order violator election)
MAXLOC_PAYLOAD = ReduceOp(
    "MAXLOC_PAYLOAD", _maxloc_payload, _tuple_maxloc_payload
)

ALL_OPS = {
    op.name: op
    for op in (
        SUM, PROD, MAX, MIN, LAND, LOR, BAND, BOR, MINLOC, MAXLOC,
        MINLOC_MAXLOC, MAXLOC_PAYLOAD,
    )
}
