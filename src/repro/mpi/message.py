"""In-flight message representation.

A message carries either a contiguous numpy payload (typed path — the
payload is a private copy taken at send time, matching MPI's buffered
eager protocol) or a pickled Python object.  Messages are stamped with
the sender's virtual departure time; the receiver uses it to compute
the modeled arrival time.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, field
from typing import Any

import numpy as np

_seq = itertools.count()


def next_seq() -> int:
    """A fresh globally-unique message sequence number.

    Used by the fault engine when it forges a tampered copy of an
    envelope: the copy needs its own identity so that the receiver's
    duplicate-discard layer does not confuse the later retransmission
    of the pristine original with a duplicate delivery.
    """
    return next(_seq)


@dataclass(slots=True)
class Envelope:
    """One message travelling between two ranks of a communicator."""

    src: int
    dest: int
    tag: int
    context: int  # communicator context id: isolates comms from each other
    payload: Any  # np.ndarray copy (typed) or bytes (frame / pickled object)
    typed: bool
    nbytes: int
    depart_time: float
    seq: int = field(default_factory=lambda: next(_seq))
    #: payload is a typed wire frame (see :mod:`repro.mpi.frames`) —
    #: bytes on the wire like a pickled object, but self-describing,
    #: CRC-protected and pickle-free
    frame: bool = False

    @classmethod
    def from_array(
        cls,
        src: int,
        dest: int,
        tag: int,
        context: int,
        arr: np.ndarray,
        depart_time: float,
    ) -> "Envelope":
        # snapshot (the sender may reuse its buffer); ``arr`` is the
        # contiguous 1-D array ``as_array`` resolved
        copy = arr.copy()
        return cls(
            src, dest, tag, context, copy, True, copy.nbytes, depart_time,
            next(_seq),
        )

    @classmethod
    def from_object(
        cls,
        src: int,
        dest: int,
        tag: int,
        context: int,
        obj: Any,
        depart_time: float,
    ) -> "Envelope":
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(
            src=src,
            dest=dest,
            tag=tag,
            context=context,
            payload=blob,
            typed=False,
            nbytes=len(blob),
            depart_time=depart_time,
        )

    @classmethod
    def from_frame(
        cls,
        src: int,
        dest: int,
        tag: int,
        context: int,
        blob: bytes,
        depart_time: float,
    ) -> "Envelope":
        return cls(
            src=src,
            dest=dest,
            tag=tag,
            context=context,
            payload=blob,
            typed=False,
            nbytes=len(blob),
            depart_time=depart_time,
            frame=True,
        )

    def unpickle(self) -> Any:
        assert not self.typed
        try:
            return pickle.loads(self.payload)
        except Exception as exc:
            from .errors import CorruptMessageError

            raise CorruptMessageError(
                f"payload from rank {self.src} (tag {self.tag}, "
                f"{self.nbytes} bytes) failed to deserialize: {exc}"
            ) from exc

    def decode(self) -> Any:
        """The carried object: typed payloads come back as the array,
        frames are decoded (CRC-checked — raises
        :class:`~repro.mpi.errors.CorruptMessageError` on a tampered
        frame), pickled payloads are unpickled."""
        if self.typed:
            return self.payload
        if self.frame:
            from . import frames

            return frames.decode(self.payload)
        return self.unpickle()

    def matches(self, src: int, tag: int, context: int) -> bool:
        """MPI matching rule: every receive names its source, tag and
        communicator context, and matches exactly those."""
        return self.src == src and self.tag == tag and self.context == context
