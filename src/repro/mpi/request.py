"""Nonblocking request objects.

Sends use the buffered-eager protocol: the payload is snapshotted at post
time, so an ``Isend`` is complete immediately and its ``wait`` never
blocks.  Receives complete when a matching envelope is taken from the
mailbox; completion synchronizes the rank's virtual clock with the modeled
arrival time of the message.

Under fault injection a blocked ``wait`` recovers through the mailbox:
an envelope the fault engine dropped is re-requested from its ledger as
soon as the engine withholds it, in stream order, and only a wait on
something the engine cannot see (a stalled or killed sender) follows the
bounded retry/backoff schedule (see
:class:`repro.mpi.faults.RetryPolicy`).  Either way an exhausted budget
raises :class:`~repro.mpi.errors.MessageLostError` instead of hanging
into the job watchdog.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from .errors import CommError, TruncationError
from .status import Status


class Request:
    """Base class; also the completed-send request."""

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None

    def test(self) -> bool:
        """Return True when the operation has completed (non-blocking)."""
        return self._done

    def wait(self, status: Optional[Status] = None) -> Any:
        """Block until complete; return the received object (if any)."""
        return self._result

    # mpi4py-style aliases
    Test = test
    Wait = wait

    @staticmethod
    def waitall(requests: Sequence["Request"]) -> List[Any]:
        """Complete every request, in order; return their results."""
        return [req.wait() for req in requests]

    Waitall = waitall


class SendRequest(Request):
    """An eager send: complete at creation."""

    def __init__(self) -> None:
        super().__init__()
        self._done = True


class RecvRequest(Request):
    """A posted receive bound to a communicator's mailbox."""

    def __init__(
        self,
        comm: "Comm",  # noqa: F821 - circular import avoided
        source: int,
        tag: int,
        buf: Optional[np.ndarray],
    ) -> None:
        super().__init__()
        self._comm = comm
        self._source = source
        self._tag = tag
        self._buf = buf  # None => object receive

    def test(self) -> bool:
        if self._done:
            return True
        env = self._comm._mailbox.probe(
            self._source, self._tag, self._comm._context
        )
        if env is None:
            return False
        self.wait()
        return True

    def wait(self, status: Optional[Status] = None) -> Any:
        if self._done:
            if status is not None and isinstance(self._result_status, Status):
                status.__dict__.update(self._result_status.__dict__)
            return self._result
        env = self._comm._mailbox.take(
            self._source, self._tag, self._comm._context, block=True
        )
        self._comm._complete_recv(env)
        st = Status(source=env.src, tag=env.tag, nbytes=env.nbytes)
        if self._buf is not None:
            if not env.typed:
                raise CommError(
                    "typed Irecv matched an object message; "
                    "mixed-protocol matching is not supported"
                )
            data = env.payload.reshape(-1)
            if data.size > self._buf.size:
                raise TruncationError(
                    f"message of {data.size} elements truncates "
                    f"receive buffer of {self._buf.size}"
                )
            view = self._buf.reshape(-1)
            view[: data.size] = data.astype(self._buf.dtype, copy=False)
            st.count = int(data.size)
            self._result = None
        else:
            # typed sends decode to the array value; frames are
            # CRC-checked with bounded retransmission recovery
            env, self._result = self._comm._decode_with_recovery(env)
            st = Status(source=env.src, tag=env.tag, nbytes=env.nbytes)
            st.count = env.nbytes
        self._result_status = st
        if status is not None:
            status.__dict__.update(st.__dict__)
        self._done = True
        return self._result
