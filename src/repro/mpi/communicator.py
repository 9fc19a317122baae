"""The communicator: point-to-point primitives plus collective entry points.

API shape mirrors mpi4py: lower-case methods move pickled Python objects,
upper-case methods move numpy buffers in place.  All communication is
matched through per-rank mailboxes owned by the :class:`SpmdRuntime`;
virtual time advances according to the runtime's :class:`MachineSpec`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from . import frames
from .clock import VirtualClock
from .datatypes import ANY_SOURCE, ANY_TAG, TAG_UB, as_array, check_tag
from .errors import CommError, CorruptMessageError, RankError, TruncationError
from .message import Envelope
from .reduceops import SUM, ReduceOp
from .request import RecvRequest, Request, SendRequest
from .status import Status

#: first tag reserved for internal collective traffic
_COLL_TAG_BASE = TAG_UB + 1
_COLL_TAG_SPAN = 2**20

#: bounded retransmission attempts when a received frame fails its CRC
_RECV_MAX_RETRIES = 3


class Comm:
    """A communicator over a subset of the job's ranks."""

    def __init__(
        self,
        runtime: "SpmdRuntime",  # noqa: F821
        group: Tuple[int, ...],
        rank: int,
        context: int,
    ) -> None:
        self._runtime = runtime
        self._group = group  # local rank -> global rank
        self._rank = rank
        self._context = context
        self._coll_seq = 0
        self._split_seq = 0
        self._clock: VirtualClock = runtime.clocks[group[rank]]
        self._mailbox = runtime.mailboxes[group[rank]]
        self._machine = runtime.machine
        self._tracer = runtime.tracer
        self._suite = runtime.collectives
        #: peer local rank -> shares this rank's node (machine geometry
        #: is fixed for the job; filled lazily, one lookup per peer)
        self._intra: dict = {}

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._group)

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self.size

    @property
    def vtime(self) -> float:
        """This rank's current virtual time in seconds."""
        return self._clock.now

    @property
    def clock(self) -> VirtualClock:
        return self._clock

    @property
    def machine(self):
        return self._machine

    def advance(self, seconds: float) -> float:
        """Charge ``seconds`` of local compute to the virtual clock."""
        t0 = self._clock.now
        t1 = self._clock.advance(seconds, kind="compute")
        self._tracer.record(self._rank, "compute", "advance", -1, 0, t0, t1)
        return t1

    def charge_kernel_evals(self, n_evals: float, avg_nnz: float) -> float:
        """Charge the modeled time of ``n_evals`` kernel evaluations."""
        return self.advance(self._machine.time_kernel_evals(n_evals, avg_nnz))

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def _check_peer(self, peer: int, *, allow_any: bool = False) -> int:
        if peer == ANY_SOURCE and allow_any:
            return peer
        if not 0 <= peer < self.size:
            raise RankError(
                f"rank {peer} out of range for communicator of size {self.size}"
            )
        return peer

    def _global(self, local_rank: int) -> int:
        return self._group[local_rank]

    # ------------------------------------------------------------------
    # point-to-point: internal
    # ------------------------------------------------------------------
    def _deliver(self, env: Envelope) -> None:
        self._runtime.deliver(env)

    def _before_send(self) -> None:
        """Fault-engine send hook (stall/kill progress marks)."""
        engine = self._runtime.faults
        if engine is not None:
            engine.before_send(self._global(self._rank))

    def _post_send_typed(self, arr: np.ndarray, dest: int, tag: int) -> None:
        self._before_send()
        t0 = self._clock.now
        self._clock.advance(self._machine.send_overhead, kind="comm")
        env = Envelope.from_array(
            self._rank, self._global(dest), tag, self._context, arr, self._clock.now
        )
        self._clock.record_send(env.nbytes)
        self._deliver(env)
        self._tracer.record(
            self._rank, "send", "Send", dest, env.nbytes, t0, self._clock.now
        )

    def _post_send_object(
        self, obj: Any, dest: int, tag: int, wire: Optional[str] = None
    ) -> None:
        """Send a Python object, framing it when the typed-frame protocol
        covers it.

        ``wire`` selects the payload protocol: ``None`` (default) frames
        when possible and falls back to pickle; ``"frames"`` requires a
        frameable object (raises :class:`CommError` otherwise);
        ``"pickle"`` forces the legacy pickled path.
        """
        self._before_send()
        t0 = self._clock.now
        self._clock.advance(self._machine.send_overhead, kind="comm")
        blob = None if wire == "pickle" else frames.encode(obj)
        if blob is not None:
            env = Envelope.from_frame(
                self._rank, self._global(dest), tag, self._context,
                blob, self._clock.now,
            )
        elif wire == "frames":
            raise CommError(
                f"wire='frames' requires a frameable payload; "
                f"{type(obj).__name__} is outside the frame vocabulary"
            )
        else:
            env = Envelope.from_object(
                self._rank, self._global(dest), tag, self._context,
                obj, self._clock.now,
            )
        self._clock.record_send(env.nbytes)
        self._deliver(env)
        self._tracer.record(
            self._rank, "send", "send", dest, env.nbytes, t0, self._clock.now
        )

    def _complete_recv(self, env: Envelope) -> None:
        """Clock/statistics bookkeeping once an envelope is matched."""
        t0 = self._clock.now
        intra = self._intra.get(env.src)
        if intra is None:
            intra = self._intra[env.src] = self._machine.same_node(
                self._group[env.src], self._group[self._rank]
            )
        arrival = env.depart_time + self._machine.p2p_time(env.nbytes, intra=intra)
        self._clock.sync_to(arrival, kind="comm")
        self._clock.record_recv(env.nbytes)
        self._tracer.record(
            self._rank, "recv", "recv", env.src, env.nbytes, t0, self._clock.now
        )

    def _decode_with_recovery(self, env: Envelope) -> Tuple[Envelope, Any]:
        """Decode a matched envelope's payload, re-requesting pristine
        retransmissions of corrupt frames from the fault ledger (bounded
        attempts) before surfacing :class:`CorruptMessageError`."""
        attempts = 0
        while True:
            try:
                return env, env.decode()
            except CorruptMessageError:
                attempts += 1
                if attempts > _RECV_MAX_RETRIES or not self.rerequest(
                    env.src, env.tag
                ):
                    raise
                env = self._mailbox.take(
                    env.src, env.tag, self._context, block=True
                )
                self._complete_recv(env)

    # ------------------------------------------------------------------
    # point-to-point: typed (numpy buffers)
    # ------------------------------------------------------------------
    def Send(self, buf: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest)
        check_tag(tag)
        self._post_send_typed(as_array(buf), dest, tag)

    def Recv(
        self,
        buf: Any,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> None:
        self._check_peer(source, allow_any=True)
        check_tag(tag, allow_any=True)
        arr = as_array(buf)
        env = self._mailbox.take(source, tag, self._context, block=True)
        self._complete_recv(env)
        if not env.typed:
            raise CommError("typed Recv matched an object message")
        data = env.payload.reshape(-1)
        if data.size > arr.size:
            raise TruncationError(
                f"message of {data.size} elements truncates buffer of {arr.size}"
            )
        arr[: data.size] = data.astype(arr.dtype, copy=False)
        if status is not None:
            status.source, status.tag = env.src, env.tag
            status.count, status.nbytes = int(data.size), env.nbytes

    def Isend(self, buf: Any, dest: int, tag: int = 0) -> Request:
        self.Send(buf, dest, tag)
        return SendRequest()

    def Irecv(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        self._check_peer(source, allow_any=True)
        check_tag(tag, allow_any=True)
        return RecvRequest(self, source, tag, as_array(buf))

    def Sendrecv(
        self,
        sendbuf: Any,
        dest: int,
        sendtag: int = 0,
        recvbuf: Any = None,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> None:
        req = self.Irecv(recvbuf, source, recvtag)
        self.Send(sendbuf, dest, sendtag)
        req.wait(status)

    # ------------------------------------------------------------------
    # point-to-point: pickled objects
    # ------------------------------------------------------------------
    def send(
        self, obj: Any, dest: int, tag: int = 0, wire: Optional[str] = None
    ) -> None:
        self._check_peer(dest)
        check_tag(tag)
        self._post_send_object(obj, dest, tag, wire=wire)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Optional[Status] = None,
    ) -> Any:
        self._check_peer(source, allow_any=True)
        check_tag(tag, allow_any=True)
        env = self._mailbox.take(source, tag, self._context, block=True)
        self._complete_recv(env)
        env, obj = self._decode_with_recovery(env)
        if status is not None:
            status.source, status.tag = env.src, env.tag
            status.count = status.nbytes = env.nbytes
        return obj

    def isend(
        self, obj: Any, dest: int, tag: int = 0, wire: Optional[str] = None
    ) -> Request:
        self.send(obj, dest, tag, wire=wire)
        return SendRequest()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        self._check_peer(source, allow_any=True)
        check_tag(tag, allow_any=True)
        return RecvRequest(self, source, tag, None)

    def sendrecv(
        self, sendobj: Any, dest: int, sendtag: int = 0,
        source: int = ANY_SOURCE, recvtag: int = ANY_TAG,
    ) -> Any:
        req = self.irecv(source, recvtag)
        self.send(sendobj, dest, sendtag)
        return req.wait()

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking probe for a matching pending message."""
        return (
            self._mailbox.probe(source, tag, self._context) is not None
        )

    def rerequest(self, source: int, tag: int) -> bool:
        """Ask the fault engine to retransmit the pristine original of a
        corrupted message.

        Integrity-checking protocols (frame decoding, the reconstruction
        ring) call this after detecting a corrupt payload; the pristine
        envelope — if the engine ledgered one — is re-injected into this
        rank's mailbox.  (Dropped messages need no call: the mailbox
        recovers them as soon as the engine withholds them.)  Returns
        False when no fault engine is installed or nothing matching is
        recoverable.
        """
        engine = self._runtime.faults
        if engine is None:
            return False
        env = engine.re_request(
            self._global(self._rank), source, tag, self._context
        )
        if env is None:
            return False
        self._mailbox.put(env)
        return True

    # ------------------------------------------------------------------
    # internal tag allocation for collectives
    # ------------------------------------------------------------------
    def _next_coll_tag(self) -> int:
        tag = _COLL_TAG_BASE + (self._coll_seq % _COLL_TAG_SPAN)
        self._coll_seq += 1
        return tag

    def _coll_send(
        self, obj: Any, dest: int, tag: int, typed: bool = False
    ) -> None:
        if typed:
            self._post_send_typed(obj, dest, tag)
        else:
            self._post_send_object(obj, dest, tag)

    def _coll_recv(self, source: int, tag: int) -> Any:
        env = self._mailbox.take(source, tag, self._context, block=True)
        self._complete_recv(env)
        return self._decode_with_recovery(env)[1]

    def _trace_collective(self, op: str, t0: float, b0: int) -> None:
        """Record a finished collective with this rank's *exact* wire
        contribution: the delta of bytes sent since entry (``b0``)."""
        self._tracer.record(
            self._rank,
            "collective",
            op,
            -1,
            self._clock.stats.bytes_sent - b0,
            t0,
            self._clock.now,
        )

    def _coll_entry(self) -> Tuple[float, int]:
        """Snapshot (vtime, bytes-sent) at collective entry for tracing."""
        return self._clock.now, self._clock.stats.bytes_sent

    # ------------------------------------------------------------------
    # collectives (object path; typed wrappers below)
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        t0, b0 = self._coll_entry()
        self._suite.barrier(self)
        self._trace_collective("Barrier", t0, b0)

    Barrier = barrier

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        self._check_peer(root)
        t0, b0 = self._coll_entry()
        out = self._suite.bcast(self, obj, root)
        self._trace_collective("Bcast", t0, b0)
        return out

    def reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        self._check_peer(root)
        t0, b0 = self._coll_entry()
        out = self._suite.reduce(self, obj, op, root)
        self._trace_collective("Reduce", t0, b0)
        return out

    def allreduce(self, obj: Any, op: ReduceOp = SUM) -> Any:
        t0, b0 = self._coll_entry()
        out = self._suite.allreduce(self, obj, op)
        self._trace_collective("Allreduce", t0, b0)
        return out

    def allreduce_buffer(self, arr: Any, op: ReduceOp = SUM) -> np.ndarray:
        """Allreduce a small numpy buffer over the typed envelope path.

        Unlike :meth:`allreduce` the operands move as raw buffers (no
        pickling) and are combined with the op's array path; unlike
        :meth:`Allreduce` the result is returned rather than written
        in place.  Reduction tree and combine order are identical to
        :meth:`allreduce`, so (value, location) elections produce the
        same winners on either path.  The operand is not copied: sends
        snapshot it and combines return new arrays (a one-rank
        communicator returns the operand itself).
        """
        src = as_array(arr)
        t0, b0 = self._coll_entry()
        out = self._suite.allreduce(self, src, op, arrays=True, typed=True)
        self._trace_collective("Allreduce", t0, b0)
        return np.asarray(out)

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        self._check_peer(root)
        t0, b0 = self._coll_entry()
        out = self._suite.gather(self, obj, root)
        self._trace_collective("Gather", t0, b0)
        return out

    def allgather(self, obj: Any) -> List[Any]:
        t0, b0 = self._coll_entry()
        out = self._suite.allgather(self, obj)
        self._trace_collective("Allgather", t0, b0)
        return out

    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        self._check_peer(root)
        t0, b0 = self._coll_entry()
        out = self._suite.scatter(self, objs, root)
        self._trace_collective("Scatter", t0, b0)
        return out

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        t0, b0 = self._coll_entry()
        out = self._suite.alltoall(self, objs)
        self._trace_collective("Alltoall", t0, b0)
        return out

    def scan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction (MPI_Scan)."""
        t0, b0 = self._coll_entry()
        out = self._suite.scan(self, obj, op)
        self._trace_collective("Scan", t0, b0)
        return out

    def exscan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix reduction (MPI_Exscan; None on rank 0)."""
        t0, b0 = self._coll_entry()
        out = self._suite.exscan(self, obj, op)
        self._trace_collective("Exscan", t0, b0)
        return out

    def reduce_scatter(self, objs: Sequence[Any], op: ReduceOp = SUM) -> Any:
        """Reduce slot i across ranks; rank i receives result i
        (MPI_Reduce_scatter_block with one item per rank)."""
        t0, b0 = self._coll_entry()
        out = self._suite.reduce_scatter(self, objs, op)
        self._trace_collective("Reduce_scatter", t0, b0)
        return out

    # ------------------------------------------------------------------
    # collectives: typed wrappers (in-place numpy buffers)
    # ------------------------------------------------------------------
    def Bcast(self, buf: Any, root: int = 0) -> None:
        arr = as_array(buf)
        if self._rank == root:
            self.bcast(arr.copy(), root=root)
        else:
            data = self.bcast(None, root=root)
            if data.size != arr.size:
                raise TruncationError(
                    f"Bcast of {data.size} elements into buffer of {arr.size}"
                )
            arr[:] = data.astype(arr.dtype, copy=False)

    def Allreduce(self, sendbuf: Any, recvbuf: Any, op: ReduceOp = SUM) -> None:
        if sendbuf is IN_PLACE:
            out = as_array(recvbuf)
            result = self._suite.allreduce(self, out.copy(), op, arrays=True)
        else:
            src = as_array(sendbuf)
            out = as_array(recvbuf)
            if src.size != out.size:
                raise CommError("Allreduce send/recv buffer size mismatch")
            result = self._suite.allreduce(self, src.copy(), op, arrays=True)
        out[:] = result.astype(out.dtype, copy=False)

    def Reduce(
        self, sendbuf: Any, recvbuf: Any, op: ReduceOp = SUM, root: int = 0
    ) -> None:
        src = as_array(sendbuf).copy()
        result = self._suite.reduce(self, src, op, root, arrays=True)
        if self._rank == root:
            out = as_array(recvbuf)
            out[:] = result.astype(out.dtype, copy=False)

    def Gather(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        src = as_array(sendbuf).copy()
        parts = self._suite.gather(self, src, root)
        if self._rank == root:
            out = as_array(recvbuf)
            flat = np.concatenate([np.asarray(p).reshape(-1) for p in parts])
            if flat.size != out.size:
                raise TruncationError("Gather buffer size mismatch")
            out[:] = flat.astype(out.dtype, copy=False)

    def Allgather(self, sendbuf: Any, recvbuf: Any) -> None:
        src = as_array(sendbuf).copy()
        parts = self._suite.allgather(self, src)
        out = as_array(recvbuf)
        flat = np.concatenate([np.asarray(p).reshape(-1) for p in parts])
        if flat.size != out.size:
            raise TruncationError("Allgather buffer size mismatch")
        out[:] = flat.astype(out.dtype, copy=False)

    def Allgatherv(self, sendbuf: Any, recvbuf: Any) -> None:
        # identical to Allgather with per-rank counts inferred from payloads
        self.Allgather(sendbuf, recvbuf)

    def Scatter(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        out = as_array(recvbuf)
        if self._rank == root:
            src = as_array(sendbuf)
            if src.size != out.size * self.size:
                raise CommError("Scatter buffer size mismatch")
            chunks = [
                src[i * out.size : (i + 1) * out.size].copy()
                for i in range(self.size)
            ]
        else:
            chunks = None
        part = self._suite.scatter(self, chunks, root)
        out[:] = np.asarray(part).reshape(-1).astype(out.dtype, copy=False)

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def Split(self, color: int, key: int = 0) -> Optional["Comm"]:
        """Partition the communicator by ``color``, order by ``(key, rank)``."""
        triples = self.allgather((color, key, self._rank))
        self._split_seq += 1
        if color is None or color < 0:
            return None
        members = sorted(
            (k, r) for (c, k, r) in triples if c == color
        )
        group = tuple(self._global(r) for (_, r) in members)
        new_rank = [r for (_, r) in members].index(self._rank)
        ctx = self._runtime.allocate_context(
            (self._context, self._split_seq, color)
        )
        return Comm(self._runtime, group, new_rank, ctx)

    def Dup(self) -> "Comm":
        self._split_seq += 1
        ctx = self._runtime.allocate_context(
            (self._context, self._split_seq, "dup")
        )
        # Dup is collective: synchronize so all ranks agree on the sequence.
        self.barrier()
        return Comm(self._runtime, self._group, self._rank, ctx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comm(rank={self._rank}, size={self.size}, ctx={self._context})"


class _InPlace:
    """Sentinel mirroring ``MPI.IN_PLACE``."""

    def __repr__(self) -> str:  # pragma: no cover
        return "IN_PLACE"


IN_PLACE = _InPlace()
