"""The communicator: point-to-point primitives plus collective entry points.

Point-to-point is one eager :meth:`Comm.send` and one blocking
:meth:`Comm.recv`; each moves a Python object, as a typed frame when the
frame protocol covers it and pickled otherwise.  The collectives take
the mpi4py lower-case names and move objects the same way;
:meth:`Comm.allreduce_buffer` moves a small numpy buffer raw.  A
sub-communicator is carved with :func:`repro.mpi.topology.carve`.  All
communication is matched through per-rank mailboxes owned by the
:class:`SpmdRuntime`; virtual time advances according to the runtime's
:class:`MachineSpec`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from . import frames
from .clock import VirtualClock
from .datatypes import TAG_UB, as_array, check_tag
from .errors import CorruptMessageError, RankError
from .message import Envelope
from .reduceops import SUM, ReduceOp

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
        self._clock: VirtualClock = runtime.clocks[group[rank]]
        self._mailbox = runtime.mailboxes[group[rank]]
        self._machine = runtime.machine
        self._tracer = runtime.tracer
        self._faults = runtime.faults
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
        if self._tracer.enabled:
            self._tracer.record(self._rank, "compute", "advance", -1, 0, t0, t1)
        return t1

    def charge_kernel_evals(self, n_evals: float, avg_nnz: float) -> float:
        """Charge the modeled time of ``n_evals`` kernel evaluations."""
        return self.advance(self._machine.time_kernel_evals(n_evals, avg_nnz))

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def _check_peer(self, peer: int) -> int:
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
    def _post_send(
        self, obj: Any, dest: int, tag: int, typed: bool = False
    ) -> None:
        """Post ``obj`` to ``dest``: as a raw buffer when ``typed`` (the
        election's exchange; ``obj`` is the contiguous array
        ``as_array`` resolved), else as a typed frame when the frame
        protocol covers it, pickled otherwise.

        The one function that books a send, as :meth:`_complete_recv`
        books every receive.  The clock and its statistics are updated
        in place, with the float operations of
        ``VirtualClock.advance(send_overhead, kind="comm")``.
        """
        if self._faults is not None:  # stall/kill progress marks
            self._faults.before_send(self._group[self._rank])
        clock = self._clock
        stats = clock.stats
        t0 = clock.now
        overhead = self._machine.send_overhead
        clock.now = t1 = t0 + overhead
        stats.comm_seconds += overhead
        src, dst, ctx = self._rank, self._group[dest], self._context
        if typed:
            env = Envelope.from_array(src, dst, tag, ctx, obj, t1)
        else:
            blob = frames.encode(obj)
            if blob is not None:
                env = Envelope.from_frame(src, dst, tag, ctx, blob, t1)
            else:
                env = Envelope.from_object(src, dst, tag, ctx, obj, t1)
        stats.messages_sent += 1
        stats.bytes_sent += env.nbytes
        self._runtime.deliver(env)
        if self._tracer.enabled:
            self._tracer.record(
                self._rank, "send", "Send" if typed else "send", dest,
                env.nbytes, t0, t1,
            )

    def _complete_recv(self, env: Envelope) -> None:
        """Clock/statistics bookkeeping once an envelope is matched, for
        every receive path, typed or framed.  The clock is synced in
        place, with the float operations of ``VirtualClock.sync_to`` in
        the same order, and the receive is counted."""
        clock = self._clock
        t0 = clock.now
        intra = self._intra.get(env.src)
        if intra is None:
            intra = self._intra[env.src] = self._machine.same_node(
                self._group[env.src], self._group[self._rank]
            )
        nbytes = env.nbytes
        arrival = env.depart_time + self._machine.p2p_time(nbytes, intra=intra)
        stats = clock.stats
        if arrival > t0:
            wait = arrival - t0
            clock.now = t0 + wait
            stats.comm_seconds += wait
        stats.messages_received += 1
        stats.bytes_received += nbytes
        if self._tracer.enabled:
            self._tracer.record(
                self._rank, "recv", "recv", env.src, nbytes, t0, clock.now
            )

    def _decode_with_recovery(self, env: Envelope) -> Any:
        """Decode a matched envelope's payload, re-requesting pristine
        retransmissions of corrupt frames from the fault ledger (bounded
        attempts) before surfacing :class:`CorruptMessageError`.

        The caller booked the matched envelope; a retransmission is the
        same message (same departure stamp and size), so it is not
        booked again.
        """
        attempts = 0
        while True:
            try:
                return env.decode()
            except CorruptMessageError:
                attempts += 1
                if attempts > _RECV_MAX_RETRIES or not self.rerequest(
                    env.src, env.tag
                ):
                    raise
                env = self._mailbox.take(
                    env.src, env.tag, self._context, block=True
                )

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to ``dest``: eager, so it returns once the
        envelope is posted, and later writes to ``obj`` do not reach
        the receiver."""
        self._check_peer(dest)
        check_tag(tag)
        self._post_send(obj, dest, tag)

    def recv(self, source: int, tag: int) -> Any:
        """Block until the next message from ``source`` with ``tag``
        arrives and return its object; a frame that fails its CRC is
        re-requested (bounded attempts) before
        :class:`CorruptMessageError` surfaces."""
        self._check_peer(source)
        check_tag(tag)
        env = self._mailbox.take(source, tag, self._context, block=True)
        self._complete_recv(env)
        return self._decode_with_recovery(env)

    def rerequest(self, source: int, tag: int) -> bool:
        """Ask the fault engine to retransmit the pristine original of a
        corrupted message.

        A receive whose frame fails its CRC calls this; the pristine
        envelope — if the engine ledgered one — is re-injected into this
        rank's mailbox ahead of any later message of its stream.
        (Dropped messages need no call: the mailbox recovers them as
        soon as the engine withholds them.)  Returns False when no fault
        engine is installed or nothing matching is recoverable.
        """
        engine = self._faults
        if engine is None:
            return False
        env = engine.re_request(
            self._global(self._rank), source, tag, self._context
        )
        if env is None:
            return False
        self._mailbox.restore(env)
        return True

    # ------------------------------------------------------------------
    # internal tag allocation for collectives
    # ------------------------------------------------------------------
    def _next_coll_tag(self) -> int:
        tag = _COLL_TAG_BASE + (self._coll_seq % _COLL_TAG_SPAN)
        self._coll_seq += 1
        return tag

    # the algorithms' send, paired with _coll_recv (``topology``'s
    # sub-views implement the same two)
    _coll_send = _post_send

    def _coll_recv(self, source: int, tag: int) -> Any:
        env = self._mailbox.take(source, tag, self._context)
        self._complete_recv(env)
        if env.typed:  # a raw buffer: nothing to decode
            return env.payload
        return self._decode_with_recovery(env)

    def _collective(self, op: str, run, *args) -> Any:
        """Run one collective algorithm (``run(self, *args)``); when
        tracing, record it with this rank's *exact* wire contribution:
        the delta of bytes sent across the call."""
        if not self._tracer.enabled:
            return run(self, *args)
        stats = self._clock.stats
        t0, b0 = self._clock.now, stats.bytes_sent
        out = run(self, *args)
        self._tracer.record(
            self._rank, "collective", op, -1, stats.bytes_sent - b0, t0,
            self._clock.now,
        )
        return out

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        self._collective("Barrier", self._suite.barrier)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        self._check_peer(root)
        return self._collective("Bcast", self._suite.bcast, obj, root)

    def reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        self._check_peer(root)
        return self._collective("Reduce", self._suite.reduce, obj, op, root)

    def allreduce(self, obj: Any, op: ReduceOp = SUM) -> Any:
        return self._collective("Allreduce", self._suite.allreduce, obj, op)

    def allreduce_buffer(self, arr: Any, op: ReduceOp = SUM) -> np.ndarray:
        """Allreduce a small numpy buffer over the typed envelope path.

        Unlike :meth:`allreduce` the operands move as raw buffers (no
        framing or pickling) and are combined with the op's array path.
        Reduction tree and combine order are identical to
        :meth:`allreduce`, so (value, location) elections produce the
        same winners on either path.  The operand is not copied: sends
        snapshot it and combines return new arrays (a one-rank
        communicator returns the operand itself).
        """
        buf = as_array(arr)
        if not self._tracer.enabled:  # the election's per-iteration path
            return self._suite.allreduce(self, buf, op, True, True)
        return self._collective(
            "Allreduce", self._suite.allreduce, buf, op, True, True
        )

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        self._check_peer(root)
        return self._collective("Gather", self._suite.gather, obj, root)

    def allgather(self, obj: Any) -> List[Any]:
        return self._collective("Allgather", self._suite.allgather, obj)

    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        self._check_peer(root)
        return self._collective("Scatter", self._suite.scatter, objs, root)

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        return self._collective("Alltoall", self._suite.alltoall, objs)

    def scan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction (MPI_Scan)."""
        return self._collective("Scan", self._suite.scan, obj, op)

    def exscan(self, obj: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix reduction (MPI_Exscan; None on rank 0)."""
        return self._collective("Exscan", self._suite.exscan, obj, op)

    def reduce_scatter(self, objs: Sequence[Any], op: ReduceOp = SUM) -> Any:
        """Reduce slot i across ranks; rank i receives result i
        (MPI_Reduce_scatter_block with one item per rank)."""
        return self._collective(
            "Reduce_scatter", self._suite.reduce_scatter, objs, op
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Comm(rank={self._rank}, size={self.size}, ctx={self._context})"

