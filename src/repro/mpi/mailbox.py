"""Per-rank mailboxes: the synchronization core of the simulated runtime.

Each rank owns one :class:`Mailbox`: an inbox that senders only put
into (a ``queue.SimpleQueue``, safe for any number of producers) and
the matching state of the rank's receives.  One thread runs each rank,
and every communicator of that rank runs on it, so that thread is the
inbox's only reader: it keeps the envelopes it has pulled but not yet
matched in a private *pending* list, in arrival order, with no lock.

A receive names its source, tag and context, and matches exactly
those.  Matching follows MPI non-overtaking order: among envelopes of
the same (source, tag, context) stream, the earliest sent one is
matched first.  A sender puts its envelopes in program order, and a
receive looks through everything it pulled before it pulls anything
newer, so the first match in arrival order is the earliest of its
stream.

Besides envelopes, two notices ride the inbox:

- the abort wake-up (:meth:`wake`): the runtime sets the job's abort
  event and then puts one into every inbox, so a receive blocked on
  its inbox ends with :class:`SpmdAborted`, and one that checks the
  event before blocking never waits;
- the drop announcement (:meth:`withhold`): when a fault engine drops
  an envelope into its ledger, the sender's thread puts a notice in
  the envelope's place.  A receive that matches the notice, pending
  or freshly pulled, re-requests the envelope from the ledger at once
  by sequence number, before any later envelope of its stream — FIFO
  order, not a lock, keeps the announcement ahead of the sender's
  next message and wakes a receiver already blocked.  A ``count=k``
  drop is handed back on the k-th ask; past
  :data:`~repro.mpi.faults.MAX_REREQUESTS` empty asks the receive
  raises :class:`~repro.mpi.errors.MessageLostError`.

Every receive, with or without a fault engine, is the same
:meth:`Mailbox.take`: it blocks on its inbox with no timeout and never
reads the host clock to decide anything.  A stalled sender's message
is simply waited for, a killed sender's job abort wakes the receive,
and a message that is never sent is reported by the job watchdog
(:class:`~repro.mpi.errors.DeadlockError`), as in a fault-free job.
The pristine original of a corrupted envelope is re-requested by the
receive that decoded its tampered copy
(:meth:`~repro.mpi.communicator.Comm.rerequest`), which puts it back
at the head of the pending list (:meth:`restore`).  Re-deliveries of
an already-seen envelope (the ``dup`` fault) are discarded on
delivery, by sequence number, preserving exactly-once matching;
fault-free jobs keep no seen-set.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import List, Optional, Set, Tuple

from .errors import MessageLostError, SpmdAborted
from .faults import MAX_REREQUESTS
from .message import Envelope


class _Withheld:
    """Inbox notice: the fault engine dropped ``env`` into its ledger."""

    __slots__ = ("env",)

    def __init__(self, env: Envelope):
        self.env = env


#: inbox notice: the job was aborted (see :meth:`Mailbox.wake`)
_WAKE = object()


class Mailbox:
    """One rank's inbox and the matching state of its receives.

    :meth:`put`, :meth:`withhold`, :meth:`wake`, :meth:`wait_state` and
    :attr:`delivered` may be called from any thread; :meth:`take` and
    :meth:`restore` only from the rank's own thread.
    """

    def __init__(self, rank: int, abort_event: threading.Event, engine=None):
        self.rank = rank
        self._abort = abort_event
        self._engine = engine
        self._inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        #: sequence numbers already delivered (duplicate discard); only
        #: kept when the fault plan can withhold or re-deliver messages
        self._seen: Optional[Set[int]] = (
            set() if engine is not None and engine.needs_dedup else None
        )
        #: ``put(env)``: deliver an envelope — the inbox's own method,
        #: or :meth:`_put_once` when re-deliveries must be discarded
        self.put = self._inbox.put if self._seen is None else self._put_once
        #: envelopes pulled off the inbox and not yet matched, in
        #: arrival order (drop notices stand in for their envelope)
        self._pending: List[Envelope] = []
        #: inbox items pulled so far (see :attr:`delivered`)
        self._pulled = 0
        #: sequence numbers of pending envelopes the fault engine
        #: dropped and still holds in its ledger
        self._withheld: Set[int] = set()
        #: (src, tag, context, host-monotonic start) of the receive this
        #: rank is currently blocked in, for watchdog diagnostics.
        self._waiting: Optional[Tuple[int, int, int, float]] = None

    @property
    def delivered(self) -> int:
        """Items ever put into this inbox (envelopes and notices); the
        watchdog uses it to tell deadlock from slow progress."""
        return self._pulled + self._inbox.qsize()

    def _put_once(self, env: Envelope) -> None:
        """Deliver ``env`` unless it was delivered before (the ``dup``
        fault).  Only the sender's thread puts a given envelope, so the
        check and the add cannot race."""
        if env.seq in self._seen:
            self._engine.note_duplicate(env)
            return
        self._seen.add(env.seq)
        self._inbox.put(env)

    def withhold(self, env: Envelope) -> None:
        """Announce that the fault engine dropped ``env`` into its
        ledger; the receive that matches it re-requests it at once."""
        self._inbox.put(_Withheld(env))

    def wake(self) -> None:
        """Wake a receive blocked on the inbox (used on abort: a woken
        receive raises :class:`SpmdAborted` once the abort event is
        set)."""
        self._inbox.put(_WAKE)

    # ------------------------------------------------------------------
    # the rank's own thread only
    # ------------------------------------------------------------------
    def _aborted(self) -> SpmdAborted:
        return SpmdAborted(
            f"rank {self.rank}: job aborted while waiting for a message"
        )

    def restore(self, env: Envelope) -> None:
        """Re-inject a corrupted envelope's pristine original, fetched
        from the fault ledger after its tampered copy was taken: it is
        the oldest unmatched envelope of its stream, so it goes to the
        head of the pending list, where nothing later of the stream
        can overtake it."""
        if self._seen is not None:
            self._seen.add(env.seq)
        self._pending.insert(0, env)

    def _re_request(self, env: Envelope) -> Envelope:
        """Fetch the dropped ``env`` back from the fault ledger by
        sequence number, asking at once up to :data:`MAX_REREQUESTS`
        times (a ``count=k`` drop answers the k-th ask)."""
        for _ in range(MAX_REREQUESTS):
            got = self._engine.re_request(
                self.rank, env.src, env.tag, env.context, seq=env.seq
            )
            if got is not None:
                self._seen.add(env.seq)
                return got
        raise MessageLostError(self.rank, env.src, env.tag, MAX_REREQUESTS)

    def take(
        self, src: int, tag: int, context: int, *, block: bool = True
    ) -> Optional[Envelope]:
        """Remove and return the first envelope of the (src, tag,
        context) stream.

        Blocks until one arrives when ``block`` is true, with no
        timeout.  Raises :class:`SpmdAborted` if the job was cancelled
        while waiting.  A matching envelope the fault engine dropped is
        re-requested from its ledger at once; :class:`MessageLostError`
        is raised when the ledger withholds it past
        :data:`MAX_REREQUESTS` asks.
        """
        pending = self._pending
        withheld = self._withheld
        for i, env in enumerate(pending):
            if env.matches(src, tag, context):
                if env.seq in withheld:
                    got = self._re_request(env)
                    withheld.discard(env.seq)
                    del pending[i]
                    return got
                del pending[i]
                return env
        inbox = self._inbox
        try:
            while True:
                try:
                    item = inbox.get_nowait()
                except queue.Empty:
                    # nothing queued: only now set up a blocking wait
                    if not block:
                        return None
                    if self._abort.is_set():
                        raise self._aborted()
                    if self._waiting is None:
                        self._waiting = (src, tag, context, time.monotonic())
                    item = inbox.get()
                self._pulled += 1
                if item is _WAKE:
                    if self._abort.is_set():
                        raise self._aborted()
                    continue
                if type(item) is _Withheld:
                    env = item.env
                    if env.matches(src, tag, context):
                        return self._re_request(env)
                    withheld.add(env.seq)
                    pending.append(env)
                    continue
                if item.matches(src, tag, context):
                    return item
                pending.append(item)
        finally:
            self._waiting = None

    def wait_state(self) -> Optional[str]:
        """Human-readable description of the receive this rank is
        blocked in, or ``None`` when it is not blocked (diagnostics)."""
        waiting = self._waiting
        if waiting is None:
            return None
        src, tag, context, since = waiting
        queued = len(self._pending) + self._inbox.qsize()
        return (
            f"blocked in recv(src={src}, tag={tag}, ctx={context}) for "
            f"{time.monotonic() - since:.1f}s ({queued} unmatched queued)"
        )
