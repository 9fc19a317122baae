"""Per-rank mailboxes: the synchronization core of the simulated runtime.

Each rank owns one :class:`Mailbox`: an inbox that senders only put
into (a ``queue.SimpleQueue``, safe for any number of producers) and
the matching state of the rank's receives.  One thread runs each rank,
and every communicator of that rank runs on it, so that thread is the
inbox's only reader: it keeps the envelopes it has pulled but not yet
matched in a private *pending* list, in arrival order, with no lock.

Matching follows MPI non-overtaking order: among envelopes from the
same (source, tag, context), the earliest sent one is matched first.
A sender puts its envelopes in program order, and a receive looks
through everything it pulled before it pulls anything newer, so the
first match in arrival order is the earliest of its stream.

Besides envelopes, two notices ride the inbox:

- the abort wake-up (:meth:`wake`): the runtime sets the job's abort
  event and then puts one into every inbox, so a receive blocked on
  its inbox ends with :class:`SpmdAborted`, and one that checks the
  event before blocking never waits;
- the drop announcement (:meth:`withhold`): when a fault engine drops
  an envelope into its ledger, the sender's thread puts a notice in
  the envelope's place.  The notice is pending like the envelope
  would have been, so a receive that matches it re-requests it from
  the ledger at once (no host sleep), before any later envelope of
  its stream — FIFO order, not a lock, keeps the announcement ahead
  of the sender's next message and wakes a receiver already blocked.

When a fault engine is installed (see :mod:`repro.mpi.faults`) a
receive also follows a bounded retry/backoff schedule for what the
engine cannot see (a stalled or killed sender, a message never sent):
it waits the policy's timeout, counts a retry, doubles the wait, and
after ``max_retries`` retries of either kind raises a structured
:class:`~repro.mpi.errors.MessageLostError` instead of hanging into
the 60 s job watchdog.  A timed-out receive never re-requests anything
from the ledger: only a matched drop notice is re-requested (by
sequence number), and the pristine original of a corrupted envelope
is re-requested by the receive that decoded its tampered copy
(:meth:`~repro.mpi.communicator.Comm.rerequest`), which puts it back
at the head of the pending list (:meth:`restore`).  Re-deliveries of an
already-seen envelope (the ``dup`` fault) are discarded on delivery,
by sequence number, preserving exactly-once matching.

Fault-free jobs receive through the same inbox with none of that
bookkeeping: no seen-set, no retry budget, and a blocking ``get`` with
no timeout.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import List, Optional, Set, Tuple

from .errors import MessageLostError, SpmdAborted
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
        self._waiting: Optional[Tuple[Optional[int], Optional[int], int, float]] = None

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

    def _absorb(self, item) -> bool:
        """File one inbox item; True when it joined the pending list (an
        envelope or drop notice), False for a wake-up (which raises once
        the job is aborted)."""
        self._pulled += 1
        if item is _WAKE:
            if self._abort.is_set():
                raise self._aborted()
            return False
        if type(item) is _Withheld:
            item = item.env
            self._withheld.add(item.seq)
        self._pending.append(item)
        return True

    def _find(
        self, src: Optional[int], tag: Optional[int], context: int
    ) -> Optional[int]:
        for i, env in enumerate(self._pending):
            if env.matches(src, tag, context):
                return i
        return None

    def restore(self, env: Envelope) -> None:
        """Re-inject a corrupted envelope's pristine original, fetched
        from the fault ledger after its tampered copy was taken: it is
        the oldest unmatched envelope of its stream, so it goes to the
        head of the pending list, where nothing later of the stream
        can overtake it."""
        if self._seen is not None:
            self._seen.add(env.seq)
        self._pending.insert(0, env)

    def take(
        self,
        src: Optional[int],
        tag: Optional[int],
        context: int,
        *,
        block: bool = True,
    ) -> Optional[Envelope]:
        """Remove and return the first matching envelope.

        Blocks until one arrives when ``block`` is true.  Raises
        :class:`SpmdAborted` if the job was cancelled while waiting.
        Under fault injection, a matching envelope the engine withheld
        is re-requested at once; otherwise waits follow the engine
        policy's bounded retry/backoff schedule.  Either way
        :class:`MessageLostError` is raised once the retry budget is
        exhausted.
        """
        if self._engine is not None:
            return self._take_faulted(src, tag, context, block)
        pending = self._pending
        for i, env in enumerate(pending):
            if env.matches(src, tag, context):
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
                if item.matches(src, tag, context):
                    return item
                pending.append(item)
        finally:
            self._waiting = None

    def _take_faulted(
        self, src: Optional[int], tag: Optional[int], context: int, block: bool
    ) -> Optional[Envelope]:
        """:meth:`take` on a job with a fault engine installed: the same
        scan-then-pull as the fault-free receive, plus drop recovery and
        the retry budget.  The budget is spent only while nothing
        matching is pending or in the inbox."""
        engine = self._engine
        policy = engine.policy
        pending = self._pending
        inbox = self._inbox
        attempt = 0
        started = budget = None
        i = self._find(src, tag, context) if pending else None
        try:
            while True:
                if i is not None:
                    env = pending[i]
                    if env.seq not in self._withheld:
                        del pending[i]
                        return env
                    # a dropped envelope: re-request it by sequence
                    # number, before anything later of its stream
                    attempt += 1
                    if attempt > policy.max_retries:
                        raise MessageLostError(self.rank, src, tag, attempt - 1)
                    got = engine.re_request(
                        self.rank, env.src, env.tag, context, seq=env.seq
                    )
                    if got is None:
                        continue  # a count=k drop: ask again at once
                    del pending[i]
                    self._withheld.discard(env.seq)
                    self._seen.add(env.seq)
                    return got
                if inbox.empty():
                    if not block:
                        return None
                    if self._abort.is_set():
                        raise self._aborted()
                    if started is None:
                        started = time.monotonic()
                        budget = policy.budget(1)
                        self._waiting = (src, tag, context, started)
                    remaining = budget - (time.monotonic() - started)
                    if remaining <= 0:
                        # nothing matching arrived within the budget: a
                        # stalled or killed sender, or a message never sent
                        attempt += 1
                        if attempt > policy.max_retries:
                            raise MessageLostError(
                                self.rank, src, tag, attempt - 1
                            )
                        engine.note_retry()
                        started = time.monotonic()
                        budget = policy.budget(attempt + 1)
                        continue
                    try:
                        item = inbox.get(timeout=remaining)
                    except queue.Empty:
                        continue
                else:
                    item = inbox.get()  # the only reader: cannot block
                if self._absorb(item) and pending[-1].matches(src, tag, context):
                    i = len(pending) - 1
        finally:
            self._waiting = None

    def wait_state(self) -> Optional[str]:
        """Human-readable description of the receive this rank is
        blocked in, or ``None`` when it is not blocked (diagnostics)."""
        waiting = self._waiting
        if waiting is None:
            return None
        src, tag, context, since = waiting
        fmt = lambda v: "ANY" if v is None or v < 0 else str(v)  # noqa: E731
        queued = len(self._pending) + self._inbox.qsize()
        return (
            f"blocked in recv(src={fmt(src)}, tag={fmt(tag)}, "
            f"ctx={context}) for {time.monotonic() - since:.1f}s "
            f"({queued} unmatched queued)"
        )
