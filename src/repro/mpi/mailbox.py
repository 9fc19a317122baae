"""Per-rank mailboxes: the synchronization core of the simulated runtime.

Each rank owns one :class:`Mailbox`.  Senders deposit envelopes; receivers
block until a matching envelope is available.  Matching follows MPI
non-overtaking order: among envelopes from the same (source, tag, context),
the earliest sent one is matched first.

Mailbox waits poll an abort event so that when any rank raises, peers
blocked in communication are promptly woken with :class:`SpmdAborted`.

When a fault engine is installed (see :mod:`repro.mpi.faults`) the
mailbox grows three responsibilities:

- *event-driven drop recovery*: the runtime announces every envelope
  the engine drops (:meth:`Mailbox.withhold`) and wakes the receiver.
  A ``take`` that matches a withheld envelope re-requests it from the
  engine's ledger at once, before any later envelope of the same
  stream, so drops cost no host sleep and never reorder a stream;
- *bounded retry/backoff* for what the engine cannot see (a stalled or
  killed sender, a message never sent): a blocked ``take`` waits the
  engine policy's timeout, re-requests, doubles the wait, and after
  ``max_retries`` re-requests (of either kind) raises a structured
  :class:`~repro.mpi.errors.MessageLostError` instead of hanging into
  the 60 s job watchdog;
- *duplicate discard*: envelopes are tracked by sequence number and a
  re-delivery of an already-seen envelope (the ``dup`` fault) is
  dropped, preserving exactly-once matching.

All three are dormant on fault-free jobs — no seen-set is kept, nothing
is ever withheld and waits block indefinitely, exactly the
pre-fault-layer behaviour.  Their receives take a separate path with no
retry bookkeeping: no policy budget, one lock hold when the envelope is
already queued, and a host clock read only when the receive has to wait
(for the watchdog's blocked-state diagnostics).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional, Set, Tuple

from .errors import MessageLostError, SpmdAborted
from .message import Envelope

#: How often blocked receivers re-check the job abort flag (host seconds).
_POLL_INTERVAL = 0.05


class Mailbox:
    """Thread-safe matched queue of in-flight messages for one rank."""

    def __init__(self, rank: int, abort_event: threading.Event, engine=None):
        self.rank = rank
        self._abort = abort_event
        self._engine = engine
        self._cond = threading.Condition()
        self._queue: Deque[Envelope] = deque()
        #: total envelopes ever delivered; the watchdog uses this to
        #: distinguish deadlock from slow progress.
        self.delivered = 0
        #: sequence numbers already delivered (duplicate discard); only
        #: maintained when the fault plan can withhold or re-deliver
        #: messages, keeping the fault-free hot path allocation-free.
        self._seen: Optional[Set[int]] = (
            set() if engine is not None and engine.needs_dedup else None
        )
        #: envelopes the fault engine dropped on their way here and
        #: still holds in its ledger (see :meth:`withhold`)
        self._withheld: List[Envelope] = []
        #: (src, tag, context, host-monotonic start) of the receive this
        #: rank is currently blocked in, for watchdog diagnostics.
        self._waiting: Optional[Tuple[Optional[int], Optional[int], int, float]] = None

    def put(self, env: Envelope) -> None:
        with self._cond:
            if self._seen is not None:
                if env.seq in self._seen:
                    self._engine.note_duplicate(env)
                    return
                self._seen.add(env.seq)
            self._queue.append(env)
            self.delivered += 1
            self._cond.notify_all()

    def withhold(self, env: Envelope) -> None:
        """Note that the fault engine dropped ``env`` into its ledger and
        wake a blocked receiver, which re-requests it at once."""
        with self._cond:
            self._withheld.append(env)
            self._cond.notify_all()

    def _find(self, src: Optional[int], tag: Optional[int], context: int):
        for i, env in enumerate(self._queue):
            if env.matches(src, tag, context):
                return i
        return None

    def _first_withheld(
        self, src: Optional[int], tag: Optional[int], context: int,
        i: Optional[int],
    ) -> Optional[Envelope]:
        """The withheld envelope a receive must match before the queued
        one at ``i``: the earliest of that envelope's stream sent before
        it (non-overtaking), or, with nothing queued, the earliest
        matching one.  Sequence numbers order a stream: its sender
        draws them in program order."""
        queued = None if i is None else self._queue[i]
        first = None
        for env in self._withheld:
            if not env.matches(src, tag, context):
                continue
            if queued is not None and (
                env.src != queued.src or env.tag != queued.tag
                or env.seq > queued.seq
            ):
                continue
            if first is None or env.seq < first.seq:
                first = env
        return first

    def _recovered(self, env: Envelope) -> Envelope:
        """Bookkeeping for a withheld envelope handed back by the engine."""
        with self._cond:
            # by identity: Envelope equality would compare payload arrays
            for k, held in enumerate(self._withheld):
                if held is env:
                    del self._withheld[k]
                    break
            self._seen.add(env.seq)
            self.delivered += 1
        return env

    def probe(self, src: Optional[int], tag: Optional[int], context: int):
        """Non-blocking match test; returns the envelope without removing."""
        with self._cond:
            i = self._find(src, tag, context)
            return None if i is None else self._queue[i]

    def take(
        self,
        src: Optional[int],
        tag: Optional[int],
        context: int,
        *,
        block: bool = True,
        policy=None,
    ) -> Optional[Envelope]:
        """Remove and return the first matching envelope.

        Blocks until one arrives when ``block`` is true.  Raises
        :class:`SpmdAborted` if the job was cancelled while waiting.
        Under fault injection, a matching envelope the engine withheld
        is re-requested at once; otherwise waits follow the bounded
        retry/backoff schedule of ``policy`` (default: the engine's
        policy).  Either way :class:`MessageLostError` is raised once
        the re-request budget is exhausted.
        """
        engine = self._engine
        if engine is None:
            return self._take_plain(src, tag, context, block)
        if policy is None:
            policy = engine.policy
        attempt = 0
        started = time.monotonic()
        budget = policy.budget(1)
        try:
            while True:
                withheld = None
                with self._cond:
                    if self._waiting is None and block:
                        self._waiting = (src, tag, context, started)
                    if self._abort.is_set():
                        raise SpmdAborted(
                            f"rank {self.rank}: job aborted while waiting "
                            f"for a message"
                        )
                    i = self._find(src, tag, context)
                    if self._withheld:
                        withheld = self._first_withheld(src, tag, context, i)
                    if withheld is None:
                        if i is not None:
                            env = self._queue[i]
                            del self._queue[i]
                            return env
                        if not block:
                            return None
                        self._cond.wait(timeout=_POLL_INTERVAL)
                        waited = time.monotonic() - started
                        if waited < budget:
                            continue
                # re-request outside the mailbox lock (the engine must
                # never be entered while a mailbox lock is held by
                # another path — see FaultEngine locking notes)
                attempt += 1
                if attempt > policy.max_retries:
                    raise MessageLostError(self.rank, src, tag, attempt - 1)
                if withheld is not None:
                    env = engine.re_request(
                        self.rank, withheld.src, withheld.tag, context,
                        seq=withheld.seq,
                    )
                    if env is not None:
                        return self._recovered(env)
                    continue  # a count=k drop: ask again at once
                # timed out on something the engine cannot see
                recovered = engine.re_request(self.rank, src, tag, context)
                if recovered is not None:
                    self.put(recovered)
                started = time.monotonic()
                budget = policy.budget(attempt + 1)
        finally:
            with self._cond:
                self._waiting = None

    def _take_plain(
        self, src: Optional[int], tag: Optional[int], context: int, block: bool
    ) -> Optional[Envelope]:
        """:meth:`take` on a fault-free job: nothing is ever withheld or
        lost, so there is no retry bookkeeping, and a receive whose
        envelope is already queued holds the lock once.  A receive that
        has to wait records its start for :meth:`wait_state`."""
        with self._cond:
            try:
                while True:
                    if self._abort.is_set():
                        raise SpmdAborted(
                            f"rank {self.rank}: job aborted while waiting "
                            f"for a message"
                        )
                    i = self._find(src, tag, context)
                    if i is not None:
                        env = self._queue[i]
                        del self._queue[i]
                        return env
                    if not block:
                        return None
                    if self._waiting is None:
                        self._waiting = (src, tag, context, time.monotonic())
                    self._cond.wait(timeout=_POLL_INTERVAL)
            finally:
                self._waiting = None

    def wake(self) -> None:
        """Wake any blocked waiters (used on abort)."""
        with self._cond:
            self._cond.notify_all()

    def wait_state(self) -> Optional[str]:
        """Human-readable description of the receive this rank is
        blocked in, or ``None`` when it is not blocked (diagnostics)."""
        with self._cond:
            if self._waiting is None:
                return None
            src, tag, context, since = self._waiting
            fmt = lambda v: "ANY" if v is None or v < 0 else str(v)  # noqa: E731
            return (
                f"blocked in recv(src={fmt(src)}, tag={fmt(tag)}, "
                f"ctx={context}) for {time.monotonic() - since:.1f}s "
                f"({len(self._queue)} unmatched queued)"
            )

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        with self._cond:
            return len(self._queue)
