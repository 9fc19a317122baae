"""The SPMD job runner.

:func:`run_spmd` launches ``nprocs`` rank functions on OS threads, each
holding a private :class:`~repro.mpi.communicator.Comm` (the job's
``COMM_WORLD``), per-rank mailbox and virtual clock.  Ranks communicate
only through the message layer, so per-rank virtual times are a faithful
conservative simulation of the modeled machine regardless of how the host
schedules the threads.

A watchdog aborts the job when no message progress happens for
``deadlock_timeout`` host seconds while threads are still alive — turning
an MPI deadlock into a :class:`~repro.mpi.errors.DeadlockError` (carrying
per-rank blocked-state diagnostics) instead of a hung test suite.

Jobs can run under an adversarial delivery schedule: pass ``faults`` (a
:class:`~repro.mpi.faults.FaultPlan` or its spec string) to
:func:`run_spmd` and the runtime installs a
:class:`~repro.mpi.faults.FaultEngine` on the delivery path.  When the
engine drops an envelope, the runtime tells the destination mailbox at
once, so the receiver recovers it without a host-clock wait.  Receives
keep their fault-free shape under a plan: one that waits on a stalled
sender waits for its message, a kill aborts the job and wakes every
mailbox, and one that waits on a message never sent is ended by the
watchdog.  The job result carries the engine's fault report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..perfmodel.machine import MachineSpec
from .clock import ClockStats, VirtualClock
from .communicator import Comm
from .errors import DeadlockError, SpmdAborted, SpmdJobError
from .faults import FaultEngine, as_plan
from .mailbox import Mailbox
from .message import Envelope
from .topology import create_communicator
from .tracing import Tracer

_WATCHDOG_POLL = 0.25


@dataclass
class RankStats:
    """Per-rank summary published in the job result."""

    rank: int
    vtime: float
    stats: ClockStats


@dataclass
class SpmdResult:
    """Outcome of a completed SPMD job."""

    results: List[Any]
    rank_stats: List[RankStats]
    tracer: Tracer
    machine: MachineSpec
    #: fault-engine report (counters + fired schedule); None when the
    #: job ran without fault injection
    fault_stats: Optional[Dict[str, Any]] = None

    @property
    def vtime(self) -> float:
        """Job virtual makespan: the max over ranks (seconds)."""
        return max((r.vtime for r in self.rank_stats), default=0.0)

    @property
    def total_bytes_sent(self) -> int:
        return sum(r.stats.bytes_sent for r in self.rank_stats)

    @property
    def total_messages(self) -> int:
        return sum(r.stats.messages_sent for r in self.rank_stats)

    def stats_table(self) -> str:
        """Human-readable per-rank accounting (for examples/reports)."""
        lines = [
            f"{'rank':>4} {'vtime(s)':>12} {'compute(s)':>12} "
            f"{'comm(s)':>10} {'msgs':>8} {'MB sent':>10}"
        ]
        for r in self.rank_stats:
            lines.append(
                f"{r.rank:>4} {r.vtime:>12.6f} {r.stats.compute_seconds:>12.6f} "
                f"{r.stats.comm_seconds:>10.6f} {r.stats.messages_sent:>8} "
                f"{r.stats.bytes_sent / 1e6:>10.3f}"
            )
        return "\n".join(lines)


class SpmdRuntime:
    """Owns the shared state of one SPMD job."""

    def __init__(
        self,
        nprocs: int,
        machine: Optional[MachineSpec] = None,
        trace: bool = False,
        faults=None,
        comm: Optional[str] = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.machine = machine or MachineSpec.cascade()
        #: the job's collective suite (flat / hierarchical); shared by
        #: every communicator the job creates
        self.collectives = create_communicator(comm)
        self.abort_event = threading.Event()
        self.tracer = Tracer(enabled=trace)
        plan = as_plan(faults)
        self.faults: Optional[FaultEngine] = (
            FaultEngine(plan, nprocs, tracer=self.tracer)
            if plan is not None
            else None
        )
        self.mailboxes = [
            Mailbox(r, self.abort_event, engine=self.faults)
            for r in range(nprocs)
        ]
        self.clocks = [VirtualClock() for _ in range(nprocs)]
        self._context_lock = threading.Lock()
        self._contexts: Dict[Any, int] = {}
        self._next_context = 1  # 0 is COMM_WORLD

    def allocate_context(self, key: Any) -> int:
        """Deterministically map a :func:`~repro.mpi.topology.carve`
        key to a fresh context id (the same key, the same id)."""
        with self._context_lock:
            ctx = self._contexts.get(key)
            if ctx is None:
                ctx = self._next_context
                self._next_context += 1
                self._contexts[key] = ctx
            return ctx

    def world(self, rank: int) -> Comm:
        return Comm(self, tuple(range(self.nprocs)), rank, context=0)

    def deliver(self, env: Envelope) -> None:
        """Route one envelope to its destination, via the fault engine
        when one is installed (which may drop, delay, duplicate or
        corrupt it per the plan).  A drop is announced to the
        destination mailbox, outside the engine lock, so a receiver
        blocked on it re-requests it at once."""
        if self.faults is None:
            self.mailboxes[env.dest].put(env)
            return
        routed = self.faults.route(env)
        if not routed:
            self.mailboxes[env.dest].withhold(env)
        for out in routed:
            self.mailboxes[out.dest].put(out)

    def abort(self) -> None:
        self.abort_event.set()
        for mb in self.mailboxes:
            mb.wake()

    def progress_mark(self) -> int:
        """A counter that changes whenever any message is delivered."""
        return sum(mb.delivered for mb in self.mailboxes)

    def blocked_states(self) -> Dict[int, str]:
        """Per-rank blocked-receive descriptions (watchdog diagnostics)."""
        out: Dict[int, str] = {}
        for mb in self.mailboxes:
            state = mb.wait_state()
            if state is not None:
                out[mb.rank] = state
        return out


def run_spmd(
    fn: Callable[..., Any],
    nprocs: int,
    *,
    machine: Optional[MachineSpec] = None,
    trace: bool = False,
    args: Sequence[Any] = (),
    kwargs: Optional[dict] = None,
    deadlock_timeout: float = 60.0,
    faults=None,
    comm: Optional[str] = None,
) -> SpmdResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` simulated ranks.

    Returns an :class:`SpmdResult` with every rank's return value (indexed
    by rank), virtual-time statistics and the (optional) event trace.

    ``faults`` enables deterministic fault injection: a
    :class:`~repro.mpi.faults.FaultPlan`, a spec string (see
    :meth:`FaultPlan.parse`), or a sequence of
    :class:`~repro.mpi.faults.Fault`.  A job that completes under
    injection is bitwise identical to the fault-free job.

    Raises :class:`SpmdJobError` if any rank raised, and
    :class:`DeadlockError` if the job stopped making progress while ranks
    were blocked in communication.
    """
    kwargs = kwargs or {}
    runtime = SpmdRuntime(
        nprocs, machine=machine, trace=trace, faults=faults, comm=comm,
    )
    results: List[Any] = [None] * nprocs
    failures: Dict[int, BaseException] = {}
    failures_lock = threading.Lock()

    def entry(rank: int) -> None:
        comm = runtime.world(rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except SpmdAborted:
            pass  # cancelled because a peer failed; peer's error is reported
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            with failures_lock:
                failures[rank] = exc
            runtime.abort()

    if nprocs == 1:
        # fast path: run rank 0 inline (no thread), common in tests
        entry(0)
    else:
        threads = [
            threading.Thread(
                target=entry, args=(rank,), name=f"spmd-rank-{rank}", daemon=True
            )
            for rank in range(nprocs)
        ]
        for t in threads:
            t.start()
        last_mark = runtime.progress_mark()
        stalled = 0.0
        while any(t.is_alive() for t in threads):
            for t in threads:
                t.join(timeout=_WATCHDOG_POLL)
                if t.is_alive():
                    break
            mark = runtime.progress_mark()
            if mark == last_mark:
                stalled += _WATCHDOG_POLL
            else:
                stalled = 0.0
                last_mark = mark
            if stalled >= deadlock_timeout and any(t.is_alive() for t in threads):
                diagnostics = runtime.blocked_states()
                runtime.abort()
                for t in threads:
                    t.join(timeout=5.0)
                if not failures:
                    raise DeadlockError(
                        f"no message progress for {deadlock_timeout:.0f}s with "
                        f"{sum(t.is_alive() for t in threads)} rank(s) blocked",
                        diagnostics=diagnostics,
                    )
                break

    if failures:
        raise SpmdJobError(failures)

    rank_stats = [
        RankStats(rank=r, vtime=runtime.clocks[r].now, stats=runtime.clocks[r].stats)
        for r in range(nprocs)
    ]
    return SpmdResult(
        results=results,
        rank_stats=rank_stats,
        tracer=runtime.tracer,
        machine=runtime.machine,
        fault_stats=runtime.faults.report() if runtime.faults else None,
    )
