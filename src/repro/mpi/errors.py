"""Exception hierarchy for the simulated MPI runtime.

The runtime mirrors MPI error semantics: errors raised inside one rank
abort the whole SPMD job (``MPI_Abort``-like behaviour); ranks blocked in
communication calls are woken with :class:`SpmdAborted`.
"""

from __future__ import annotations


class MpiError(Exception):
    """Base class for all errors raised by :mod:`repro.mpi`."""


class CommError(MpiError):
    """Malformed communication call (bad rank, tag or buffer)."""


class RankError(CommError):
    """Peer rank out of range for the communicator."""


class DeadlockError(MpiError):
    """The runtime watchdog detected no progress while ranks are blocked.

    Attributes
    ----------
    diagnostics:
        Optional mapping ``rank -> human-readable blocked-state line``
        (what each live rank was waiting for when the watchdog fired).
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = dict(diagnostics or {})
        if self.diagnostics:
            detail = "; ".join(
                f"rank {r}: {s}" for r, s in sorted(self.diagnostics.items())
            )
            message = f"{message} [{detail}]"
        super().__init__(message)


class CorruptMessageError(CommError):
    """A received payload failed integrity verification (bad pickle or
    checksum mismatch).  Recoverable when a fault engine holds the
    pristine copy — see :meth:`repro.mpi.communicator.Comm.rerequest`."""


class FaultInjectionError(MpiError):
    """Base class for errors originating in the fault-injection layer."""


class InjectedFault(FaultInjectionError):
    """A ``kill`` fault fired inside a rank (simulated process death).

    Attributes: ``rank`` (the killed rank), ``after`` (the send ordinal
    at which the fault triggered).
    """

    def __init__(self, rank: int, after: int):
        self.rank = rank
        self.after = after
        super().__init__(
            f"injected fault: rank {rank} killed after {after} send(s)"
        )


class MessageLostError(FaultInjectionError):
    """The fault ledger withheld a dropped message past the receive's
    bounded re-requests.

    Carries the waiting rank, the expected source and tag, and the
    number of re-request attempts.
    """

    def __init__(self, rank: int, source: int, tag: int, attempts: int):
        self.rank = rank
        self.source = source
        self.tag = tag
        self.attempts = attempts
        super().__init__(
            f"rank {rank}: message from src={source} tag={tag} lost after "
            f"{attempts} retry attempt(s)"
        )


class RingRecoveryError(FaultInjectionError):
    """Gradient-reconstruction ring recovery gave up on a visiting block.

    Attributes: ``rank``, ``tag``, ``step`` (ring step), ``cause`` (the
    receive's error, which counts its own attempts).
    """

    def __init__(
        self, rank: int, tag: int, step: int,
        cause: BaseException | None = None,
    ):
        self.rank = rank
        self.tag = tag
        self.step = step
        self.cause = cause
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"rank {rank}: ring recovery failed at step {step} "
            f"(tag {tag}){detail}"
        )


class SpmdAborted(MpiError):
    """Raised inside ranks that were cancelled because a peer rank failed."""


class SpmdJobError(MpiError):
    """Raised by :func:`repro.mpi.run_spmd` when one or more ranks failed.

    Attributes
    ----------
    failures:
        Mapping ``rank -> exception`` of the original per-rank errors.
    """

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        first = self.failures[min(self.failures)]
        super().__init__(
            f"SPMD job failed in rank(s) {ranks}: "
            f"{type(first).__name__}: {first}"
        )
