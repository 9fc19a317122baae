"""``repro.mpi`` — an in-process MPI-like SPMD runtime with virtual time.

This package stands in for MPI + mpi4py on the paper's cluster (see
DESIGN.md §2): ranks run as threads inside one process, point-to-point
messages (one eager ``send``, one blocking ``recv``) rendezvous through
per-rank mailboxes, and collectives with mpi4py's lower-case names are
built from point-to-point using the textbook algorithms (binomial tree,
recursive doubling, ring, dissemination).  ``topology.carve`` builds
sub-communicators.  Per-rank virtual clocks track the time the job
would take on a modeled machine (:class:`repro.perfmodel.MachineSpec`).

Quick example::

    from repro.mpi import run_spmd

    def hello(comm):
        token = comm.allreduce(comm.rank)      # sum of ranks
        return (comm.rank, token)

    result = run_spmd(hello, nprocs=4)
    assert [r[1] for r in result.results] == [6, 6, 6, 6]
"""

from .clock import ClockStats, VirtualClock
from .communicator import Comm
from .datatypes import TAG_UB
from .errors import (
    CommError,
    CorruptMessageError,
    DeadlockError,
    FaultInjectionError,
    InjectedFault,
    MessageLostError,
    MpiError,
    RankError,
    RingRecoveryError,
    SpmdAborted,
    SpmdJobError,
)
from .faults import Fault, FaultEngine, FaultPlan
from .reduceops import (
    BAND,
    BOR,
    LAND,
    LOR,
    MAX,
    MAXLOC,
    MIN,
    MINLOC,
    PROD,
    SUM,
    ReduceOp,
)
from .runtime import RankStats, SpmdResult, SpmdRuntime, run_spmd
from .topology import (
    COMMUNICATORS,
    FlatCollectives,
    HierarchicalCollectives,
    create_communicator,
    resolve_comm,
)
from .tracing import TraceEvent, Tracer

__all__ = [
    "BAND",
    "BOR",
    "COMMUNICATORS",
    "ClockStats",
    "Comm",
    "CommError",
    "CorruptMessageError",
    "DeadlockError",
    "Fault",
    "FaultEngine",
    "FaultInjectionError",
    "FaultPlan",
    "FlatCollectives",
    "HierarchicalCollectives",
    "InjectedFault",
    "LAND",
    "LOR",
    "MAX",
    "MAXLOC",
    "MessageLostError",
    "MIN",
    "MINLOC",
    "MpiError",
    "PROD",
    "RankError",
    "RankStats",
    "RingRecoveryError",
    "ReduceOp",
    "SpmdAborted",
    "SpmdJobError",
    "SpmdResult",
    "SpmdRuntime",
    "SUM",
    "TAG_UB",
    "TraceEvent",
    "Tracer",
    "VirtualClock",
    "create_communicator",
    "resolve_comm",
    "run_spmd",
]
