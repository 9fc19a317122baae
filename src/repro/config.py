"""One run configuration for the simulated cluster.

The paper keeps a run's SVM hyperparameters (C, σ², ε) apart from its
run-time choices: the process count p, the Table II shrinking heuristic
and the machine's l/G/λ.  Every run-time choice is a :class:`RunConfig`
field, and ``config=`` is the only way to pass one — to
:func:`repro.core.fit_parallel`, :class:`repro.core.SVC`,
:func:`repro.core.decision_function_parallel`, the serving and
streaming subsystems (:mod:`repro.serve`, :mod:`repro.stream`) and the
CLI alike.  Build it once and pass it everywhere::

    from repro import RunConfig, SVC

    cfg = RunConfig(nprocs=8, heuristic="multi5pc",
                    faults="seed=7;delay:src=0,nth=2,seconds=1e-4")
    clf = SVC(C=10.0, sigma_sq=4.0, config=cfg).fit(X, y)
    scores = repro.serve.serve_requests(clf.model_, X_req, config=cfg)

Vary one knob with ``cfg.replace(nprocs=2)``; omitting ``config=``
means ``RunConfig()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from .perfmodel.machine import MachineSpec


@dataclass(frozen=True)
class RunConfig:
    """All fit-/serve-time knobs of the simulated cluster in one place.

    Parameters
    ----------
    nprocs:
        Simulated MPI process count.  A training run may use more ranks
        than samples: surplus ranks own zero rows and take part only in
        collectives and the reconstruction ring, as an over-provisioned
        MPI job does.
    heuristic:
        Table II shrinking heuristic: a name (``"original"``,
        ``"single5pc"``, ..., ``"multi50pc"``) or a
        :class:`~repro.core.shrinking.Heuristic`.  Only consulted by the
        training entry points.
    wss:
        Working-set-selection policy: ``"mvp"`` (Keerthi et al. maximal
        violating pair), ``"second_order"`` (LIBSVM's WSS2 curvature-
        scored i_low via a two-phase election) or ``"planning_ahead"``
        (second-order plus zero-communication reuse of the previous
        pair); ``None`` means ``"mvp"``.  The non-default policies trade
        extra per-iteration work for fewer iterations and kernel
        evaluations; their models agree with ``mvp`` within solver
        tolerance.  Only consulted by the training entry points.
    kernel_cache_mb:
        Per-rank byte budget (MiB) of the solver's kernel-column store,
        the same for every WSS policy.  The store keeps a column across
        a shrink (compacted) and releases it at a reconstruction.  At
        ``0`` it is unbounded and every iteration is charged Algorithm
        2's 2·|A|+3 kernel evaluations, as if no column were kept.  A
        positive budget makes it an LRU of that many bytes, and each
        column it produces is charged |A| (plus 3 per iteration for the
        pair).  No budget changes α, β or the iteration count.  Only
        consulted by the training entry points.
    comm:
        Collective suite: ``"flat"`` (single-level textbook algorithms)
        or ``"hierarchical"`` (topology-aware two-level variants, see
        :mod:`repro.mpi.topology`); ``None`` means ``"flat"``.  Both
        give bitwise-identical models; only the modeled communication
        cost differs.
    machine:
        :class:`~repro.perfmodel.machine.MachineSpec` for virtual-time
        accounting (``None`` = the paper's Cascade testbed).
    faults:
        Deterministic fault-injection plan for the simulated runtime:
        a :class:`~repro.mpi.faults.FaultPlan`, its spec string (e.g.
        ``"seed=7;drop:src=0,dest=1,tag=3,nth=1"``), or ``None`` for a
        fault-free run.  A fit that completes under injection is
        bitwise identical to the fault-free fit.
    deadlock_timeout:
        Host-seconds watchdog for the simulated job.
    trace:
        Record a :class:`~repro.mpi.tracing.Tracer` event log on the job.
    dc:
        Divide-and-conquer outer loop for training
        (:mod:`repro.core.dcsvm`): a
        :class:`~repro.core.dcsvm.DCConfig`, a spec string such as
        ``"clusters=4,levels=2,seed=7"``, an int cluster count, or
        ``None`` for the plain cold start.  The sub-problem duals
        warm-start the exact solve, so DC changes where the solve
        starts, never where it converges.  Only consulted by the
        training entry points.
    replicas:
        Replicated shard-group count for the serving fleet
        (:func:`repro.serve.serve_fleet`); only consulted by the fleet
        entry points.
    tenant_quota:
        Default per-tenant admission quota for the serving fleet (a
        :class:`~repro.serve.router.TenantQuota`, a spec string such as
        ``"rate=500,burst=8,max_queued=16"``, or ``None`` for unlimited
        admission).  Only consulted by the fleet entry points.
    """

    nprocs: int = 1
    heuristic: Any = "multi5pc"
    wss: Optional[str] = None
    kernel_cache_mb: float = 0.0
    comm: Optional[str] = None
    machine: Optional[MachineSpec] = None
    faults: Any = None
    deadlock_timeout: float = 120.0
    trace: bool = False
    dc: Any = None
    replicas: int = 1
    tenant_quota: Any = None

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.deadlock_timeout <= 0:
            raise ValueError(
                f"deadlock_timeout must be positive, got {self.deadlock_timeout}"
            )
        if self.kernel_cache_mb < 0:
            raise ValueError(
                f"kernel_cache_mb must be >= 0, got {self.kernel_cache_mb}"
            )

    def replace(self, **overrides: Any) -> "RunConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """Plain-data summary (for reports; machine/faults stringified)."""
        return {
            "nprocs": self.nprocs,
            "heuristic": (
                self.heuristic
                if isinstance(self.heuristic, str)
                else getattr(self.heuristic, "name", str(self.heuristic))
            ),
            "wss": self.wss,
            "kernel_cache_mb": self.kernel_cache_mb,
            "comm": self.comm,
            "machine": self.machine.name if self.machine is not None else None,
            "faults": str(self.faults) if self.faults is not None else None,
            "deadlock_timeout": self.deadlock_timeout,
            "trace": self.trace,
            "dc": str(self.dc) if self.dc is not None else None,
            "replicas": self.replicas,
            "tenant_quota": (
                str(self.tenant_quota) if self.tenant_quota is not None else None
            ),
        }
