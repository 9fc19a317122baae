"""Unified run configuration for the simulated cluster.

Every entry point that launches a simulated job — :func:`repro.core.fit_parallel`,
:class:`repro.core.SVC`, :func:`repro.core.decision_function_parallel`, the
serving subsystem (:mod:`repro.serve`) and the CLI — historically grew its own
copy of the same knobs: process count, shrinking heuristic, machine model,
fault plan, tracing.  :class:`RunConfig` consolidates them into
one value that can be built once and passed everywhere::

    from repro import RunConfig, SVC

    cfg = RunConfig(nprocs=8, heuristic="multi5pc",
                    faults="seed=7;delay:src=0,nth=2,seconds=1e-4")
    clf = SVC(C=10.0, sigma_sq=4.0, config=cfg).fit(X, y)
    scores = repro.serve.serve_requests(clf.model_, X_req, config=cfg)

The individual keyword arguments keep working everywhere (back-compat shims):
an explicitly passed keyword overrides the corresponding ``RunConfig`` field.
The sprawling per-call keywords are **deprecated in favour of RunConfig** —
they are kept for compatibility and there is no removal planned, but new
call sites should pass ``config=``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Optional

from .perfmodel.machine import MachineSpec


@dataclass(frozen=True)
class RunConfig:
    """All fit-/serve-time knobs of the simulated cluster in one place.

    Parameters
    ----------
    nprocs:
        Simulated MPI process count.
    heuristic:
        Table II shrinking heuristic name (or a
        :class:`~repro.core.shrinking.Heuristic`); only consulted by the
        training entry points.
    wss:
        Working-set-selection policy (``"mvp"`` / ``"second_order"`` /
        ``"planning_ahead"``); ``None`` means ``"mvp"``.  Only consulted
        by the training entry points.
    kernel_cache_mb:
        Per-rank byte budget (MiB) for the training-side kernel-column
        cache; ``0`` disables it (second-order policies still keep the
        few in-flight columns in a pinned workspace).  Only consulted by
        the training entry points.
    comm:
        Collective suite (``"flat"`` / ``"hierarchical"``); ``None``
        means ``"flat"``.
    machine:
        :class:`~repro.perfmodel.machine.MachineSpec` for virtual-time
        accounting (``None`` = the paper's Cascade testbed).
    faults:
        Deterministic fault-injection plan for the simulated runtime
        (a :class:`~repro.mpi.faults.FaultPlan`, its spec string, or
        ``None`` for a fault-free run).
    deadlock_timeout:
        Host-seconds watchdog for the simulated job.
    trace:
        Record a :class:`~repro.mpi.tracing.Tracer` event log on the job.
    dc:
        Divide-and-conquer outer loop for training (a
        :class:`~repro.core.dcsvm.DCConfig`, a spec string such as
        ``"clusters=4,levels=2,seed=7"``, an int cluster count, or
        ``None`` for the plain cold start).  Only consulted by the
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

    def merged(self, **overrides: Any) -> "RunConfig":
        """A copy where explicitly-given (non-``None``) overrides win.

        This is the back-compat shim behind every entry point that still
        accepts the individual keywords: ``None`` means "not passed, use
        the config value".  ``trace`` merges on ``True`` (the keyword can
        only turn tracing on, never silently off).
        """
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(f"unknown RunConfig fields {sorted(unknown)}")
        updates = {}
        for name, value in overrides.items():
            if name == "trace":
                if value:
                    updates[name] = True
            elif value is not None:
                updates[name] = value
        return replace(self, **updates) if updates else self

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


def resolve_config(
    config: Optional[RunConfig],
    *,
    _entry: Optional[str] = None,
    **overrides: Any,
) -> RunConfig:
    """The effective :class:`RunConfig` for one call.

    ``config=None`` starts from the defaults; explicitly passed keywords
    (non-``None``) override the config's fields.  This is the single
    resolution rule shared by ``fit_parallel``, ``SVC``,
    ``decision_function_parallel``, ``serve_requests`` and the CLI.

    ``_entry`` names the public entry point doing the resolving.  When
    set and any legacy per-call keyword is in effect, a
    :class:`DeprecationWarning` points the caller at the consolidated
    path — ``config=RunConfig(...)`` or ``config.replace(**overrides)``.
    The shims keep working (the warning is the whole migration cost);
    internal call sites pass a ready-made config and never warn.
    """
    base = config if config is not None else RunConfig()
    if _entry is not None:
        effective = sorted(
            name
            for name, value in overrides.items()
            if (bool(value) if name == "trace" else value is not None)
        )
        if effective:
            warnings.warn(
                f"{_entry}: the per-call keyword shim"
                f"{'s' if len(effective) > 1 else ''} "
                f"{', '.join(effective)} "
                f"{'are' if len(effective) > 1 else 'is'} deprecated; "
                f"pass config=RunConfig(...) or "
                f"config=cfg.replace({effective[0]}=...) instead",
                DeprecationWarning,
                stacklevel=3,
            )
    return base.merged(**overrides)
