"""Drift-scenario harness: a stream, a refresh policy, a serving fleet.

:func:`run_stream` drives an :class:`~repro.stream.IncrementalSVC`
over a seeded :func:`~repro.data.drift_stream` and keeps a serving
:class:`~repro.serve.ModelRegistry` fresh through its atomic hot-swap:

- **prequential evaluation** — each incoming batch is scored against
  the *currently served* (registry-active) model before the learner
  trains on it, giving the honest accuracy-over-time curve a deployed
  fleet would observe;
- **refresh policy** — the served model refreshes every ``every_k``
  batches, or immediately when the prequential accuracy falls below
  ``accuracy_floor`` (drift-triggered refresh);
- **time-to-refresh** — each refresh is priced as the refit's modeled
  solve time plus the fleet re-shard of the new model onto the
  serving ranks (:func:`~repro.perfmodel.costs.fleet_reshard_time`),
  the same charge a replacement shard-group pays after a failover.

Everything is deterministic per seed: the stream, the refit
trajectories, the virtual times and therefore the whole report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import RunConfig
from ..data.synthetic import DriftStreamSpec, drift_stream
from ..perfmodel import costs
from ..perfmodel.machine import MachineSpec
from ..serve.registry import ModelRegistry
from .incremental import IncrementalSVC

__all__ = [
    "BatchRecord",
    "RefreshPolicy",
    "StreamReport",
    "StreamScenario",
    "run_stream",
]


@dataclass(frozen=True)
class RefreshPolicy:
    """When the served model is replaced by the freshly refit one.

    ``every_k``: refresh after every k-th trained batch (k=1 — always
    serve the latest model).  ``accuracy_floor``: additionally refresh
    as soon as a batch's prequential accuracy drops below the floor,
    however recent the last refresh (drift trigger).
    """

    every_k: int = 1
    accuracy_floor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every_k < 1:
            raise ValueError(f"every_k must be >= 1, got {self.every_k}")
        if self.accuracy_floor is not None and not (
            0.0 <= self.accuracy_floor <= 1.0
        ):
            raise ValueError(
                f"accuracy_floor must be in [0, 1], got {self.accuracy_floor}"
            )


@dataclass(frozen=True)
class StreamScenario:
    """One reproducible streaming experiment: drift + learner + policy."""

    spec: DriftStreamSpec = field(default_factory=DriftStreamSpec)
    C: float = 10.0
    gamma: float = 0.5
    eps: float = 1e-3
    policy: RefreshPolicy = field(default_factory=RefreshPolicy)
    config: Optional[RunConfig] = None
    certify: bool = False


@dataclass
class BatchRecord:
    """One stream step: what the fleet served, what the learner paid."""

    batch: int
    n_seen: int  # dataset size after training on this batch
    prequential_accuracy: Optional[float]  # served-model acc, pre-train
    served_version: Optional[int]  # registry version that scored it
    refreshed: bool
    refresh_trigger: Optional[str]  # "every_k" | "accuracy" | None
    new_version: Optional[int]
    time_to_refresh: Optional[float]  # refit vtime + fleet re-shard
    kernel_evals: int  # incremental cost of this step's refit

    def to_dict(self) -> dict:
        return {
            "batch": self.batch,
            "n_seen": self.n_seen,
            "prequential_accuracy": self.prequential_accuracy,
            "served_version": self.served_version,
            "refreshed": self.refreshed,
            "refresh_trigger": self.refresh_trigger,
            "new_version": self.new_version,
            "time_to_refresh": self.time_to_refresh,
            "kernel_evals": self.kernel_evals,
        }


@dataclass
class StreamReport:
    """The scenario outcome: accuracy-over-time and the cost ledger."""

    n_batches: int
    batch_size: int
    drift: str
    policy: dict
    batches: List[BatchRecord]
    refits: List[dict]  # RefitRecord.to_dict() per refit
    refreshes: int
    cumulative_kernel_evals: int  # incremental path, seeding included
    cumulative_cold_kernel_evals: Optional[int]  # certify=True only
    eval_reduction: Optional[float]  # cold / incremental
    total_refit_vtime: float
    mean_time_to_refresh: Optional[float]
    max_time_to_refresh: Optional[float]
    final_n_sv: int

    @property
    def accuracy_over_time(self) -> List[Optional[float]]:
        return [b.prequential_accuracy for b in self.batches]

    @property
    def mean_prequential_accuracy(self) -> Optional[float]:
        accs = [a for a in self.accuracy_over_time if a is not None]
        return float(np.mean(accs)) if accs else None

    def to_dict(self) -> dict:
        return {
            "n_batches": self.n_batches,
            "batch_size": self.batch_size,
            "drift": self.drift,
            "policy": self.policy,
            "batches": [b.to_dict() for b in self.batches],
            "refits": self.refits,
            "refreshes": self.refreshes,
            "cumulative_kernel_evals": self.cumulative_kernel_evals,
            "cumulative_cold_kernel_evals": self.cumulative_cold_kernel_evals,
            "eval_reduction": self.eval_reduction,
            "total_refit_vtime": self.total_refit_vtime,
            "mean_time_to_refresh": self.mean_time_to_refresh,
            "max_time_to_refresh": self.max_time_to_refresh,
            "mean_prequential_accuracy": self.mean_prequential_accuracy,
            "accuracy_over_time": self.accuracy_over_time,
            "final_n_sv": self.final_n_sv,
        }


def run_stream(
    scenario: StreamScenario,
    *,
    registry: Optional[ModelRegistry] = None,
) -> StreamReport:
    """Run the drift scenario end to end; returns the report.

    Pass an existing ``registry`` to refresh a live fleet in place —
    the first trained model is published (auto-activating if the
    registry is empty) and every policy-triggered refresh goes through
    the registry's atomic :meth:`~repro.serve.ModelRegistry.hot_swap`.
    """
    cfg = scenario.config if scenario.config is not None else RunConfig()
    machine = cfg.machine if cfg.machine is not None else MachineSpec.cascade()
    registry = registry if registry is not None else ModelRegistry()
    clf = IncrementalSVC(
        C=scenario.C,
        gamma=scenario.gamma,
        eps=scenario.eps,
        config=cfg,
        certify=scenario.certify,
    )
    policy = scenario.policy
    batches = drift_stream(scenario.spec)

    records: List[BatchRecord] = []
    since_refresh = 0
    ttr_list: List[float] = []
    for t, (Xb, yb) in enumerate(batches):
        # prequential: score with the *served* model before training
        acc: Optional[float] = None
        served_version = registry.active_version
        if served_version is not None and clf.classes_ is not None:
            served = registry.load(served_version)
            y_signed = np.where(yb == clf.classes_[1], 1.0, -1.0)
            acc = served.accuracy(Xb, y_signed)

        clf.partial_fit(Xb, yb)
        refit = clf.records_[-1]
        since_refresh += 1

        trigger: Optional[str] = None
        if (
            policy.accuracy_floor is not None
            and acc is not None
            and acc < policy.accuracy_floor
        ):
            trigger = "accuracy"
        elif since_refresh >= policy.every_k or served_version is None:
            trigger = "every_k"

        new_version = None
        ttr = None
        if trigger is not None:
            new_version = registry.hot_swap(
                clf.model_, label=f"stream-batch-{t}"
            )
            ttr = refit.vtime + costs.fleet_reshard_time(
                machine, clf.model_.n_sv, clf.X_.avg_row_nnz, cfg.nprocs
            )
            ttr_list.append(ttr)
            since_refresh = 0

        records.append(
            BatchRecord(
                batch=t,
                n_seen=clf.n_samples_,
                prequential_accuracy=acc,
                served_version=served_version,
                refreshed=trigger is not None,
                refresh_trigger=trigger,
                new_version=new_version,
                time_to_refresh=ttr,
                kernel_evals=refit.kernel_evals,
            )
        )

    return StreamReport(
        n_batches=scenario.spec.n_batches,
        batch_size=scenario.spec.batch_size,
        drift=scenario.spec.drift,
        policy={
            "every_k": policy.every_k,
            "accuracy_floor": policy.accuracy_floor,
        },
        batches=records,
        refits=[r.to_dict() for r in clf.records_],
        refreshes=len(ttr_list),
        cumulative_kernel_evals=clf.kernel_evals_,
        cumulative_cold_kernel_evals=clf.cold_kernel_evals_,
        eval_reduction=(
            clf.cold_kernel_evals_ / clf.kernel_evals_
            if clf.cold_kernel_evals_ is not None and clf.kernel_evals_
            else None
        ),
        total_refit_vtime=clf.refit_vtime_,
        mean_time_to_refresh=(
            float(np.mean(ttr_list)) if ttr_list else None
        ),
        max_time_to_refresh=(max(ttr_list) if ttr_list else None),
        final_n_sv=clf.model_.n_sv if clf.model_ is not None else 0,
    )
