"""Solver instrumentation.

Each rank fills a :class:`RankTrace` while it runs; the driver merges
them into one :class:`SolveTrace` that records the global per-iteration
active-set trajectory, shrink/reconstruction events and operation
counts.  The trace feeds

- the analysis the paper reports in §V-D (active-set fraction,
  iteration counts, reconstruction-time ratio), and
- the performance projector (:mod:`repro.perfmodel.projector`), which
  replays the trace against the machine model at arbitrary ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class ReconEvent:
    """One gradient reconstruction on one rank."""

    iteration: int
    n_shrunk_local: int  # samples whose γ this rank recomputed
    n_contrib_local: int  # α>0 samples this rank contributed to the ring
    bytes_sent: int
    kernel_evals: int


@dataclass
class RankTrace:
    """Per-rank instrumentation, filled during the solve."""

    rank: int
    n_local: int
    active_counts: List[int] = field(default_factory=list)
    #: optimality gap β_low − β_up per iteration (rank 0 only)
    gap_history: List[float] = field(default_factory=list)
    shrink_iters: List[int] = field(default_factory=list)
    shrunk_per_event: List[int] = field(default_factory=list)
    recon_events: List[ReconEvent] = field(default_factory=list)
    kernel_evals: int = 0
    iter_kernel_evals: int = 0  # kernel evals in the iterative part only
    #: working-set sample broadcasts this rank took part in (the
    #: resident-sample cache makes this < 2·iterations; identical on
    #: every rank since the broadcast sequence is collective)
    pair_broadcasts: int = 0
    #: full (two-phase, for second-order policies) violator elections;
    #: identical on every rank — elections are collective
    wss_elections: int = 0
    #: planning-ahead zero-communication pair reuses; identical on
    #: every rank — the reuse decision is computed redundantly
    wss_reuses: int = 0
    #: kernel-column requests this rank's column store served from a
    #: held column / had to produce; counted only under a column budget
    #: (``kernel_cache_mb``)
    cache_hits: int = 0
    cache_misses: int = 0
    #: kernel columns this rank produced in the iteration loop, columns
    #: it compacted across a shrink instead of producing them again,
    #: and iterations whose pair kernel K(x_up, x_low) it found
    #: memoized.  Without a column budget this is host-time reuse only:
    #: the kernel-eval accounting is unchanged.  A rank whose shrink
    #: eliminates nothing keeps its columns as they are, so the column
    #: counts differ between ranks
    columns_produced: int = 0
    columns_carried: int = 0
    pair_memo_hits: int = 0


@dataclass
class SolveTrace:
    """Merged, global view of one distributed solve."""

    n_samples: int
    n_features: int
    avg_nnz: float
    nprocs: int
    iterations: int
    #: global active-set size at each iteration
    active_counts: np.ndarray
    #: optimality gap per iteration (from rank 0)
    gap_history: np.ndarray
    #: iterations at which shrink passes fired (on any rank)
    shrink_iters: List[int]
    #: global samples removed at each shrink event
    shrunk_per_event: List[int]
    #: merged reconstruction events, ordered by iteration
    recon_events: List[ReconEvent]
    kernel_evals: int
    iter_kernel_evals: int
    #: per-iteration-loop working-set broadcasts (p-independent: the
    #: miss sequence of the resident-sample cache is fixed by the
    #: deterministic iteration sequence)
    pair_broadcasts: int = 0
    #: full violator elections (= iterations under ``mvp``; fewer under
    #: planning-ahead, whose reuses skip the election entirely)
    wss_elections: int = 0
    #: planning-ahead zero-communication pair reuses
    wss_reuses: int = 0
    #: column-store hits/misses summed over ranks (0/0 without a
    #: column budget)
    cache_hits: int = 0
    cache_misses: int = 0
    #: kernel columns produced, columns carried across a shrink, and
    #: pair-kernel memo hits, each summed over ranks (see RankTrace)
    columns_produced: int = 0
    columns_carried: int = 0
    pair_memo_hits: int = 0

    @classmethod
    def merge(
        cls,
        rank_traces: List[RankTrace],
        n_samples: int,
        n_features: int,
        avg_nnz: float,
    ) -> "SolveTrace":
        iters = max((len(t.active_counts) for t in rank_traces), default=0)
        active = np.zeros(iters, dtype=np.int64)
        for t in rank_traces:
            a = np.asarray(t.active_counts, dtype=np.int64)
            active[: a.size] += a
        shrink_iters = sorted({i for t in rank_traces for i in t.shrink_iters})
        shrunk = {}
        for t in rank_traces:
            for it, n in zip(t.shrink_iters, t.shrunk_per_event):
                shrunk[it] = shrunk.get(it, 0) + n
        recon = sorted(
            (ev for t in rank_traces for ev in t.recon_events),
            key=lambda e: e.iteration,
        )
        gaps = np.asarray(
            max((t.gap_history for t in rank_traces), key=len), dtype=np.float64
        )
        return cls(
            n_samples=n_samples,
            n_features=n_features,
            avg_nnz=avg_nnz,
            nprocs=len(rank_traces),
            iterations=iters,
            active_counts=active,
            gap_history=gaps,
            shrink_iters=shrink_iters,
            shrunk_per_event=[shrunk[i] for i in shrink_iters],
            recon_events=recon,
            kernel_evals=sum(t.kernel_evals for t in rank_traces),
            iter_kernel_evals=sum(t.iter_kernel_evals for t in rank_traces),
            pair_broadcasts=max(
                (t.pair_broadcasts for t in rank_traces), default=0
            ),
            wss_elections=max(
                (t.wss_elections for t in rank_traces), default=0
            ),
            wss_reuses=max((t.wss_reuses for t in rank_traces), default=0),
            cache_hits=sum(t.cache_hits for t in rank_traces),
            cache_misses=sum(t.cache_misses for t in rank_traces),
            columns_produced=sum(t.columns_produced for t in rank_traces),
            columns_carried=sum(t.columns_carried for t in rank_traces),
            pair_memo_hits=sum(t.pair_memo_hits for t in rank_traces),
        )

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # ------------------------------------------------------------------
    # §V-D style analysis helpers
    # ------------------------------------------------------------------
    def active_fraction(self) -> np.ndarray:
        """Active-set size as a fraction of N, per iteration."""
        if self.n_samples == 0:
            return np.zeros(0)
        return self.active_counts / float(self.n_samples)

    def fraction_of_iters_below(self, frac: float) -> float:
        """Fraction of iterations whose active set was below ``frac``·N.

        The paper observes e.g. "for 75% of the iterations, the active
        set is ... 20%" on MNIST.
        """
        if self.iterations == 0:
            return 0.0
        return float(np.mean(self.active_fraction() <= frac))

    def total_shrunk(self) -> int:
        return int(sum(self.shrunk_per_event))

    def n_reconstructions(self) -> int:
        """Number of distinct reconstruction rounds (by iteration index)."""
        return len({ev.iteration for ev in self.recon_events})

    def recon_kernel_evals(self) -> int:
        return sum(ev.kernel_evals for ev in self.recon_events)

    def recon_bytes(self) -> int:
        return sum(ev.bytes_sent for ev in self.recon_events)

    # ------------------------------------------------------------------
    # persistence (instrumented runs are expensive; traces are not)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data representation; round-trips via :meth:`from_dict`."""
        return {
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "avg_nnz": self.avg_nnz,
            "nprocs": self.nprocs,
            "iterations": self.iterations,
            "active_counts": self.active_counts.tolist(),
            "gap_history": self.gap_history.tolist(),
            "shrink_iters": list(self.shrink_iters),
            "shrunk_per_event": list(self.shrunk_per_event),
            "recon_events": [vars(ev) for ev in self.recon_events],
            "kernel_evals": self.kernel_evals,
            "iter_kernel_evals": self.iter_kernel_evals,
            "pair_broadcasts": self.pair_broadcasts,
            "wss_elections": self.wss_elections,
            "wss_reuses": self.wss_reuses,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "columns_produced": self.columns_produced,
            "columns_carried": self.columns_carried,
            "pair_memo_hits": self.pair_memo_hits,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SolveTrace":
        return cls(
            n_samples=int(d["n_samples"]),
            n_features=int(d["n_features"]),
            avg_nnz=float(d["avg_nnz"]),
            nprocs=int(d["nprocs"]),
            iterations=int(d["iterations"]),
            active_counts=np.asarray(d["active_counts"], dtype=np.int64),
            gap_history=np.asarray(d["gap_history"], dtype=np.float64),
            shrink_iters=[int(i) for i in d["shrink_iters"]],
            shrunk_per_event=[int(i) for i in d["shrunk_per_event"]],
            recon_events=[ReconEvent(**ev) for ev in d["recon_events"]],
            kernel_evals=int(d["kernel_evals"]),
            iter_kernel_evals=int(d["iter_kernel_evals"]),
            pair_broadcasts=int(d.get("pair_broadcasts", 0)),
            wss_elections=int(d.get("wss_elections", 0)),
            wss_reuses=int(d.get("wss_reuses", 0)),
            cache_hits=int(d.get("cache_hits", 0)),
            cache_misses=int(d.get("cache_misses", 0)),
            columns_produced=int(d.get("columns_produced", 0)),
            columns_carried=int(d.get("columns_carried", 0)),
            pair_memo_hits=int(d.get("pair_memo_hits", 0)),
        )

    def save(self, path) -> None:
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "SolveTrace":
        import json
        from pathlib import Path

        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


@dataclass
class FitStats:
    """Driver-level outcome statistics attached to a fitted model."""

    heuristic: str
    nprocs: int
    iterations: int
    n_sv: int
    beta: float
    vtime: float  # modeled seconds on the target machine
    wall_time: float  # measured host seconds for the simulated job
    kernel_evals: int
    bytes_sent: int
    messages: int
    trace: Optional[SolveTrace] = None
    wss: str = "mvp"  # working-set-selection policy the fit ran with
