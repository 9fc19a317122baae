"""Pluggable working-set-selection policies.

The paper's solver always elects the maximal-violating pair (first-order
WSS, here ``mvp``).  Two refinements from the WSS literature cut
iterations-to-convergence substantially and are wired into the solver
behind this registry:

``mvp``
    Keerthi et al. maximal violating pair — bitwise identical to the
    historical behaviour; the default.

``second_order``
    LIBSVM's WSS2 (Fan, Chen & Lin 2005) mapped onto this codebase's γ
    convention: i_up is still the first-order argmin γ over the up set,
    but i_low maximizes the analytic gain b²/a with b = γ_j − β_up > 0
    and curvature a = Φ(u,u) + Φ(j,j) − 2Φ(u,j) (τ-regularized when
    a ≤ 0).  Distributed as a two-phase election: the first-order fused
    allreduce (phase A, which also still provides the β_low convergence
    bound), then a per-rank curvature-scored argmax over the local low
    candidates using the up sample's local kernel column, combined with
    one typed :data:`~repro.mpi.reduceops.MAXLOC_PAYLOAD` allreduce
    carrying (gain, global index, γ_j).

``planning_ahead``
    Second-order selection plus Glasmachers-style working-set reuse:
    every rank maintains a small pool of recently broadcast working-set
    samples whose (α, γ) it tracks *redundantly* — the pair update is
    computed on every rank, and a pool bystander's γ change needs only
    the pair kernels between pool samples, which each rank computes
    locally from the broadcast rows.  When some pool pair still
    violates KKT with enough expected gain, it is reused with **zero
    communication** — no election allreduces, no sample movement.
    (Re-stepping only the *immediately previous* pair would be vacuous:
    the analytic two-variable solve is exact, so the updated pair
    itself almost never violates again until other updates perturb its
    γ — which is precisely what the pool tracks.)

Selection: ``RunConfig.wss`` / ``--wss``; :func:`resolve_wss` maps
``None`` to the ``mvp`` default and rejects unknown names.

Every non-``mvp`` selection decision is computed from values that are
redundantly identical on all ranks (allreduced scalars, broadcast
payloads, pair kernel values) or combined through deterministic typed
reductions with ties broken toward the smallest global index — so the
iteration sequence remains independent of the process count, exactly
like ``mvp``.  The *models* differ from ``mvp`` only within solver
tolerance (certified by ``assert_model_equiv`` in the test suite).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .sets import up_low_at
from .wss import NO_INDEX, TAU

#: cap on consecutive zero-communication reuses (planning_ahead) —
#: bounds how stale the global β bounds the trace reports can get
MAX_CONSECUTIVE_REUSES = 8

#: planning-ahead pool size — recently broadcast samples whose (α, γ)
#: every rank maintains redundantly; kept tiny because γ maintenance
#: costs pool−2 pair kernels per update per tracked sample
POOL_CAPACITY = 4


@dataclass(frozen=True)
class WSSPolicy:
    """One working-set-selection policy.

    ``second_order`` enables the two-phase curvature-scored election;
    ``reuse_eta`` (``None`` = off) enables planning-ahead working-set
    reuse: the previous pair is re-stepped without any election when its
    projected gain is at least ``reuse_eta`` times the gain of the last
    elected pair.
    """

    name: str
    second_order: bool = False
    reuse_eta: Optional[float] = None


WSS_POLICIES = {
    "mvp": WSSPolicy("mvp"),
    "second_order": WSSPolicy("second_order", second_order=True),
    "planning_ahead": WSSPolicy(
        "planning_ahead", second_order=True, reuse_eta=0.5
    ),
}


def get_wss_policy(name) -> WSSPolicy:
    """Look up a policy by name (a :class:`WSSPolicy` passes through)."""
    if isinstance(name, WSSPolicy):
        return name
    try:
        return WSS_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown wss policy {name!r}; expected one of "
            f"{sorted(WSS_POLICIES)}"
        ) from None


def resolve_wss(wss: Optional[str] = None) -> str:
    """The WSS policy name: ``None`` means "mvp"; unknown names raise."""
    if wss is None:
        wss = "mvp"
    if isinstance(wss, WSSPolicy):
        return wss.name
    if wss not in WSS_POLICIES:
        raise ValueError(
            f"unknown wss policy {wss!r}; expected one of "
            f"{sorted(WSS_POLICIES)}"
        )
    return wss


# ----------------------------------------------------------------------
# second-order (WSS2) scoring
# ----------------------------------------------------------------------
def second_order_best(
    gamma: np.ndarray,
    low: np.ndarray,
    kcol_up: np.ndarray,
    diag: np.ndarray,
    k_uu: float,
    beta_up: float,
    gidx: np.ndarray,
) -> Tuple[float, int, float]:
    """This rank's best curvature-scored i_low candidate.

    Scores every low-eligible sample j with b = γ_j − β_up > 0 by
    b²/a, a = Φ(u,u) + Φ(j,j) − 2Φ(u,j) (τ-regularized when a ≤ 0 —
    libsvm's non-PSD handling).  Returns ``(gain, global_index, γ_j)``,
    or ``(-inf, NO_INDEX, -inf)`` when no candidate has positive b.

    Ties break toward the smallest global index: ``np.argmax`` takes
    the first maximum and ``gidx`` is ascending within a rank, so the
    local winner — and, through the MAXLOC_PAYLOAD combine, the global
    one — is p-independent.  Every input is bitwise identical across
    process counts (γ and the kernel maps are elementwise), so the
    scores are too.
    """
    cand = np.flatnonzero(low)
    if cand.size == 0:
        return -np.inf, NO_INDEX, -np.inf
    b = gamma[cand] - beta_up
    pos = b > 0.0
    if not pos.any():
        return -np.inf, NO_INDEX, -np.inf
    cand = cand[pos]
    b = b[pos]
    a = k_uu + diag[cand] - 2.0 * kcol_up[cand]
    a = np.where(a > 0.0, a, TAU)
    score = (b * b) / a
    k = int(np.argmax(score))
    return float(score[k]), int(gidx[cand[k]]), float(gamma[cand[k]])


# ----------------------------------------------------------------------
# planning-ahead working-set reuse
# ----------------------------------------------------------------------
@dataclass
class PoolSample:
    """One tracked sample: broadcast row + redundantly maintained state.

    ``row`` is the ``(indices, values, norm_sq)`` triple every rank
    received when the sample entered a working set; ``alpha``/``gamma``
    are refreshed by :meth:`ReusePool.observe_update` from the
    redundantly computed pair update, so they are identical on every
    rank without any further communication.
    """

    gidx: int
    row: tuple
    y: float
    C: float
    alpha: float
    gamma: float


class ReusePool:
    """Recently broadcast working-set samples, tracked for reuse.

    After each pair update every rank calls :meth:`observe_update`: the
    two updated samples are upserted with their new (α, γ), and each
    *bystander* already in the pool gets its γ advanced by the same
    term-by-term arithmetic :func:`~repro.core.gradient.apply_pair_update`
    applies to the owner's array — the needed Φ(bystander, pair) values
    are computed locally from the broadcast rows (and memoized).
    :meth:`best_pair` then scores every ordered pool pair by the
    second-order b²/a gain; a winner above the caller's threshold can
    be stepped with zero communication, since everything about both
    samples is redundantly known on all ranks.

    Determinism: pool contents mirror the collective broadcast
    sequence, all maintenance arithmetic is identical scalar math on
    identical inputs, and :meth:`best_pair` iterates in insertion order
    keeping the first maximum — so every rank elects the same pair.

    ``take_new_evals`` drains the count of pair kernels actually
    produced (memo misses) so the solver can charge them honestly.
    """

    def __init__(self, kernel, capacity: int = POOL_CAPACITY):
        self.kernel = kernel
        self.capacity = int(capacity)
        self._samples: "OrderedDict[int, PoolSample]" = OrderedDict()
        self._pair_k: dict = {}  # (gidx lo, gidx hi) -> Φ value
        self._new_evals = 0

    def __len__(self) -> int:
        return len(self._samples)

    def clear(self) -> None:
        self._samples.clear()
        self._pair_k.clear()

    def take_new_evals(self) -> int:
        n, self._new_evals = self._new_evals, 0
        return n

    def _key(self, ga: int, gb: int):
        return (ga, gb) if ga < gb else (gb, ga)

    def seed_k(self, ga: int, gb: int, value: float) -> None:
        """Record a pair kernel the engine already evaluated (free)."""
        self._pair_k[self._key(ga, gb)] = value

    def k(self, a: PoolSample, b: PoolSample) -> float:
        """Φ(a, b), memoized; a miss costs one local kernel evaluation."""
        key = self._key(a.gidx, b.gidx)
        v = self._pair_k.get(key)
        if v is None:
            v = self.kernel.pair(a.row, b.row)
            self._pair_k[key] = v
            self._new_evals += 1
        return v

    def observe_update(
        self,
        up: PoolSample,
        low: PoolSample,
        coef_up: float,
        coef_low: float,
    ) -> None:
        """Fold one redundantly computed pair update into the pool.

        ``up``/``low`` carry the pair's *new* α and γ (the caller
        replicates the update arithmetic); ``coef_* = y_* · Δα_*`` are
        the γ-update coefficients.  Bystander γ maintenance applies the
        same skip-on-zero-coefficient steps as the array update.
        """
        for s in self._samples.values():
            if s.gidx == up.gidx or s.gidx == low.gidx:
                continue
            if coef_up != 0.0:
                s.gamma = s.gamma + coef_up * self.k(s, up)
            if coef_low != 0.0:
                s.gamma = s.gamma + coef_low * self.k(s, low)
        for smp in (up, low):
            self._samples[smp.gidx] = smp
            self._samples.move_to_end(smp.gidx)
        while len(self._samples) > self.capacity:
            g, _ = self._samples.popitem(last=False)
            for key in [kk for kk in self._pair_k if g in kk]:
                del self._pair_k[key]

    def best_pair(self, phase_eps: float):
        """Best still-violating (up, low) pool pair, or ``None``.

        Both orientations of every unordered pair are checked for KKT
        eligibility and a gap above the phase's 2ε threshold, then
        scored by b²/a (τ-regularized curvature) — the same gain the
        second-order election maximizes.  Strict ``>`` keeps the first
        maximum in insertion order, so ties are rank-independent.
        """
        samples = list(self._samples.values())
        best = None
        for i, a in enumerate(samples):
            for b in samples[i + 1 :]:
                gap_ab = b.gamma - a.gamma  # orientation up=a, low=b
                gap_ba = -gap_ab
                if gap_ab > 2.0 * phase_eps:
                    if (
                        up_low_at(a.alpha, a.y, a.C)[0]
                        and up_low_at(b.alpha, b.y, b.C)[1]
                    ):
                        curv = (
                            self.k(a, a) + self.k(b, b) - 2.0 * self.k(a, b)
                        )
                        if curv <= 0.0:
                            curv = TAU
                        gain = (gap_ab * gap_ab) / curv
                        if best is None or gain > best[0]:
                            best = (gain, a, b)
                elif gap_ba > 2.0 * phase_eps:
                    if (
                        up_low_at(b.alpha, b.y, b.C)[0]
                        and up_low_at(a.alpha, a.y, a.C)[1]
                    ):
                        curv = (
                            self.k(a, a) + self.k(b, b) - 2.0 * self.k(a, b)
                        )
                        if curv <= 0.0:
                            curv = TAU
                        gain = (gap_ba * gap_ba) / curv
                        if best is None or gain > best[0]:
                            best = (gain, b, a)
        return best
