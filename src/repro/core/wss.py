"""Working-set selection (Eq. 3) and the two-sample analytic step (Eq. 6-7).

Selection is the maximal-violating-pair rule of Keerthi et al.: the
worst violators

    β_up  = min{γ_i : i ∈ I0 ∪ I1 ∪ I2},   i_up  = argmin
    β_low = max{γ_i : i ∈ I0 ∪ I3 ∪ I4},   i_low = argmax

Ties are broken toward the smallest global index, which makes the
iteration sequence independent of the process count — the distributed
solver at any p replays the sequential solver's steps exactly.

The α update solves the two-variable QP analytically.  The paper's
Eq. (6) is the unconstrained Newton step

    α_low' = α_low − y_low (γ_up − γ_low) / ρ,
    ρ = 2Φ(up,low) − Φ(up,up) − Φ(low,low)

followed by clipping to the feasible box (Platt's L/H bounds).  For
non-positive-definite ρ ≥ 0 we apply libsvm's τ-regularization
(ρ := −τ), which matches Platt's endpoint handling in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: regularizer for non-PSD pair curvature (libsvm's TAU)
TAU = 1e-12

#: sentinel index used when a rank has no eligible candidate
NO_INDEX = -1


class SolverError(RuntimeError):
    """A poisoned solver state detected during working-set selection."""


def guard_gamma_finite(
    gamma: np.ndarray,
    rank: int | None = None,
    local_indices: np.ndarray | None = None,
) -> None:
    """Raise :class:`SolverError` when ``gamma`` contains a NaN.

    ``argmin``/``argmax`` silently absorb NaN entries (numpy propagates
    them to the winner), which would elect a garbage pair and poison the
    whole run; this names the offending rank and local sample index
    instead.  ``local_indices`` maps positions in ``gamma`` (e.g. a
    packed active view) back to local sample indices for the message.
    """
    bad = np.isnan(gamma)
    if not bad.any():
        return
    k = int(np.flatnonzero(bad)[0])
    li = int(local_indices[k]) if local_indices is not None else k
    where = f"rank {rank}" if rank is not None else "this rank"
    raise SolverError(
        f"NaN gradient entry during working-set selection on {where}, "
        f"local index {li} ({int(bad.sum())} NaN entr"
        f"{'y' if int(bad.sum()) == 1 else 'ies'} total) — the dual "
        f"state is poisoned (bad kernel parameters or corrupted input?)"
    )


@dataclass(frozen=True)
class Violators:
    """The global worst-violator pair after the allreduce."""

    beta_up: float
    i_up: int
    gamma_up: float
    beta_low: float
    i_low: int
    gamma_low: float

    def gap(self) -> float:
        return self.beta_low - self.beta_up

    def converged(self, eps: float) -> bool:
        """Eq. (5): β_up + 2ε ≥ β_low."""
        return self.beta_up + 2.0 * eps >= self.beta_low


def local_extrema(
    gamma: np.ndarray,
    up: np.ndarray,
    low: np.ndarray,
    global_offset: int,
    *,
    rank: int | None = None,
    local_indices: np.ndarray | None = None,
) -> Tuple[float, int, float, int]:
    """This rank's (β_up, i_up, β_low, i_low) over the given masks.

    Returns global indices; ``(inf, NO_INDEX)`` / ``(-inf, NO_INDEX)``
    when the respective candidate set is empty on this rank.  A NaN in
    ``gamma`` raises :class:`SolverError` (``rank`` / ``local_indices``
    feed the diagnostic) instead of silently poisoning the extrema.
    """
    guard_gamma_finite(gamma, rank=rank, local_indices=local_indices)
    beta_up, i_up = np.inf, NO_INDEX
    beta_low, i_low = -np.inf, NO_INDEX
    up_idx = np.flatnonzero(up)
    if up_idx.size:
        k = up_idx[np.argmin(gamma[up_idx])]
        beta_up, i_up = float(gamma[k]), global_offset + int(k)
    low_idx = np.flatnonzero(low)
    if low_idx.size:
        k = low_idx[np.argmax(gamma[low_idx])]
        beta_low, i_low = float(gamma[k]), global_offset + int(k)
    return beta_up, i_up, beta_low, i_low


def masked_extrema(
    gamma: np.ndarray,
    up: np.ndarray,
    low: np.ndarray,
    *,
    rank: int | None = None,
    local_indices: np.ndarray | None = None,
) -> Tuple[float, int, float, int]:
    """:func:`local_extrema` (with offset 0) as one masked argmin and one
    masked argmax.

    Same results bit for bit, NaN guard and diagnostic included, with a
    constant number of numpy calls and no index gathers.  A
    non-candidate reads as +inf to the argmin (−inf to the argmax), so
    the first minimum is a candidate unless every candidate is +inf (or
    there is none); the first candidate then wins, as it does in
    :func:`local_extrema`.
    """
    # a sum of squares is NaN only through a NaN entry (inf stays inf)
    if math.isnan(gamma.dot(gamma)):
        guard_gamma_finite(gamma, rank=rank, local_indices=local_indices)
    beta_up, i_up = np.inf, NO_INDEX
    beta_low, i_low = -np.inf, NO_INDEX
    if gamma.size == 0:
        return beta_up, i_up, beta_low, i_low
    k = int(np.where(up, gamma, np.inf).argmin())
    if not up[k]:
        k = int(up.argmax())
    if up[k]:
        beta_up, i_up = float(gamma[k]), k
    k = int(np.where(low, gamma, -np.inf).argmax())
    if not low[k]:
        k = int(low.argmax())
    if low[k]:
        beta_low, i_low = float(gamma[k]), k
    return beta_up, i_up, beta_low, i_low


def solve_pair(
    k_up_up: float,
    k_low_low: float,
    k_up_low: float,
    y_up: float,
    y_low: float,
    alpha_up: float,
    alpha_low: float,
    gamma_up: float,
    gamma_low: float,
    C_up: float,
    C_low: float | None = None,
) -> Tuple[float, float]:
    """Analytic two-variable step; returns (α_up', α_low') clipped.

    Follows Eq. (6)-(7) with standard box clipping.  The pair constraint
    y_up·α_up + y_low·α_low = const is preserved exactly.  ``C_up`` /
    ``C_low`` are the two samples' box constraints (they differ under
    per-class weighting; pass one value for the unweighted problem).
    """
    if C_low is None:
        C_low = C_up
    rho = 2.0 * k_up_low - k_up_up - k_low_low  # Eq. (7); <= 0 for PSD
    if rho >= 0.0:
        rho = -TAU  # libsvm's handling of non-PD curvature
    # unconstrained Newton step on α_low (Eq. 6)
    new_low = alpha_low - y_low * (gamma_up - gamma_low) / rho
    # feasible interval for α_low given the pair constraint
    s = y_up * y_low
    if s > 0:
        total = alpha_up + alpha_low
        lo = max(0.0, total - C_up)
        hi = min(C_low, total)
    else:
        diff = alpha_low - alpha_up
        lo = max(0.0, diff)
        hi = min(C_low, C_up + diff)
    new_low = min(max(new_low, lo), hi)
    new_up = alpha_up + s * (alpha_low - new_low)  # Eq. (6), second line
    # snap residual round-off onto the box
    new_up = min(max(new_up, 0.0), C_up)
    return new_up, new_low


def beta_from_moments(
    total: float,
    count: float,
    beta_up: float,
    beta_low: float,
) -> float:
    """β from (Σ γ over I0, |I0|) plus the violator bounds.

    Mean of γ over I0 when I0 is non-empty, else the β midpoint.  With
    no free SVs *and* one-sided (or empty) violator bounds the midpoint
    is ±inf/NaN — which would poison every prediction — so it collapses
    to 0.  Shared by the sequential solvers and the distributed engine
    (which feeds globally allreduced moments).
    """
    if count:
        return float(total / count)
    mid = 0.5 * (beta_low + beta_up)
    return mid if math.isfinite(mid) else 0.0


def compute_beta(
    gamma: np.ndarray,
    free: np.ndarray,
    beta_up: float,
    beta_low: float,
) -> float:
    """Final hyperplane threshold β (§III):

    mean of γ over I0 when I0 is non-empty, else the β midpoint (0 when
    the midpoint is not finite).  The decision function offset is b = −β.
    """
    n_free = int(np.count_nonzero(free))
    return beta_from_moments(
        float(gamma[free].sum()) if n_free else 0.0, n_free, beta_up, beta_low
    )
