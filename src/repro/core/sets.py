"""Index-set classification (Eq. 4) — vectorized.

Every sample belongs to exactly one of I0..I4 depending on (y, α):

    I0 = {0 < α < C}                  (free / unbounded SVs)
    I1 = {y = +1, α = 0}
    I2 = {y = -1, α = C}
    I3 = {y = +1, α = C}
    I4 = {y = -1, α = 0}

β_up is min γ over I0 ∪ I1 ∪ I2 ("up-eligible"); β_low is max γ over
I0 ∪ I3 ∪ I4 ("low-eligible") — Eq. (3).
"""

from __future__ import annotations

import numpy as np

#: tolerance for α-at-bound tests, relative to C
_BOUND_RTOL = 1e-12

I0, I1, I2, I3, I4 = 0, 1, 2, 3, 4


def classify(alpha: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Return the I-set id (0..4) of every sample."""
    at_zero = alpha <= C * _BOUND_RTOL
    at_c = alpha >= C * (1.0 - _BOUND_RTOL)
    pos = y > 0
    out = np.full(alpha.shape, I0, dtype=np.int8)
    out[at_zero & pos] = I1
    out[at_c & ~pos] = I2
    out[at_c & pos] = I3
    out[at_zero & ~pos] = I4
    return out


def up_mask(alpha: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Membership in I0 ∪ I1 ∪ I2 (candidates for β_up = min γ).

    Equivalent to the classic condition
    ``(y == +1 and α < C) or (y == -1 and α > 0)``.
    """
    at_zero = alpha <= C * _BOUND_RTOL
    at_c = alpha >= C * (1.0 - _BOUND_RTOL)
    pos = y > 0
    return (pos & ~at_c) | (~pos & ~at_zero)


def low_mask(alpha: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Membership in I0 ∪ I3 ∪ I4 (candidates for β_low = max γ)."""
    at_zero = alpha <= C * _BOUND_RTOL
    at_c = alpha >= C * (1.0 - _BOUND_RTOL)
    pos = y > 0
    return (pos & ~at_zero) | (~pos & ~at_c)


def up_low_masks(
    alpha: np.ndarray, y: np.ndarray, C
) -> "tuple[np.ndarray, np.ndarray]":
    """Both election masks from one pass over the bound tests.

    Returns ``(up, low)`` bitwise identical to :func:`up_mask` /
    :func:`low_mask`; the shared ``at_zero``/``at_c``/``pos``
    intermediates are computed once (the per-iteration hot path calls
    both masks back to back).
    """
    at_zero = alpha <= C * _BOUND_RTOL
    at_c = alpha >= C * (1.0 - _BOUND_RTOL)
    pos = y > 0
    not_pos = ~pos
    not_zero = ~at_zero
    not_c = ~at_c
    return (pos & not_c) | (not_pos & not_zero), (pos & not_zero) | (not_pos & not_c)


def up_low_at(alpha: float, y: float, C: float) -> "tuple[bool, bool]":
    """:func:`up_low_masks` for one sample: the same bound tests on
    Python floats, so the two flags equal the masks' entries bit for
    bit (NaN included).  Used to refresh maintained masks after an α
    write without rescanning the arrays."""
    at_zero = alpha <= C * _BOUND_RTOL
    at_c = alpha >= C * (1.0 - _BOUND_RTOL)
    if y > 0:
        return not at_c, not at_zero
    return not at_zero, not at_c


def free_mask(alpha: np.ndarray, C: float) -> np.ndarray:
    """Membership in I0 (0 < α < C), used for the final β (hyperplane b)."""
    return (alpha > C * _BOUND_RTOL) & (alpha < C * (1.0 - _BOUND_RTOL))


def shrinkable_mask(
    alpha: np.ndarray,
    y: np.ndarray,
    gamma: np.ndarray,
    C: float,
    beta_up: float,
    beta_low: float,
) -> np.ndarray:
    """The paper's shrinking condition, Eq. (9).

    A sample can be shrunk when it sits at a bound on the side where it
    can no longer become a violator::

        i ∈ I3 ∪ I4  and  γ_i < β_up      (can only raise β_low; too low)
        i ∈ I1 ∪ I2  and  γ_i > β_low     (can only lower β_up; too high)

    Free samples (I0) are never shrunk.
    """
    sets = classify(alpha, y, C)
    low_only = (sets == I3) | (sets == I4)
    up_only = (sets == I1) | (sets == I2)
    return (low_only & (gamma < beta_up)) | (up_only & (gamma > beta_low))
