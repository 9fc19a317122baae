"""Solver hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernels import Kernel, RBFKernel


@dataclass(frozen=True)
class SVMParams:
    """Hyperparameters shared by every solver variant.

    Attributes
    ----------
    C:
        Box constraint (the paper's Table III ``C``).
    kernel:
        Kernel function Φ; defaults to the paper's Gaussian kernel.
    eps:
        Optimality tolerance ε in Eq. (5): stop when
        ``beta_up + 2*eps >= beta_low``.  libsvm's default 1e-3.
    max_iter:
        Safety bound on total iterations (0 = unbounded).  Mirrors real
        deployments where a runaway job must terminate; the solver raises
        :class:`ConvergenceError` when exceeded.
    shrink_eps_factor:
        Multi-reconstruction phase-1 tolerance multiplier: Algorithm 5
        first converges the shrunk problem at ``shrink_eps_factor * eps``
        (the paper uses 20, i.e. reconstruct at 20ε then drive to 2ε).
    weight_pos, weight_neg:
        Per-class penalty multipliers (libsvm's ``-w``): the box
        constraint of a sample with label y is ``C * weight(y)``.
        Useful for imbalanced problems.
    """

    C: float = 1.0
    kernel: Kernel = field(default_factory=lambda: RBFKernel(1.0))
    eps: float = 1e-3
    max_iter: int = 10_000_000
    shrink_eps_factor: float = 10.0
    weight_pos: float = 1.0
    weight_neg: float = 1.0

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if self.shrink_eps_factor < 1:
            raise ValueError(
                f"shrink_eps_factor must be >= 1, got {self.shrink_eps_factor}"
            )
        if self.weight_pos <= 0 or self.weight_neg <= 0:
            raise ValueError(
                f"class weights must be positive, got "
                f"({self.weight_pos}, {self.weight_neg})"
            )

    @property
    def weighted(self) -> bool:
        return self.weight_pos != 1.0 or self.weight_neg != 1.0

    def box_for(self, y):
        """Per-sample box constraint C_i = C·weight(y_i).

        Accepts a scalar label or a label array; returns the same shape.
        """
        import numpy as np

        y = np.asarray(y)
        out = self.C * np.where(y > 0, self.weight_pos, self.weight_neg)
        return float(out) if out.ndim == 0 else out


class ConvergenceError(RuntimeError):
    """Raised when a solver exceeds its iteration budget."""
