"""``repro.kernels`` — kernel functions and the baseline's row cache."""

from .base import Kernel, SampleRow
from .cache import KernelRowCache
from .linear import LinearKernel
from .polynomial import PolynomialKernel
from .rbf import RBFKernel
from .sigmoid import SigmoidKernel

_KERNELS = {
    "rbf": RBFKernel,
    "linear": LinearKernel,
    "poly": PolynomialKernel,
    "sigmoid": SigmoidKernel,
}


def make_kernel(name: str, **params) -> Kernel:
    """Instantiate a kernel by name (``rbf``/``linear``/``poly``/``sigmoid``)."""
    try:
        cls = _KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(_KERNELS)}"
        ) from None
    return cls(**params)


__all__ = [
    "Kernel",
    "KernelRowCache",
    "LinearKernel",
    "PolynomialKernel",
    "RBFKernel",
    "SampleRow",
    "SigmoidKernel",
    "make_kernel",
]
