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


def build_kernel(kernel, gamma=None, sigma_sq=None) -> Kernel:
    """The kernel an estimator's ``kernel``/``gamma``/``sigma_sq``
    hyperparameters name.

    A :class:`Kernel` instance is used as given.  ``"rbf"`` takes its
    width from ``sigma_sq`` (the paper's σ²) when set, else from
    ``gamma`` (default 1.0); any other name goes to :func:`make_kernel`
    with ``gamma`` when set.
    """
    if isinstance(kernel, Kernel):
        return kernel
    name = str(kernel)
    if name == "rbf":
        if sigma_sq is not None:
            return RBFKernel.from_sigma_sq(sigma_sq)
        return RBFKernel(gamma if gamma is not None else 1.0)
    return make_kernel(name, **({} if gamma is None else {"gamma": gamma}))


__all__ = [
    "Kernel",
    "KernelRowCache",
    "LinearKernel",
    "PolynomialKernel",
    "RBFKernel",
    "SampleRow",
    "SigmoidKernel",
    "build_kernel",
    "make_kernel",
]
