"""Certified bounds on worst-case expected loss over Hellinger balls.

Closed-form and finite-sample certificates for bounded losses under
distribution shift, instantiations for classification error, JSD loss and
AUC, an exact discrete brute-force oracle to validate them against, and a
Gaussian-mixture benchmark comparing with Wasserstein-based baselines.

The package exports the names each of its five core modules declares in
its own ``__all__``.
"""

__version__ = "0.1.0"

from . import bounds, finite_sample, losses, oracle, shifts

__all__ = ["__version__"]
for _module in (bounds, finite_sample, losses, oracle, shifts):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
