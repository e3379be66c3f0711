"""Deterministic random-number-generator helpers.

Every stochastic component in the reproduction (data synthesis, model
initialisation, MSTopK's random tail selection, ...) receives an explicit
``numpy.random.Generator``.  Global state is never used, which keeps the
distributed-training simulations bit-reproducible regardless of worker
iteration order.
"""

from __future__ import annotations

import numpy as np

#: Alias used in type hints throughout the code base.
RandomState = np.random.Generator

_DEFAULT_SEED = 0xC0FFEE


def new_rng(seed: int | None = None) -> RandomState:
    """Create a fresh :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Seed for the PCG64 bit generator.  ``None`` selects the library
        default seed (still deterministic) rather than OS entropy, because
        reproducibility matters more than uniqueness here.
    """
    if seed is None:
        seed = _DEFAULT_SEED
    return np.random.default_rng(seed)


def derive_seed(seed: int, *names: str | int) -> int:
    """Derive a stable sub-seed from a base seed and a path of names.

    Deterministic across processes and Python versions (unlike ``hash``).
    """
    h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    for name in names:
        for byte in str(name).encode("utf-8"):
            # FNV-1a style mixing; cheap and stable.
            h = np.uint64((int(h) ^ byte) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF)
    return int(h)


__all__ = [
    "RandomState",
    "new_rng",
    "derive_seed",
]
