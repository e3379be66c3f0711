"""Optimizers and the progressive-resizing schedule.

Large-batch training (global batch 32K in the paper's §5.5) needs
layer-wise adaptive scaling to converge — LARS (You et al. 2018).
Plain momentum SGD is the within-layer update rule underneath it.  The
DAWNBench record run (§5.6) changes input resolution by phase
(:class:`~repro.optim.schedules.ProgressiveResizeSchedule`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.optim.lars": ["LARS", "lars_coefficient", "lars_coefficients"],
        "repro.optim.schedules": ["ProgressiveResizeSchedule", "ResolutionPhase"],
        "repro.optim.sgd": ["SGD"],
    },
)
