"""Distributed synchronous training over the virtual cluster.

:class:`~repro.train.trainer.DistributedTrainer` runs real data-parallel
SGD (paper Eq. 1): per-worker gradients from the NumPy models flow
through an actual :class:`~repro.comm.CommScheme` (dense all-reduce or
sparsified hierarchy, with error feedback) before the optimizer update.
:mod:`~repro.train.convergence` packages the Fig. 10 / Table 2
experiment: the same model and data trained under Dense-SGD, TopK-SGD
and MSTopK-SGD.
"""

from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.train.convergence import (
    ConvergenceResult,
    ConvergenceRunner,
    EpochRecord,
)
from repro.train.synthetic import (
    make_blob_classification,
    make_spiral_classification,
    make_synthetic_images,
)
from repro.train.trainer import DistributedTrainer, TrainingReport

__all__ = [
    "DistributedTrainer",
    "TrainingReport",
    "save_checkpoint",
    "load_checkpoint",
    "ConvergenceRunner",
    "ConvergenceResult",
    "EpochRecord",
    "make_spiral_classification",
    "make_blob_classification",
    "make_synthetic_images",
]
