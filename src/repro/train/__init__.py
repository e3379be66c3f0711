"""Distributed synchronous training over the virtual cluster.

:class:`~repro.train.trainer.DistributedTrainer` runs real data-parallel
SGD (paper Eq. 1): per-worker gradients from the NumPy models flow
through an actual :class:`~repro.comm.CommScheme` (dense all-reduce or
sparsified hierarchy, with error feedback) before the optimizer update.
The Fig. 10 / Table 2 experiment runs it through the
:func:`repro.api.run` facade: the same model and data trained under
Dense-SGD, TopK-SGD and MSTopK-SGD.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.train.checkpoint": ["load_checkpoint", "save_checkpoint"],
        "repro.train.synthetic": [
            "make_blob_classification",
            "make_spiral_classification",
            "make_synthetic_images",
        ],
        "repro.train.trainer": ["DistributedTrainer", "TrainingReport"],
    },
)
