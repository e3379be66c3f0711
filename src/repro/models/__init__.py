"""Models: performance profiles of the paper's workloads and real
trainable NumPy networks for the convergence experiments.

* :mod:`repro.models.profiles` — layer-accurate parameter inventories of
  ResNet-50 (161 LARS tensors / 25.6M params), VGG-19 and the
  Transformer, plus the calibrated single-GPU throughput tables that
  drive the performance model (Tables 3 and 4).
* :mod:`repro.models.autodiff` — a small reverse-mode autodiff tape
  (built from scratch; no framework available offline).
* :mod:`repro.models.nn` — MLP / CNN / tiny-Transformer classifiers used
  to reproduce the convergence behaviour of Dense vs TopK vs MSTopK SGD
  (Fig. 10, Table 2) at laptop scale.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.models.autodiff": ["Tensor"],
        "repro.models.profiles": ["ModelProfile", "resnet50_profile", "transformer_profile", "vgg19_profile"],
    },
)
