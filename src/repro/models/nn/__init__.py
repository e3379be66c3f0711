"""Trainable NumPy models for the convergence experiments.

Each model exposes the same interface the distributed trainer consumes:

* ``init_params(rng) -> dict[str, np.ndarray]``
* ``loss_and_grad(params, x, y, out=None) -> (loss, grads, metrics)``

Parameters are plain NumPy arrays, and gradients are computed into the
caller's ``out`` arrays when given (views of the trainer's flat fusion
buffer; see :class:`repro.train.trainer.TrainableModel`); the autodiff
tape is an internal detail.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.models.nn.convnet": ["SmallConvNet"],
        "repro.models.nn.mlp": ["MLPClassifier"],
        "repro.models.nn.resnet_tiny": ["TinyResNet"],
        "repro.models.nn.transformer": ["TinyTransformer"],
    },
)
